"""Remote reads and writes through the shell (paper sections 4, 5.3).

The unit models the four data-movement flavors the shell gives a
single node:

* **Uncached remote read** — fetches one word from the target node's
  DRAM; ~91 cycles to an adjacent node.
* **Cached remote read** — fetches a whole 32-byte line and installs it
  in the local L1; ~114 cycles, after which local hits cost 1 cycle.
  The hardware keeps **no coherence**: the installed line is a snapshot
  and goes stale if the owner writes (section 4.4).
* **Non-blocking remote write** — the store drains through the write
  buffer to the shell (~17 cycles each in steady state, Figure 7) and
  is acknowledged by the target; the shell status register counts
  outstanding acknowledgements.
* **Acknowledged (blocking) write** — store + memory barrier + status
  polling; ~130 cycles (section 4.3), including the subtlety that the
  status bit is *clear while the write is still in the write buffer*,
  so polling without a barrier reports completion prematurely.

The unit reaches other nodes through a ``fabric`` object (implemented
by :class:`repro.machine.machine.Machine`) providing ``hops(src, dst)``,
``node(pe)`` and ``notify_store_arrival(...)``.
"""

from __future__ import annotations

import numpy as _np

from repro.node import memsys as _memsys
from repro.node.exact import CEILING, array_on_grid, on_grid
from repro.node.memory import WordRun
from repro.node.memsys import ReadPlan
from repro.node.write_buffer import BlockingSource, RemoteTarget
from repro.params import (
    LOCAL_ADDR_MASK,
    NetworkParams,
    RemoteAccessParams,
    WORD_BYTES,
)
from repro.trace import tracer as _trace
from repro.vector import kernels as _vk

__all__ = ["AckRecord", "PeerLink", "RemoteAccessUnit", "make_inbound"]


def make_inbound(node, rparams: RemoteAccessParams):
    """Build the write-retirement callbacks for stores *into* ``node``:
    ``(on_retire, retire_run)``, for one entry and for a run of them.

    One pair per target serves every sender: the per-pair parts of a
    retiring packet — the flight time and the sending unit whose
    acknowledgement list the ack joins — travel on the entry itself as
    ``entry.meta = (flight, source_unit)``.  Hot target-side state is
    bound here once; every binding is stable across
    :meth:`Machine.reset`.
    """
    ms = node.memsys
    dram = ms.dram
    access_with = dram.access_with
    same_bank = ms.params.dram.same_bank_cycles
    memory = ms.memory
    mem_store = memory.store
    l1 = ms.l1
    l1_invalidate = l1.invalidate
    record_arrival = node.record_store_arrival
    service = rparams.target_service_cycles
    off_page = rparams.remote_off_page_cycles
    ack_overhead = rparams.write_ack_overhead_cycles
    target_pe = node.pe
    mask = LOCAL_ADDR_MASK

    def on_retire(entry):
        flight, src = entry.meta
        # Target-interface serialization: one sender's stream never
        # queues (service rate = injection rate), but converging
        # senders do — incast congestion.
        arrival = entry.retire_time + flight
        if arrival < node.inbound_busy_until:
            arrival = node.inbound_busy_until
        node.inbound_busy_until = arrival + service
        line_local = entry.line_addr & mask
        mem_cycles = access_with(line_local, off_page, same_bank)
        nbytes = 0
        for waddr, wvalue in entry.words.items():
            local = waddr & mask
            mem_store(local, wvalue)
            l1_invalidate(local)
            nbytes += WORD_BYTES
        ack_time = arrival + mem_cycles + flight + ack_overhead
        src._acks.append(
            AckRecord(entry.retire_time, ack_time, nbytes))
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_ack", t=entry.retire_time,
                        pe=src.my_pe, target=target_pe, nbytes=nbytes,
                        ack_time=ack_time)
        record_arrival(nbytes, arrival + mem_cycles, line_local)

    def retire_run(meta, times, lines, nbytes, blocks):
        """``on_retire`` of a run of entries sharing ``meta``, in
        order: ``times``, ``lines`` and ``nbytes`` hold each entry's
        retire time, line address and bytes (numpy arrays), ``blocks``
        their words in entry order (word dicts, and ``(addr, values)``
        runs of consecutive words).

        The DRAM accesses are one :meth:`Dram.plan_access`; the arrival
        chain ``a_e = max(r_e + flight, a_{e-1} + service)`` (``a_{-1} +
        service`` the interface's busy time) is ``e * service`` plus a
        running maximum of ``r_j + flight - j * service``.  Exact when
        every value is on the 2^-8 grid and every sum below 2^44, which
        the caller checks; never traced.
        """
        flight, src = meta
        local = lines & mask
        mem_cycles, dram_commit = dram.plan_access(local, off_page,
                                                   same_bank)
        dram_commit()
        steps = service * _np.arange(len(times))
        ready = times + flight - steps
        ready[0] = max(ready[0], node.inbound_busy_until)
        arrival = _np.maximum.accumulate(ready) + steps
        node.inbound_busy_until = float(arrival[-1]) + service
        landed = arrival + mem_cycles
        src._acks.extend(map(AckRecord, times.tolist(),
                             (landed + flight + ack_overhead).tolist(),
                             nbytes.tolist()))
        for block in blocks:
            if type(block) is dict:
                for waddr, wvalue in block.items():
                    word = waddr & mask
                    mem_store(word, wvalue)
                    l1_invalidate(word)
                continue
            addr, values = block
            word = addr & mask
            span = len(values) * WORD_BYTES
            if word + span - WORD_BYTES <= mask:
                memory.store_range(word, values)
                l1.invalidate_range(word, span)
            else:
                for i, value in enumerate(values):
                    word = (addr + i * WORD_BYTES) & mask
                    mem_store(word, value)
                    l1_invalidate(word)
        node.record_store_arrivals(nbytes, landed, local)

    return on_retire, retire_run


def _bounds(offsets) -> tuple[int, int]:
    """The first and last of ``offsets`` (a ``range``), or the least
    and greatest (an int64 numpy array)."""
    if isinstance(offsets, range):
        return offsets[0], offsets[-1]
    return int(offsets.min()), int(offsets.max())


def _as_array(addrs):
    """``addrs`` (a ``range`` or a sequence of ints) as an int64 numpy
    array."""
    if isinstance(addrs, range):
        return _np.arange(addrs.start, addrs.stop, addrs.step)
    return _np.asarray(addrs, dtype=_np.int64)


def _target_words(peer: "PeerLink", offsets):
    """What reads of the target's words at ``offsets`` return, the way
    :meth:`MemorySystem.plan_reads` gives its values: a
    :class:`WordRun` for a ``range``; for an int64 array, one float64
    gather when every word holds a float, else a list of the loads."""
    memory = peer.node.memsys.memory
    if isinstance(offsets, range):
        return WordRun(memory, offsets.start, len(offsets))
    values = memory.gather(offsets, "f8", written=True)
    if values is None:
        values = list(map(memory.load, offsets.tolist()))
    return values


class AckRecord:
    """An in-flight remote-write acknowledgement."""

    __slots__ = ("drain_time", "ack_time", "nbytes")

    def __init__(self, drain_time: float, ack_time: float, nbytes: int):
        self.drain_time = drain_time   # when the store left the buffer
        self.ack_time = ack_time       # when the ack clears the status bit
        self.nbytes = nbytes

    def __repr__(self) -> str:   # debugging aid only
        return (f"AckRecord(drain_time={self.drain_time}, "
                f"ack_time={self.ack_time}, nbytes={self.nbytes})")


class PeerLink:
    """Precomputed per-target bindings for the remote hot paths.

    Everything here is immutable for the life of the machine (nodes and
    units are created once), so the link collapses the per-access
    attribute-chain walks to one lookup per target.  ``dram`` is the
    target's controller, whose live row state the drain peeks read.
    """

    __slots__ = ("node", "flight", "access_with", "peek_access_with",
                 "same_bank", "access_cycles", "mem_load", "on_retire",
                 "retire_run", "retire_meta", "dram")

    def __init__(self, unit: "RemoteAccessUnit", pe: int):
        node = unit.fabric.node(pe)
        # All target-side bindings come from one bundle built once per
        # *target* node (Node.peer_exports) — at 1024 PEs there are
        # ~200x more (source, target) pairs than targets, and the
        # attribute-chain walks per pair dominated link construction.
        # The only truly per-pair state is the flight time and the
        # sender identity, carried to retirement as ``retire_meta``.
        (self.dram, self.access_with, self.peek_access_with,
         self.same_bank, self.access_cycles, self.mem_load,
         self.on_retire, self.retire_run) = node.peer_exports()
        self.node = node
        self.flight = unit.fabric.hops(unit.my_pe, pe) \
            * unit.network.hop_cycles
        self.retire_meta = (self.flight, unit)


class RemoteAccessUnit:
    """Per-node remote load/store engine."""

    def __init__(self, params: RemoteAccessParams, network: NetworkParams,
                 my_pe: int, memsys, fabric):
        self.params = params
        self.network = network
        self.my_pe = my_pe
        self.memsys = memsys
        self.fabric = fabric
        self._peer_cache: dict[int, PeerLink] = {}
        self._acks: list[AckRecord] = []
        #: Data snapshots for remotely-fetched cache lines, keyed by the
        #: full (annex-bearing) line address.  Snapshot staleness *is*
        #: the non-coherence of cached remote reads.
        self._line_snapshots: dict[int, dict[int, object]] = {}
        self.reads = 0
        self.cached_reads = 0
        self.stores = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("remote", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"uncached_reads": self.reads,
                "cached_line_fills": self.cached_reads,
                "stores": self.stores}

    def reset(self) -> None:
        # The peer-link cache deliberately survives reset: every
        # binding a PeerLink holds (nodes, units and their methods) is
        # stable for the machine's life.  Rebuilding ~200 links per node
        # between the warmup and measured runs was a measurable cost
        # at 1024 processors.
        self._acks = []
        self._line_snapshots = {}
        self.reads = 0
        self.cached_reads = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def link(self, pe: int) -> PeerLink:
        """The :class:`PeerLink` of target processor ``pe``, built once
        and shared by every remote read, store and prefetch to it."""
        link = self._peer_cache.get(pe)
        if link is None:
            link = self._peer_cache[pe] = PeerLink(self, pe)
        return link

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def uncached_read(self, now: float, pe: int, offset: int):
        """Fetch one word from a remote node; returns (cycles, value)."""
        self.reads += 1
        peer = self.link(pe)
        local = offset & LOCAL_ADDR_MASK
        cycles = (
            self.params.read_overhead_cycles
            + 2 * peer.flight
            + peer.access_with(local, self.params.remote_off_page_cycles,
                               peer.same_bank)
        )
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_read", t=now, pe=self.my_pe,
                        target=pe, offset=local, cycles=cycles)
        return cycles, peer.mem_load(local)

    def cached_read(self, now: float, pe: int, offset: int, full_addr: int):
        """Read via a cached remote access; returns (cycles, value).

        A local hit on a previously-fetched line costs one cycle and
        returns the *snapshot* value — stale if the owner has written
        since (the section 4.4 coherence pitfall).  A miss fetches the
        whole line (+23 cycles over an uncached read) and installs it.
        """
        l1 = self.memsys.l1
        if l1.lookup(full_addr):
            snapshot = self._line_snapshots.get(l1.line_addr(full_addr))
            word = full_addr - (full_addr % WORD_BYTES)
            if snapshot is not None and word in snapshot:
                return self.memsys.params.l1.hit_cycles, snapshot[word]
            # Locally-owned or snapshot-less line: fall back to memory.
            return self.memsys.params.l1.hit_cycles, self.link(
                pe).mem_load(offset & LOCAL_ADDR_MASK)

        self.cached_reads += 1
        peer = self.link(pe)
        cycles = (
            self.params.read_overhead_cycles
            + self.params.cached_line_extra_cycles
            + 2 * peer.flight
            + peer.access_with(offset & LOCAL_ADDR_MASK,
                               self.params.remote_off_page_cycles,
                               peer.same_bank)
        )
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_read_cached", t=now, pe=self.my_pe,
                        target=pe, offset=offset & LOCAL_ADDR_MASK,
                        cycles=cycles)
        target_mem = peer.node.memsys.memory
        line_full = l1.line_addr(full_addr)
        line_local = line_full & LOCAL_ADDR_MASK
        snapshot = {
            line_full + i * WORD_BYTES: target_mem.load(line_local + i * WORD_BYTES)
            for i in range(self.memsys.params.l1.line_bytes // WORD_BYTES)
        }
        evicted = l1.fill(full_addr)
        if evicted is not None:
            self._line_snapshots.pop(evicted, None)
        self._line_snapshots[line_full] = snapshot
        word = full_addr - (full_addr % WORD_BYTES)
        return cycles, snapshot[word]

    # ------------------------------------------------------------------
    # Batched reads and stores (exact equivalents of the per-word loops)
    # ------------------------------------------------------------------

    def inbound(self, pe: int):
        """The retirement callback of stores into ``pe``."""
        return self.link(pe).on_retire

    def _plan_target(self, pe: int, first: int, last: int):
        """Shared checks of a batched read of ``pe``'s words at offsets
        ``first .. last``: the :class:`PeerLink`, or None."""
        if (_trace.TRACE_ENABLED or pe == self.my_pe
                or first < 0 or last > LOCAL_ADDR_MASK):
            return None
        return self.link(pe)

    def plan_uncached(self, pe: int, offsets) -> ReadPlan | None:
        """:meth:`uncached_read` of ``pe``'s words at each of
        ``offsets`` (a ``range`` of consecutive words, or an int64 numpy
        array) in turn, timed in one pass (the target's DRAM row events
        with the remote off-page penalty); None where that is not exact.
        The values are :func:`_target_words`."""
        n = len(offsets)
        peer = n and self._plan_target(pe, *_bounds(offsets))
        if not peer or not on_grid(self.params.read_overhead_cycles) \
                or not on_grid(peer.flight):
            return None
        planned = peer.dram.plan_access(
            offsets, self.params.remote_off_page_cycles, peer.same_bank)
        if planned is None:
            return None
        cycles, dram_commit = planned
        cycles += self.params.read_overhead_cycles + 2 * peer.flight

        def commit():
            dram_commit()
            self.reads += n

        return ReadPlan(cycles, _target_words(peer, offsets), commit,
                        (peer.on_retire, self.inbound(self.my_pe)))

    def plan_cached(self, pe: int, offsets, full_addrs,
                    flush_every: int | None):
        """:meth:`cached_read` of ``pe``'s word at each of ``offsets``
        (full addresses ``full_addrs``: two ``range``s of consecutive
        words, or two int64 numpy arrays) in turn, invalidating the
        word's line with :meth:`invalidate_cached_line` after every
        ``flush_every``-th read and the last (never, for None).

        Returns ``(plan, tail)``: ``plan.cycles[k]`` is read ``k`` plus
        the invalidation charged after read ``k - 1`` if any, and
        ``tail`` the one after the last read.  A stable sort by L1 set
        gives each read its set's previous access: the read hits iff
        that access was to its own line with no invalidation after it
        (for a set's first read, iff the line was resident before the
        stream).  A hit reads the line's old snapshot iff every earlier
        read of its set hit; every other read sees the target's memory,
        which nothing changes during the stream.  The reads are sorted
        a piece at a time (:func:`repro.vector.kernels.chunks`), each
        piece's sets starting as the last left them.  None where that
        is not exact: outside a direct-mapped L1, an offset whose local
        bits differ from its full address's, or off the exactness grid.
        """
        n = len(offsets)
        peer = n and self._plan_target(pe, *_bounds(offsets))
        l1 = self.memsys.l1
        p = self.params
        hit_cycles = self.memsys.params.l1.hit_cycles
        flush_cycles = self.memsys.params.l1.flush_line_cycles
        if not peer or l1._assoc != 1 or not all(on_grid(x) for x in (
                p.read_overhead_cycles, p.cached_line_extra_cycles,
                hit_cycles, flush_cycles, peer.flight)):
            return None
        lb, nsets = l1._line_bytes, l1._num_sets
        tags = l1._tags
        # Per set: its resident line (-1: none), whether no read of the
        # stream has missed in it, and whether the stream touched it.
        resident = _np.full(nsets, -1, dtype=_np.int64)
        resident[list(tags)] = list(tags.values())
        initial = resident.copy()
        clean = _np.ones(nsets, dtype=bool)
        touched = _np.zeros(nsets, dtype=bool)
        snapshots = self._line_snapshots
        keys = _np.fromiter(snapshots, dtype=_np.int64, count=len(snapshots))
        seen = _np.zeros(len(keys), dtype=bool)     # read in the stream
        hit = _np.empty(n, dtype=bool)
        miss_offsets = []
        old = {}
        for (start, local), (_, full) in zip(_vk.chunks(offsets),
                                             _vk.chunks(full_addrs)):
            if ((local ^ full) & LOCAL_ADDR_MASK).any():
                return None
            m = len(full)
            lines = full - full % lb
            sets = full // lb % nsets
            order = _np.argsort(sets.astype(_np.uint16) if nsets <= 1 << 16
                                else sets, kind="stable")
            set_s, line_s = sets[order], lines[order]
            first = _np.ones(m, dtype=bool)
            first[1:] = set_s[1:] != set_s[:-1]
            last = _np.append(first[1:], True)
            # The line each read leaves resident (-1: invalidated after).
            after = line_s.copy()
            if flush_every is not None:
                k = start + order + 1
                after[(k % flush_every == 0) | (k == n)] = -1
            before = _np.empty(m, dtype=_np.int64)
            before[1:] = after[:-1]
            before[first] = resident[set_s[first]]
            hit_s = before == line_s
            index = _np.arange(m)
            set_start = _np.maximum.accumulate(_np.where(first, index, 0))
            last_miss = _np.maximum.accumulate(_np.where(hit_s, -1, index))
            unmissed = (last_miss < set_start) & clean[set_s]
            for k in order[hit_s & unmissed].tolist():
                word = int(full[k]) & -WORD_BYTES
                snap = snapshots.get(int(lines[k]))
                if snap is not None and word in snap:
                    old[start + k] = snap[word]
            hit[start + order] = hit_s
            miss_offsets.append(local[~hit[start:start + m]])
            ends = set_s[last]
            resident[ends] = after[last]
            clean[ends] = unmissed[last]
            touched[ends] = True
            if len(keys):
                ordered = _np.sort(lines)
                where = _np.searchsorted(ordered, keys).clip(max=m - 1)
                seen |= ordered[where] == keys
        planned = peer.dram.plan_access(_np.concatenate(miss_offsets),
                                        p.remote_off_page_cycles,
                                        peer.same_bank)
        if planned is None:
            return None
        misses = _np.flatnonzero(~hit)
        cycles = _np.full(n, hit_cycles, dtype=_np.float64)
        cycles[misses] = (p.read_overhead_cycles + p.cached_line_extra_cycles
                          + 2 * peer.flight + planned[0])
        tail = 0.0
        if flush_every is not None:
            # Each invalidation is charged before the next read.
            cycles[flush_every::flush_every] += flush_cycles
            tail = flush_cycles
        values = _target_words(peer, offsets)
        if old:
            if isinstance(values, WordRun):
                values.overrides.update(old)
            else:
                values = values if type(values) is list else values.tolist()
                for k, value in old.items():
                    values[k] = value
        # Every line resident at some point of the stream loses its
        # snapshot, unless it stayed resident on hits alone.
        key_sets = keys // lb % nsets
        gone = keys[seen | (touched[key_sets] & (keys == initial[key_sets]))]
        sets = _np.flatnonzero(touched)
        final = zip(sets.tolist(), resident[sets].tolist(),
                    clean[sets].tolist())
        nmisses = len(misses)
        line_words = lb // WORD_BYTES
        target_load = peer.node.memsys.memory.load_range

        def commit():
            planned[1]()
            l1.hits += n - nmisses
            l1.misses += nmisses
            self.cached_reads += nmisses
            kept = {}
            for s, line, unchanged in final:
                if line < 0:
                    tags.pop(s, None)
                    continue
                tags[s] = line
                if not unchanged:
                    kept[line] = dict(zip(
                        range(line, line + lb, WORD_BYTES),
                        target_load(line & LOCAL_ADDR_MASK, line_words)))
                elif line in snapshots:
                    kept[line] = snapshots[line]
            for line in gone.tolist():
                del snapshots[line]
            snapshots.update(kept)

        plan = ReadPlan(cycles, values, commit,
                        (peer.on_retire, self.inbound(self.my_pe)))
        return plan, tail

    def stream_stores(self, now: float, pes, offsets, full_addrs,
                      values: list, source) -> float | None:
        """:meth:`store` of ``values[k]`` to offset ``offsets[k]`` of
        processor ``pes[k]`` (full address ``full_addrs[k]``), each at
        the clock ``source`` gives, through :meth:`WriteBuffer.stream`;
        returns the final clock, or None (every unit untouched).
        ``pes`` is an int64 numpy array, or one int for every store;
        ``offsets`` and ``full_addrs`` are sequences of ints.

        A stream of at least ``_MIN_CLOSED_STORES`` stores to one target
        runs in closed form (:meth:`_stream_closed`) as far as that
        goes; the loop issues the rest.  In the loop, the drain of each
        non-merging store peeks its target's DRAM before the store's
        flush, as :meth:`store` does, and retiring entries run their
        target's real ``on_retire`` at each flush point.
        """
        n = total = len(values)
        if n >= _memsys._MIN_CLOSED_STORES:
            closed = self._stream_closed(now, pes, offsets, full_addrs,
                                         values, source)
            if closed is not None:
                done, now, source = closed
                if done == n:
                    self.stores += n
                    return now
                offsets, full_addrs = offsets[done:], full_addrs[done:]
                values = values[done:]
                pes = pes if isinstance(pes, int) else pes[done:]
                n -= done
        pes = [pes] * n if isinstance(pes, int) else pes.tolist()
        links = {pe: self.link(pe) for pe in set(pes)}
        if self.my_pe in links:
            return None
        peers = list(map(links.__getitem__, pes))
        # One shared (on_retire, meta) per target, not one per store.
        retire = {pe: (link.on_retire, link.retire_meta)
                  for pe, link in links.items()}
        p = self.params
        store_drain = p.store_drain_cycles
        off_page = p.remote_off_page_cycles
        dp = self.memsys.params.dram
        same_bank = dp.same_bank_cycles
        access = dp.access_cycles
        mask = LOCAL_ADDR_MASK

        def drain(k):
            return store_drain + (peers[k].peek_access_with(
                offsets[k] & mask, off_page, same_bank) - access)

        kinds = tuple(store_drain + (k - access) for k in (
            access, access + off_page, access + off_page + same_bank))
        clock = self.memsys.write_buffer.stream(
            now, full_addrs, values, drain, kinds, source,
            list(map(retire.__getitem__, pes)),
            isolate=(self.inbound(self.my_pe),))
        if clock is not None:
            self.stores += total
        return clock

    def _stream_closed(self, now, pes, offsets, full_addrs, values,
                       source):
        """:meth:`WriteBuffer.stream_closed` of the stores of
        :meth:`stream_stores` with the target's :class:`RemoteTarget`:
        its DRAM peeks as of each store's flush point
        (:meth:`Dram.peek_after`) and its ``retire_run``.  None, with
        nothing changed, for more than one target, a source other than
        a :class:`BlockingSource`, an offset whose local bits differ
        from its full address's, a DRAM geometry not in whole lines, or
        off the exactness envelope; this also leaves the loop able to
        issue whatever the closed form does not.
        """
        if not len(values):
            return None
        if isinstance(pes, int):
            pe = pes
        else:
            pe = int(pes[0])
            if (pes != pe).any():
                return None
        if pe == self.my_pe or type(source) is not BlockingSource:
            return None
        mask = LOCAL_ADDR_MASK
        local, full = map(_as_array, (offsets, full_addrs))
        if ((local ^ full) & mask).any():
            return None
        link = self.link(pe)
        wb = self.memsys.write_buffer
        cap = wb._capacity
        p = self.params
        dram = link.dram
        store_drain = p.store_drain_cycles
        off_page = p.remote_off_page_cycles
        same_bank, access = link.same_bank, link.access_cycles
        service = p.target_service_cycles
        kinds = (store_drain, store_drain + off_page,
                 store_drain + off_page + same_bank)
        gaps = source.gaps
        times = (now, wb._last_retire, link.node.inbound_busy_until,
                 *(e.retire_time for e in wb._pending))
        charges = (source.lead, wb._issue_cycles, link.flight, off_page,
                   same_bank, access, service, p.write_ack_overhead_cycles,
                   *kinds, *(k / cap for k in kinds))
        # Every clock, retire time, arrival and acknowledgement of the
        # stream stays below this bound.
        n = len(values)
        top = (max(map(abs, times)) + float(gaps.sum())
               + n * (source.lead + wb._issue_cycles + kinds[-1] / cap)
               + (n + len(wb._pending)) * service + 2 * link.flight
               + access + off_page + same_bank + p.write_ack_overhead_cycles)
        lb = wb.line_bytes
        if (cap & (cap - 1) or store_drain <= 0
                or dram.params.bank_interleave_bytes % lb
                or dram.params.page_bytes % lb or min(charges) < 0
                or not all(on_grid(x) for x in (*times, *charges))
                or not array_on_grid(gaps) or gaps.min() < 0
                or top >= CEILING):
            return None

        def peek(lines, counts, queries):
            return store_drain + (dram.peek_after(
                lines & mask, counts, queries & mask, off_page,
                same_bank) - access)

        return wb.stream_closed(
            now, full_addrs, values,
            RemoteTarget(link.on_retire, link.retire_meta, peek,
                         link.retire_run), source)

    def invalidate_cached_line(self, full_addr: int) -> float:
        """Coherence flush of a remotely-fetched line (23 cycles)."""
        self._line_snapshots.pop(self.memsys.l1.line_addr(full_addr), None)
        return self.memsys.invalidate_line(full_addr)

    def flush_all_cached(self) -> float:
        """Whole-cache flush; drops every snapshot (section 6.2 note 3)."""
        self._line_snapshots.clear()
        return self.memsys.flush_all_lines()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def store(self, now: float, pe: int, offset: int, value,
              full_addr: int) -> float:
        """Non-blocking remote store; returns the CPU cycles charged.

        The store enters the node's write buffer (merging with an open
        entry for the same line) and, on drain, becomes a packet whose
        arrival writes the target memory, invalidates the target's
        cached copy (cache-invalidate mode, section 4.4), and sends an
        acknowledgement back toward the status register.
        """
        self.stores += 1
        # The drain rate feels the target memory controller: a store
        # stream that misses the remote DRAM page on every line (16 KB
        # strides) backs the pipeline up — Figure 7's inflection.
        peer = self.link(pe)
        drain = self.params.store_drain_cycles + (
            peer.peek_access_with(
                offset & LOCAL_ADDR_MASK,
                self.params.remote_off_page_cycles,
                peer.same_bank,
            ) - peer.access_cycles
        )
        cycles = self.memsys.write_buffer.push(
            now, full_addr, value, drain,
            apply_words=False, on_retire=peer.on_retire,
            meta=peer.retire_meta,
        )
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_store", t=now, pe=self.my_pe, target=pe,
                        offset=offset & LOCAL_ADDR_MASK, cycles=cycles)
        return cycles

    def outstanding(self, now: float) -> int:
        """Remote writes the status register counts at time ``now``.

        Only stores that have *left the write buffer* are visible;
        stores still buffered are invisible — the section 4.3 hazard.
        """
        self.memsys.write_buffer.flush_retired(now)
        self._acks = [a for a in self._acks if a.ack_time > now]
        return sum(1 for a in self._acks if a.drain_time <= now)

    def status_says_complete(self, now: float) -> bool:
        """One status-register read: True if no writes appear pending."""
        return self.outstanding(now) == 0

    def wait_for_acks(self, now: float) -> float:
        """Poll the status register until every acknowledged write has
        completed; returns the completion time."""
        self.memsys.write_buffer.flush_retired(now)
        pending = [a.ack_time for a in self._acks if a.ack_time > now]
        done = max(pending) if pending else now
        self._acks = [a for a in self._acks if a.ack_time > done]
        return done + self.params.status_poll_cycles

    def blocking_write(self, now: float, pe: int, offset: int, value,
                       full_addr: int) -> float:
        """Acknowledged remote write (section 4.3); returns total cycles.

        Store, then a memory barrier to force the write out of the
        buffer (otherwise the status bit lies), then poll to the ack.
        """
        t = now + self.store(now, pe, offset, value, full_addr)
        t = self.memsys.memory_barrier(t)
        t = self.wait_for_acks(t)
        return t - now
