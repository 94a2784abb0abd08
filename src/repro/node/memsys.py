"""The composed node memory system: TLB -> L1 (-> L2) -> write buffer
-> page-mode DRAM, over a functional word store.

Two standard configurations mirror the two machines of Figure 1:

* :func:`t3d_memory_system` — the CRAY-T3D node: 8 KB direct-mapped L1,
  no L2, huge pages (TLB never misses), fast 4-bank page-mode DRAM.
* :func:`workstation_memory_system` — the DEC Alpha workstation: same
  L1, 512 KB L2, 8 KB pages with a finite TLB, slower main memory.

Every access method takes the current node time (cycles) and returns
the cycles the access costs; probes call the ``*_cycles`` timing paths,
programs call :meth:`read` / :meth:`write` which also move data.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as _np

from repro.node.cache import Cache
from repro.node.dram import Dram
from repro.node.exact import array_on_grid, on_grid
from repro.node.memory import WordMemory, WordRun
from repro.node.tlb import Tlb
from repro.node.write_buffer import BlockingSource, WriteBuffer
from repro.params import (
    LOCAL_ADDR_MASK,
    WORD_BYTES,
    NodeParams,
    t3d_node_params,
    workstation_node_params,
)
from repro.trace import tracer as _trace
from repro.vector import kernels as _vk

__all__ = ["BlockPlan", "MemorySystem", "ReadPlan", "t3d_memory_system",
           "workstation_memory_system"]

#: Shortest store stream :meth:`MemorySystem.stream_writes` solves in
#: closed form (:meth:`WriteBuffer.stream_closed`).  Measured on Figure
#: 8's uncached, cached and prefetch reads from a fresh 2-PE T3D: the
#: closed form's ~200 us of numpy set-up per chunk against the loop's
#: ~1.6 us per store tie at 192 stores; the closed form wins from 256.
_MIN_CLOSED_STORES = 192


class BlockPlan(NamedTuple):
    """Outcome of one block of rows (:meth:`MemorySystem.plan_block`)."""

    #: float64 numpy array: cycles of each load, in program order.
    load_cycles: object
    #: The clock after the block's last store.
    end_clock: float


class ReadPlan(NamedTuple):
    """A run of reads timed ahead of a store stream: nothing changes
    until ``commit()``, which the caller runs once the stream it feeds
    has run (the two touch disjoint state)."""

    #: float64 numpy array: each read's cycles.
    cycles: object
    #: The value each read returns (a sequence; see :class:`WordRun`).
    values: object
    commit: object
    #: ``on_retire`` callbacks of write-buffer entries whose retirement
    #: would change what the reads saw (:meth:`WriteBuffer.stream`).
    isolate: tuple = ()


class MemorySystem:
    """Stateful latency + functional model of one node's memory."""

    def __init__(self, params: NodeParams, memory: WordMemory | None = None):
        self.params = params
        self.memory = memory if memory is not None else WordMemory()
        self.tlb = Tlb(params.tlb)
        self.l1 = Cache(params.l1)
        self.l2 = Cache(params.l2) if params.l2 is not None else None
        self.dram = Dram(params.dram)
        # Write-buffer entries are tagged with the full (possibly
        # Annex-bearing) address — that exact-match tagging is the
        # synonym hazard — but commits land at the canonical location.
        _store = self.memory.store
        self.write_buffer = WriteBuffer(
            params.write_buffer,
            apply=lambda addr, value: _store(addr & LOCAL_ADDR_MASK, value),
            line_bytes=params.l1.line_bytes,
            apply_entries=self._commit_entries,
            apply_run=self._commit_run,
        )
        # The common T3D node shape (direct-mapped L1, no L2, TLB that
        # never misses) gets a flattened read path in :meth:`read`.
        self._fast_read = (self.l1._assoc == 1 and self.l2 is None
                           and self.tlb._never_misses)
        #: Processor identity for trace attribution; set by the owning
        #: Node (a bare memory system has none).
        self.owner_pe: int | None = None

    def counters(self) -> dict:
        """Counter-registry hook: the composed units' totals, prefixed
        by unit name (``l1.hits``, ``dram.row_misses``, ...)."""
        merged = {}
        units = [("tlb", self.tlb), ("l1", self.l1), ("l2", self.l2),
                 ("dram", self.dram), ("wb", self.write_buffer)]
        for prefix, unit in units:
            if unit is None:
                continue
            for key, value in unit.counters().items():
                merged[f"{prefix}.{key}"] = value
        return merged

    @staticmethod
    def local_addr(addr: int) -> int:
        """Canonical local location of a possibly Annex-bearing address.

        Two synonyms (addresses differing only in Annex-index bits,
        section 3.4) canonicalize to the same location: DRAM banks/rows
        and the backing store see this address, while cache tags and
        write-buffer entries see the raw one.
        """
        return addr & LOCAL_ADDR_MASK

    def reset(self) -> None:
        """Cold-start all stateful units (between probe runs)."""
        self.tlb.reset()
        self.l1.reset()
        if self.l2 is not None:
            self.l2.reset()
        self.dram.reset()
        self.write_buffer.reset()

    # ------------------------------------------------------------------
    # Timing paths (state-mutating, value-free; used by probes and by
    # the functional paths below).
    # ------------------------------------------------------------------

    def read_cycles(self, now: float, addr: int) -> float:
        """Latency of a load issued at ``now``.

        Uses the caches' fused probe-and-fill (read-allocate), which is
        state- and counter-identical to a lookup followed by a fill on
        miss.
        """
        cycles = self.tlb.translate(addr)
        if self.l1.access_fill(addr):
            return cycles + self.params.l1.hit_cycles
        if self.l2 is not None:
            if self.l2.access_fill(addr):
                return cycles + self.params.l2.hit_cycles
            return cycles + self.dram.access(addr & LOCAL_ADDR_MASK)
        return cycles + self.dram.access(addr & LOCAL_ADDR_MASK)

    def write_cycles(self, now: float, addr: int, value=None) -> float:
        """Latency charged to the CPU for a store issued at ``now``.

        Write-through, no-write-allocate: a hit updates the cached line
        (tags unchanged, data lives in the backing store), and every
        store is pushed toward memory through the write buffer.  The
        drain cost is the DRAM access the entry will perform, evaluated
        in stream order.
        """
        tlb = self.tlb
        cycles = 0.0 if tlb._never_misses else tlb.translate(addr)
        wb = self.write_buffer
        line = addr - (addr % wb.line_bytes)
        if wb._merging:
            for entry in wb._pending:
                if entry.line_addr == line:
                    return cycles + wb.push(now + cycles, addr, value, 0.0)
        drain = self.dram.access(line & LOCAL_ADDR_MASK)
        return cycles + wb.push_new(now + cycles, addr, value, drain)

    # ------------------------------------------------------------------
    # Functional paths (timing + data movement).
    # ------------------------------------------------------------------

    def read(self, now: float, addr: int):
        """Load a word: returns ``(cycles, value)``.

        A pending write-buffer store to *exactly* this word is
        forwarded; a pending store to a synonym address is not, so the
        caller reads the stale memory value — the section 3.4 hazard.
        """
        # The load checks the write buffer when it *issues* — this is
        # the bypass point: a concurrent pending write to a synonym is
        # invisible here and the load proceeds to (stale) memory.
        found = False
        if self.write_buffer._pending:
            found, value = self.write_buffer.find_word(now, addr)
        if self._fast_read:
            # Flattened read_cycles for the T3D shape: TLB never
            # misses (no counters), direct-mapped L1, then DRAM.
            l1 = self.l1
            lb = l1._line_bytes
            line = addr - (addr % lb)
            index = (addr // lb) % l1._num_sets
            if l1._tags.get(index) == line:
                l1.hits += 1
                cycles = self.params.l1.hit_cycles
            else:
                l1.misses += 1
                l1._tags[index] = line
                cycles = self.dram.access(addr & LOCAL_ADDR_MASK)
        else:
            cycles = self.read_cycles(now, addr)
        if found:
            return cycles, value
        return cycles, self.memory.load(addr & LOCAL_ADDR_MASK)

    def write(self, now: float, addr: int, value) -> float:
        """Store a word; value commits to memory when its write-buffer
        entry drains.  Returns the CPU cycles charged."""
        return self.write_cycles(now, addr, value)

    def memory_barrier(self, now: float) -> float:
        """Drain the write buffer; return the new node time.

        Models the ``mb`` instruction: its own issue cost plus waiting
        for every pending write to reach memory.
        """
        done = self.write_buffer.drain_all(now)
        done = max(now + self.params.alpha.memory_barrier_cycles, done)
        if _trace.TRACE_ENABLED:
            _trace.emit("mem_barrier", t=now, pe=self.owner_pe, done=done)
        return done

    # ------------------------------------------------------------------
    # Batched program access (exact equivalent of a read/write sequence).
    # ------------------------------------------------------------------

    def gather(self, addrs, kind: str = "f8", written: bool = False):
        """The values :meth:`read` would return for each of ``addrs``
        (an int64 numpy array) at this moment, as one numpy array of
        the ``kind`` dtype, or None (see :meth:`WordMemory.gather`,
        which also defines ``written``).

        A pending write-buffer store to exactly a word forwards the
        youngest such store's value; every other word reads memory at
        its canonical address.  Nothing is flushed or timed.
        """
        pending = self.write_buffer._pending
        overlay = None
        if pending:
            forward = {}
            for entry in pending:          # oldest first: youngest wins
                forward.update(entry.words)
            words = addrs & -WORD_BYTES
            hit = _np.flatnonzero(_np.isin(words, list(forward)))
            overlay = {k: forward[w]
                       for k, w in zip(hit.tolist(), words[hit].tolist())}
        return self.memory.gather(addrs & LOCAL_ADDR_MASK, kind, overlay,
                                  written)

    def plan_block(self, now: float, load_addrs, store_addrs,
                   loads_per_store, row_charges=(), *, values,
                   row_extra=None) -> BlockPlan | None:
        """Run a block of rows in one batch, or decline.

        Row ``r`` is ``loads_per_store`` loads (an int, or one count
        per row), then the caller's ``row_charges`` and ``row_extra[r]``
        cycles (a float64 numpy array, or None), then a store of
        ``values[r]`` to ``store_addrs[r]``, issued from ``now`` on.
        Exactly equivalent to :meth:`read` per load and :meth:`write`
        per store: the plan commits the L1 tags, DRAM open rows, last
        bank and unit counters that sequence leaves, and issues the
        stores, each a new entry, through :meth:`WriteBuffer.settle` at
        the clocks a :class:`BlockingSource` of the row gaps gives.  It
        returns each load's cycles and the clock after the last store;
        the caller takes load values from :meth:`gather` beforehand.

        Returns None, leaving every unit untouched, outside the envelope
        where that is exact: no tracing, a direct-mapped L1, no
        L2, a never-missing TLB, no store that could merge, no loaded
        word stored in the block, no pending synonym of a loaded word,
        only plain local pending entries, no store that would stall, and
        every cycle value on the exactness grid (``docs/timing_model.md``
        gives the argument).
        """
        wb = self.write_buffer
        if (_trace.TRACE_ENABLED or self.l2 is not None
                or self.l1._assoc != 1 or not self.tlb._never_misses):
            return None
        pending = wb._pending
        mask = LOCAL_ADDR_MASK
        loads = _np.asarray(load_addrs, dtype=_np.int64)
        stores = _np.asarray(store_addrs, dtype=_np.int64)
        nloads, nrows = len(loads), len(stores)
        counts = (_np.full(nrows, loads_per_store, dtype=_np.int64)
                  if _np.ndim(loads_per_store) == 0
                  else _np.asarray(loads_per_store, dtype=_np.int64))
        ends = _np.cumsum(counts)
        if (int(ends[-1]) if nrows else 0) != nloads:
            raise ValueError("loads_per_store does not match the loads")
        lines = stores - stores % wb.line_bytes
        ordered = _np.sort(lines)
        if (ordered[1:] == ordered[:-1]).any() or not {
                e.line_addr for e in pending}.isdisjoint(lines.tolist()):
            return None
        load_words = loads & -WORD_BYTES
        canon = load_words & mask
        stored = _np.sort(stores & (mask & -WORD_BYTES))
        if nrows and (stored[_np.searchsorted(stored, canon) % nrows]
                      == canon).any():
            return None
        pending_words = {w for e in pending for w in e.words}
        if pending_words:
            # Each location a load shares with a pending store must be
            # spelled by one full address only: no synonyms.
            hit = _np.isin(canon, [w & mask for w in pending_words])
            full = set(load_words[hit].tolist())
            shared = {w & mask for w in full}
            full.update(w for w in pending_words if w & mask in shared)
            if len(full) != len(shared):
                return None
        hit_cycles = self.params.l1.hit_cycles
        if not (all(on_grid(x) for x in (hit_cycles, *row_charges))
                and (row_extra is None or array_on_grid(row_extra))):
            return None

        hits, l1_commit = _plan_cache(self.l1, loads)
        # The DRAM sees, in program order, each row's L1-missing loads
        # then its store's line.
        load_pos = _np.arange(nloads) + _np.repeat(_np.arange(nrows), counts)
        store_pos = ends + _np.arange(nrows)
        seq = _np.empty(nloads + nrows, dtype=_np.int64)
        seq[load_pos] = loads & mask
        seq[store_pos] = lines & mask
        to_dram = _np.ones(nloads + nrows, dtype=bool)
        to_dram[load_pos[hits]] = False
        planned = self._plan_dram(seq[to_dram])
        if planned is None:
            return None
        dram_costs, dram_commit = planned
        cost = _np.zeros(nloads + nrows)
        cost[to_dram] = dram_costs
        load_cycles = _np.where(hits, hit_cycles, cost[load_pos])
        csum = _np.concatenate(([0.0], _np.cumsum(load_cycles)))
        gaps = csum[ends] - csum[ends - counts] + sum(row_charges)
        if row_extra is not None:
            gaps += row_extra
        head = (BlockingSource(gaps).head(now, nrows, wb.params.issue_cycles)
                if nrows else None)
        if head is None or not wb.settle(
                head[0], cost[store_pos], stores & -WORD_BYTES,
                values.tolist() if isinstance(values, _np.ndarray)
                else list(values)):
            return None
        end = head[2]
        l1_commit()
        dram_commit()
        return BlockPlan(load_cycles, end)

    def plan_read_cycles(self, addrs):
        """:meth:`read_cycles` of each of ``addrs`` (an int64 numpy
        array or a ``range``), batched: the TLB, the L1, the L2 over the
        L1's misses, then the DRAM over the rest.  Returns ``(cycles,
        commit)``, or None for a set-associative cache or a cost off the
        exactness grid; nothing changes until ``commit()`` leaves every
        unit as the per-access loop does."""
        p, l2 = self.params, self.l2
        if (self.l1._assoc != 1 or not on_grid(p.l1.hit_cycles)
                or l2 is not None and (l2._assoc != 1
                                       or not on_grid(p.l2.hit_cycles))):
            return None
        planned = self.tlb.plan_translate(addrs)
        if planned is None:
            return None
        tlb_misses, tlb_commit = planned
        hits, l1_commit = _plan_cache(self.l1, addrs)
        commits = [tlb_commit, l1_commit]
        cycles = _np.where(hits, p.l1.hit_cycles, 0.0)
        # The positions and addresses of the L1's misses.
        reach = _np.flatnonzero(~hits)
        rest = (addrs.start + addrs.step * reach
                if isinstance(addrs, range) else addrs[reach])
        if l2 is not None:
            hits, l2_commit = _plan_cache(l2, rest)
            commits.append(l2_commit)
            cycles[reach[hits]] = p.l2.hit_cycles
            reach, rest = reach[~hits], rest[~hits]
        planned = self._plan_dram(rest)
        if planned is None:
            return None
        commits.append(planned[1])
        cycles[reach] = planned[0]
        if tlb_misses:
            cycles[tlb_misses] += p.tlb.miss_cycles

        def commit():
            for unit_commit in commits:
                unit_commit()

        return cycles, commit

    def plan_reads(self, addrs) -> ReadPlan | None:
        """Time :meth:`read` of each of ``addrs`` (a ``range`` of
        consecutive words, or an int64 numpy array) ahead, for a store
        stream the reads feed (:meth:`WriteBuffer.stream` with a
        flushing :class:`BlockingSource`), or decline with None.

        Each value is the youngest pending write-buffer store to its
        word, else memory: flushing during the stream only moves such a
        value into memory.  The values are a :class:`WordRun` for a
        range, else a list.  The cycles are :meth:`plan_read_cycles`'s.
        Declines while tracing, where that plan declines, for words
        beyond the local offset range, and when a pending store could be
        seen differently over time: a local store to a synonym (an
        Annex-bearing address) of a read word.
        """
        mask = LOCAL_ADDR_MASK
        n = len(addrs)
        ranged = isinstance(addrs, range)
        if _trace.TRACE_ENABLED or not n:
            return None
        lo, hi = ((addrs[0], addrs[-1]) if ranged
                  else (int(addrs.min()), int(addrs.max())))
        if lo < 0 or hi > mask:
            return None
        first = lo - lo % WORD_BYTES
        forward = {}
        for entry in self.write_buffer._pending:      # youngest wins
            for word, value in entry.words.items():
                local = word & mask
                if not first <= local <= hi:
                    continue
                if word == local and entry.apply_words:
                    forward[local] = value
                elif word == local or entry.apply_words:
                    # Forwarded but never committed here, or a synonym
                    # whose retirement changes what the word reads.
                    return None
        planned = self.plan_read_cycles(addrs)
        if planned is None:
            return None
        cycles, commit = planned
        # Memory changes during the stream only where a pending store
        # retires, and the overlay holds its value there already.
        if ranged:
            values = WordRun(self.memory, lo, n, {
                (word - first) // WORD_BYTES: value
                for word, value in forward.items()})
        else:
            values = self.gather(addrs, written=True)
            load = self.memory.load
            values = (values.tolist() if values is not None else [
                forward[a & -WORD_BYTES] if a & -WORD_BYTES in forward
                else load(a) for a in addrs.tolist()])
        return ReadPlan(cycles, values, commit)

    def stream_writes(self, now: float, addrs, values: list, source,
                      isolate=()) -> float | None:
        """:meth:`write_cycles` of ``values[k]`` to ``addrs[k]`` (a
        sequence), each at the clock ``source`` gives; returns the final
        clock, or None (every unit untouched) where that declines or the
        node is outside the direct-mapped, L2-less, never-missing-TLB
        shape.  A stream of at least :data:`_MIN_CLOSED_STORES` stores
        runs in closed form (:meth:`WriteBuffer.stream_closed`) as far
        as that goes; :meth:`WriteBuffer.stream`'s loop issues the rest.
        """
        if not self._fast_read:
            return None
        dram = self.dram
        dp = dram.params
        wb = self.write_buffer
        line_bytes = wb.line_bytes
        mask = LOCAL_ADDR_MASK
        if len(addrs) >= _MIN_CLOSED_STORES:
            closed = wb.stream_closed(now, addrs, values, self._plan_dram,
                                      source)
            if closed is not None:
                done, now, source = closed
                if done == len(addrs):
                    return now
                addrs, values = addrs[done:], values[done:]

        def drain(k):
            return dram.access((addrs[k] - addrs[k] % line_bytes) & mask)

        kinds = (dp.access_cycles, dp.access_cycles + dp.off_page_cycles,
                 dp.access_cycles + dp.off_page_cycles + dp.same_bank_cycles)
        return wb.stream(now, addrs, values, drain, kinds, source,
                         isolate=isolate)

    def _plan_dram(self, addrs):
        """Local DRAM accesses to ``addrs`` (an int64 array), in order:
        :meth:`Dram.plan_access`."""
        dp = self.dram.params
        return self.dram.plan_access(addrs & LOCAL_ADDR_MASK,
                                     dp.off_page_cycles, dp.same_bank_cycles)

    def _commit_run(self, addr: int, values: list) -> None:
        """Commit retired stores to consecutive words from ``addr`` as
        the per-word ``apply`` would: one range write where no address
        carries Annex bits."""
        if 0 <= addr and addr + len(values) * WORD_BYTES <= LOCAL_ADDR_MASK:
            self.memory.store_range(addr, values)
            return
        store = self.memory.store
        for i, value in enumerate(values):
            store((addr + i * WORD_BYTES) & LOCAL_ADDR_MASK, value)

    def _commit_entries(self, word_dicts: list) -> None:
        """Commit retired write-buffer entries, oldest first, as the
        per-word ``apply`` would: merged into one range write when no
        address carries Annex bits (so no two spell one location)."""
        merged = {}
        for words in word_dicts:
            merged.update(words)
        if max(merged) <= LOCAL_ADDR_MASK:
            self.memory.store_words(merged)
            return
        store = self.memory.store
        for words in word_dicts:
            for addr, value in words.items():
                store(addr & LOCAL_ADDR_MASK, value)

    # ------------------------------------------------------------------
    # Hooks for the shell (remote access to / through this node).
    # ------------------------------------------------------------------

    def invalidate_line(self, addr: int) -> float:
        """Flush one line (coherence flush); returns its cost."""
        self.l1.invalidate(addr)
        return self.params.l1.flush_line_cycles

    def flush_all_lines(self) -> float:
        """Whole-cache flush; cheaper than many line flushes."""
        self.l1.flush_all()
        return self.params.l1.flush_all_cycles


def _plan_cache(cache: Cache, addrs):
    """Hit mask of read-allocating accesses to ``addrs`` (an int64
    numpy array or a ``range``) against the direct-mapped ``cache``'s
    current tags; returns ``(hits, commit)``, and nothing changes until
    ``commit()``."""
    lb = cache._line_bytes
    tags = cache._tags
    resident = _np.full(cache._num_sets, -1, dtype=_np.int64)
    resident[_np.fromiter(tags, _np.int64, len(tags))] = _np.fromiter(
        tags.values(), _np.int64, len(tags)) // lb
    before = resident.copy()
    hits = _np.empty(len(addrs), dtype=bool)
    for start, piece in _vk.chunks(addrs):
        hits[start:start + len(piece)] = _vk.direct_mapped_hit_mask(
            piece, lb, cache._num_sets, resident)

    def commit():
        changed = _np.flatnonzero(resident != before)
        tags.update(zip(changed.tolist(), (resident[changed] * lb).tolist()))
        nhits = int(hits.sum())
        cache.hits += nhits
        cache.misses += len(hits) - nhits

    return hits, commit


def t3d_memory_system() -> MemorySystem:
    """A fresh CRAY-T3D node memory system (section 2 configuration)."""
    return MemorySystem(t3d_node_params())


def workstation_memory_system() -> MemorySystem:
    """A fresh DEC Alpha workstation memory system (Figure 1, right)."""
    return MemorySystem(workstation_node_params())
