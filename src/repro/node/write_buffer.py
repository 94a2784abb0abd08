"""Model of the Alpha 21064 write buffer.

The 21064 cache is write-through, so every store heads to memory via a
small write buffer.  The paper's write probes (section 2.3, Figure 2)
observe two behaviours this model reproduces:

* **Write merging** — consecutive stores to the same 32-byte line merge
  into one buffer entry, so dense stores cost only the ~3-cycle issue
  time (~20 ns).
* **Pipelined drain** — with the buffer full, non-merged stores proceed
  at the memory system's pipelined throughput.  The paper infers the
  depth from 145 ns / 35 ns ~= 4 entries: four entries keep four
  accesses in flight, giving an initiation interval of
  ``drain_cost / depth`` per entry.

The buffer also holds the *data* of pending stores, which is what makes
the write-buffer hazards of the paper reproducible:

* a read to the **same word** is forwarded the pending value (entries
  key their words by word-aligned address, so a read anywhere within a
  buffered word observes it — read-your-own-writes holds at word
  granularity, matching the 21064's word-wide forwarding);
* a read to a **synonym** (different physical address, same actual
  location, via a second Annex register — section 3.4) finds no match,
  bypasses the buffer, and reads a stale value from memory; the Annex
  bits live above bit 32, so word alignment never erases them;
* the global/local consistency violation of section 4.5 (a local read
  overtaking a buffered local write as observed by another processor).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as _np

from repro.node.exact import CEILING, array_on_grid, on_grid
from repro.params import WORD_BYTES, WriteBufferParams
from repro.trace import tracer as _trace

__all__ = ["BlockingSource", "PendingWrite", "PrefetchSource", "RemoteTarget",
           "WriteBuffer"]

#: Stores per chunk of :meth:`WriteBuffer.stream`.
_CHUNK = 512
#: Stores classified and committed at a time by
#: :meth:`WriteBuffer.stream_closed`: its numpy temporaries stay a few
#: hundred KB however long the stream.
_CLOSED_CHUNK = 2048
#: Passes of the class fixpoint (:meth:`WriteBuffer._classify`) and of
#: the prefetch clock solve (:meth:`PrefetchSource.head`) before they
#: decline.  Figures 8 and 9 need 1-2 class passes and 2 clock passes;
#: of the random draws in ``tests/node/test_closed_stream.py``, 99% of
#: chunks settle their classes within 8 (the rest take up to 60 and
#: more), as do 95% of clock solves (those whose replies bind advance
#: about one queue depth per pass).
_CLOSED_PASSES = 8


def _retire_times(issued, q, last: float):
    """Retire times of entries made at clocks ``issued`` with drain
    slots ``q`` behind the last retire time ``last``: ``r_i =
    max(c_i, r_{i-1}) + q_i``, unrolled to ``Q_i + max(last, max_{j <=
    i} (c_j - Q_{j-1}))`` with ``Q`` the cumulative sum of ``q``."""
    done = _np.cumsum(q)
    return done + _np.maximum.accumulate(_np.maximum(issued - (done - q),
                                                     last))


def _flush_before(t, flushes):
    """The clock of the last flush before each store's pre-scan, in
    stream order: its read's flush (``flushes``), else the previous
    store's (``-inf`` for the first)."""
    if flushes is not None:
        return flushes
    thr = _np.empty(len(t))
    thr[0] = -_np.inf
    thr[1:] = t[:-1]
    return thr


def _chains(t, order, first, ends, warm_retire):
    """Which stores make entries when each line's entries chain: the
    first of a line's stores (``order`` groups them by line, ``first``
    marks each group's first) at or after its pending entry's retire
    time (``warm_retire``, -inf for none), then from each entry-making
    store ``k`` the first later store of the line at or after
    ``ends[k]`` (``> t_k``).  ``t`` is non-decreasing, so one
    ``searchsorted`` in ``t`` and one in the stores keyed by (line,
    position) find every link; pointer doubling then marks each chain
    in a logarithmic number of steps."""
    m = len(t)
    span = m + 1
    line = _np.cumsum(first) - 1
    keys = line * span + order
    starts = _np.flatnonzero(first)

    def link(groups, at):
        """The first store of each group at or after stream position
        ``at``, as a sorted position (``m`` for none)."""
        j = _np.searchsorted(keys, groups * span + at)
        inside = j < m
        inside[inside] = keys[j[inside]] // span == groups[inside]
        return _np.where(inside, j, m)

    step = _np.empty(span, dtype=_np.int64)
    step[:m] = link(line, _np.searchsorted(t, ends)[order])
    step[m] = m
    on = _np.zeros(span, dtype=bool)
    on[m] = True
    on[link(line[starts], _np.searchsorted(t, warm_retire[starts]))] = True
    while True:
        reached = step[on]
        if on[reached].all():
            break
        on[reached] = True
        step = step[step]
    make = _np.empty(m, dtype=bool)
    make[order] = on[:m]
    return make


class BlockingSource(NamedTuple):
    """Clock input of a store stream whose values come from blocking
    reads: the read of word ``k`` issues ``lead`` cycles after store
    ``k - 1`` (at the stream's start clock for ``k = 0``), and store
    ``k`` issues ``gaps[k]`` cycles after that read."""

    #: float64 numpy array, one gap per store.
    gaps: object
    lead: float = 0.0
    #: The read is a local load, which flushes retired entries when it
    #: issues (:meth:`MemorySystem.read` forwarding check).
    flush: bool = False

    def head(self, now: float, m: int, issue: float):
        """The clocks of the first ``m`` stores from ``now`` when none
        stalls (a merge then costs ``issue``, as a new entry does):
        ``(t, flushes, end, rest)``, with ``t[k] = now + gaps[0] + ... +
        gaps[k] + k * (issue + lead)``, the clocks of the reads' flushes
        (``t - gaps``, or None), the clock after store ``m - 1``, and
        the source of the stores after it.  None off the exactness
        envelope (:mod:`repro.node.exact`) or for a negative charge."""
        gaps = self.gaps[:m]
        step = issue + self.lead
        if not (on_grid(now) and on_grid(issue) and on_grid(self.lead)
                and issue >= 0 and self.lead >= 0 and array_on_grid(gaps)
                and gaps.min() >= 0
                and abs(now) + float(gaps.sum()) + m * step < CEILING):
            return None
        t = now + _np.cumsum(gaps) + step * _np.arange(m)
        return (t, t - gaps if self.flush else None, float(t[-1]) + step,
                self._replace(gaps=self.gaps[m:]))


class PrefetchSource(NamedTuple):
    """Clock input of a store stream fed by the prefetch FIFO: store
    ``k`` issues ``pop_cycles`` after read ``k``'s reply (or after the
    previous store's loop overhead, if later), and ``loop_cycles`` after
    it the next reads issue.

    Reads issue ``group`` at a time: with ``group`` 1, read ``k + D``
    issues after store ``k`` (a queue kept full, as the pipelined bulk
    read does); with ``group`` ``D``, reads ``k + 1 .. k + D`` issue
    after every ``D``-th store ``k`` (drain the queue, then refill it,
    as Split-C's gets do).  Each issue costs ``issue_cycles`` after the
    read leaves and, in groups of more than one, ``pre_issue[j]`` cycles
    before it (an Annex set-up).
    """

    #: Reply times of the ``D`` reads issued before the first pop.
    ready: list
    #: float64 numpy array: for every read of the stream, the cycles
    #: from its issue to its reply (the first ``D`` are in ``ready``).
    latency: object
    pop_cycles: float
    loop_cycles: float
    issue_cycles: float
    group: int = 1
    #: float64 numpy array, one charge per read (``group`` > 1 only);
    #: None charges nothing.
    pre_issue: object = None

    def head(self, now: float, m: int, issue: float):
        """:meth:`BlockingSource.head` for a queue kept full (group 1):
        with ``a_k = issue + loop + pop`` plus ``fetch`` where read
        ``k + D`` issues, store ``k`` issues at ``t_k = max(t_{k-1} +
        a_{k-1}, R_k + pop)`` (``t_0 = max(now, R_0) + pop``), where
        read ``k``'s reply ``R_k`` is ``ready[k]`` for ``k < D`` and
        ``t_{k-D} + issue + loop + latency[k]`` after.  Given ``R``, one
        running maximum solves the lag-1 chain; passes repeat from ``R
        = -inf`` until ``R`` repeats, the unique solution since ``R_k``
        depends on earlier clocks only.  None for other groups, off the
        exactness envelope, or with no fixpoint in
        :data:`_CLOSED_PASSES` passes."""
        lat = self.latency
        n = len(lat)
        depth = len(self.ready)
        if self.group != 1 or self.pre_issue is not None or not depth:
            return None
        span = min(m + depth, n)
        pop, loop, fetch = self.pop_cycles, self.loop_cycles, self.issue_cycles
        after = issue + loop
        charges = (now, issue, pop, loop, fetch)
        window = lat[depth:span]
        first = _np.array(self.ready[:m])
        if (not all(on_grid(x) for x in charges)
                or min(charges[1:]) < 0 or not array_on_grid(first)
                or not array_on_grid(window)
                or (len(window) and window.min() < 0)
                or max(abs(now), abs(first).max()) + float(window.sum())
                + (m + 1) * sum(charges[1:]) >= CEILING):
            return None
        a = _np.full(m, after + pop + fetch)
        a[max(0, n - depth):] = after + pop
        before = _np.cumsum(a) - a
        reply = _np.full(m, -_np.inf)
        reply[:len(first)] = first
        start = max(now, first[0]) + pop
        for _ in range(_CLOSED_PASSES):
            b = reply + pop - before
            b[0] = start
            t = before + _np.maximum.accumulate(b)
            later = t[:max(0, m - depth)] + after + lat[depth:m]
            if (later == reply[depth:]).all():
                break
            reply[depth:] = later
        else:
            return None
        ready = [*self.ready[m:], *(t[max(0, m - depth):span - depth] + after
                                    + lat[max(m, depth):span]).tolist()]
        end = float(t[-1]) + after + (fetch if m - 1 + depth < n else 0.0)
        return t, None, end, self._replace(ready=ready, latency=lat[m:])


class RemoteTarget(NamedTuple):
    """The target of a run of remote stores that
    :meth:`WriteBuffer.stream_closed` solves: what the entries carry, as
    :meth:`RemoteAccessUnit.store` makes them, and the target's batch
    operations."""

    #: ``on_retire`` and ``meta`` of every entry.
    on_retire: object
    meta: object
    #: ``peek(lines, counts, queries)``: the drain of a new entry for
    #: each line of ``queries``, from the target's DRAM rows as the
    #: accesses of the first ``counts[k]`` of the entries for ``lines``
    #: (pending ones first, int64 arrays) leave them.
    peek: object
    #: ``retire_run(meta, times, lines, nbytes, blocks)``: ``on_retire``
    #: of a run of entries, in order, from their retire times, lines
    #: and byte counts (numpy arrays) and their words (``blocks``, in
    #: entry order: word dicts and ``(addr, values)`` runs of
    #: consecutive words).
    retire_run: object


class PendingWrite:
    """One write-buffer entry: a line with the words merged into it.

    ``apply_words``: when False the entry's words are not committed
    through the buffer's ``apply`` on retirement — used for remote
    stores, whose retirement hands the packet to the shell instead.
    ``on_retire``: called as ``on_retire(entry)`` when the entry
    drains; remote stores use this to inject their packet with the
    retire timestamp.
    ``meta``: opaque payload for the callback.  Remote stores carry
    ``(flight_cycles, source_unit)`` here, which lets one retirement
    callback per *target* node serve every sender (the per-pair part
    of the packet travels with the entry instead of being closed
    over).
    """

    __slots__ = ("line_addr", "enqueue_time", "retire_time", "words",
                 "apply_words", "on_retire", "meta")

    def __init__(self, line_addr: int, enqueue_time: float,
                 retire_time: float, words: dict | None = None,
                 apply_words: bool = True, on_retire=None, meta=None):
        self.line_addr = line_addr
        self.enqueue_time = enqueue_time
        self.retire_time = retire_time
        self.words = {} if words is None else words
        self.apply_words = apply_words
        self.meta = meta
        self.on_retire = on_retire


class WriteBuffer:
    """Write buffer with merging, bounded occupancy, and timed drain.

    The owner supplies an ``apply`` callable invoked as
    ``apply(word_addr, value)`` when an entry retires; for the local
    memory system this commits the value to backing memory.  Values stay
    invisible to memory until retirement — that delay *is* the hazard
    window the paper describes.
    """

    def __init__(self, params: WriteBufferParams, apply=None,
                 line_bytes: int = 32, apply_entries=None, apply_run=None):
        self.params = params
        self.line_bytes = line_bytes
        self._issue_cycles = params.issue_cycles
        self._merging = params.merging
        self._capacity = params.entries
        self._apply = apply or (lambda addr, value: None)
        #: Optional batch committer for :meth:`stream`: called with the
        #: words dicts of retired entries, oldest first; must leave
        #: memory as ``apply`` word by word in that order would.
        self._apply_entries = apply_entries
        #: Optional range committer for :meth:`settle`: called as
        #: ``apply_run(addr, values)`` for retired stores to consecutive
        #: words from ``addr``; must leave memory as ``apply`` would.
        self._apply_run = apply_run
        self._pending: list[PendingWrite] = []
        self._last_retire: float = 0.0
        self.merged_writes = 0
        self.drained_entries = 0
        #: Processor identity for trace attribution; set by the owning
        #: Node (a bare memory system has none).
        self.owner_pe: int | None = None
        #: Dirty-buffer registry shared with the owning Machine (an
        #: insertion-ordered dict used as a set): see :meth:`mark_dirty`.
        #: A bare memory system (no machine) leaves this None.
        self.settle_queue: dict | None = None
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("write_buffer", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals.

        Only counters every code path maintains are reported:
        :meth:`stream` and :meth:`settle` add entries without
        :meth:`push`, so a per-push counter here would undercount them.
        """
        return {"merged_writes": self.merged_writes,
                "drained_entries": self.drained_entries,
                "pending": len(self._pending)}

    def mark_dirty(self) -> None:
        """Register with the settle queue; called on each empty to
        non-empty transition of the pending list, so
        ``Machine.settle`` only visits buffers with pending entries.
        Registering again moves the buffer to the end: ``settle``
        drains the latest registration first."""
        queue = self.settle_queue
        if queue is not None:
            queue.pop(self, None)
            queue[self] = None

    def reset(self) -> None:
        self._pending.clear()
        self._last_retire = 0.0
        self.merged_writes = 0
        self.drained_entries = 0

    def occupancy(self, now: float) -> int:
        """Entries still in flight at time ``now``."""
        self.flush_retired(now)
        return len(self._pending)

    def flush_retired(self, now: float) -> None:
        """Commit every entry whose drain completed by ``now``.

        Entries are appended with non-decreasing retire times (the
        pipelined drain schedules each new entry behind
        ``_last_retire``), so the retired entries always form a prefix
        of the pending list: one head check rejects the common
        nothing-retired case, and commits peel the prefix in the same
        (FIFO) order the full scan used to visit them.
        """
        pending = self._pending
        if not pending or pending[0].retire_time > now:
            return
        apply = self._apply
        drained = 0
        for entry in pending:
            if entry.retire_time > now:
                break
            if entry.apply_words:
                for addr, value in entry.words.items():
                    apply(addr, value)
            if entry.on_retire is not None:
                entry.on_retire(entry)
            drained += 1
        self.drained_entries += drained
        if _trace.TRACE_ENABLED and drained:
            _trace.emit("wb_drain", t=now, pe=self.owner_pe, count=drained)
        # In place, so callers holding a reference to the list stay
        # coherent across a flush.
        del pending[:drained]

    def push(self, now: float, addr: int, value, drain_cost: float,
             apply_words: bool = True, on_retire=None,
             meta=None) -> float:
        """Issue a store at time ``now``; return the CPU cycles charged.

        ``drain_cost`` is the full drain time for this line's entry:
        the DRAM access for local stores, the chip-boundary handoff +
        packet injection for remote ones.  Merging stores ride an
        existing entry for free; otherwise the entry's retirement is
        scheduled behind earlier entries at the pipelined initiation
        interval (``drain_cost / depth``), and the CPU stalls only if
        all ``params.entries`` slots are occupied.
        """
        pending = self._pending
        if pending and pending[0].retire_time <= now:
            self.flush_retired(now)
        cycles = self._issue_cycles
        line = addr - (addr % self.line_bytes)
        word = addr - (addr % WORD_BYTES)

        if self._merging:
            for entry in self._pending:
                if entry.line_addr == line:
                    entry.words[word] = value
                    self.merged_writes += 1
                    if _trace.TRACE_ENABLED:
                        _trace.emit("wb_merge", t=now, pe=self.owner_pe,
                                    line=line)
                    return cycles

        stall = 0.0
        if len(self._pending) >= self._capacity:
            # Stall until the oldest entry retires and commits (the
            # pending list is retire-time ordered; see flush_retired).
            stall = max(0.0, self._pending[0].retire_time - now)
            self.flush_retired(now + stall)

        start = now + stall
        interval = drain_cost / self._capacity
        retire = max(start, self._last_retire) + interval
        self._last_retire = retire
        self._pending.append(
            PendingWrite(line_addr=line, enqueue_time=start, retire_time=retire,
                         words={word: value}, apply_words=apply_words,
                         on_retire=on_retire, meta=meta)
        )
        if len(self._pending) == 1:
            self.mark_dirty()
        if _trace.TRACE_ENABLED:
            _trace.emit("wb_push", t=now, pe=self.owner_pe, line=line,
                        stall=stall, retire=retire)
        return cycles + stall

    def push_new(self, now: float, addr: int, value,
                 drain_cost: float) -> float:
        """:meth:`push` for a store the caller has already determined
        cannot merge (it scanned the pending entries and found no entry
        for this store's line).  Identical except the merging re-scan
        is skipped: the flush below only *removes* entries, so the
        re-scan could never match."""
        pending = self._pending
        if pending and pending[0].retire_time <= now:
            self.flush_retired(now)
        cycles = self._issue_cycles
        line = addr - (addr % self.line_bytes)
        word = addr - (addr % WORD_BYTES)

        stall = 0.0
        if len(self._pending) >= self._capacity:
            stall = max(0.0, self._pending[0].retire_time - now)
            self.flush_retired(now + stall)

        start = now + stall
        interval = drain_cost / self._capacity
        retire = max(start, self._last_retire) + interval
        self._last_retire = retire
        self._pending.append(
            PendingWrite(line_addr=line, enqueue_time=start,
                         retire_time=retire, words={word: value})
        )
        if len(self._pending) == 1:
            self.mark_dirty()
        if _trace.TRACE_ENABLED:
            _trace.emit("wb_push", t=now, pe=self.owner_pe, line=line,
                        stall=stall, retire=retire)
        return cycles + stall

    def settle(self, t, drains, words, values, make=None, into=None,
               remote=None) -> bool:
        """Issue store ``k`` of a run at clock ``t[k]``, none stalling,
        in one closed form; False, with nothing changed, where a store
        would stall or off the exactness envelope.

        ``t`` comes from a source's ``head`` (non-decreasing, on the
        grid), ``words`` is an int64 array of word addresses and
        ``values`` a list.  ``make[k]`` says whether store ``k`` makes
        an entry (None: every store does), the entries draining
        ``drains`` (one each, in order); ``into[k]`` is the entry store
        ``k``'s word lands in: a pending entry's index, or the pending
        count plus the rank of an entry the run makes (None: its own).

        Entries retire as :func:`_retire_times` gives, with ``q =
        drains / depth``.  Retire times never decrease, so
        one ``searchsorted`` counts the entries each entry-making store
        finds in flight after its flush.  The last flush is the last
        store's, ahead of any entry it makes: the entries retired by
        then commit, pending ones first, the run's stores as one range
        write where they are consecutive words; the rest stay pending.
        With ``remote`` (a :class:`RemoteTarget`) the stores are remote:
        the retired entries run the target's ``retire_run`` instead, and
        the others carry its ``on_retire`` and ``meta``.  Declines while
        tracing, if a pending entry is not a plain local store (with
        ``remote``: not one of its entries) or pending retire times are
        out of order, and off the grid (:mod:`repro.node.exact`).
        """
        pending = self._pending
        last = self._last_retire
        warm = [e.retire_time for e in pending]
        nwarm = len(warm)
        q = drains / self._capacity
        te = t if make is None else t[make]
        if remote is None:
            foreign = any(e.on_retire is not None or not e.apply_words
                          for e in pending)
        else:
            foreign = any(e.apply_words or e.on_retire is not remote.on_retire
                          or e.meta is not remote.meta for e in pending)
        if (_trace.TRACE_ENABLED or warm != sorted(warm)
                or (warm and last < warm[-1]) or foreign
                or not all(on_grid(x) for x in (last, *warm))
                or not array_on_grid(q) or (len(q) and q.min() < 0)
                or max(float(t[-1]), last) + float(q.sum()) >= CEILING):
            return False
        retire = _retire_times(te, q, last)
        order = _np.concatenate((warm, retire))
        ahead = nwarm + _np.arange(len(te))
        in_flight = ahead - _np.minimum(
            _np.searchsorted(order, te, side="right"), ahead)
        if (in_flight >= self._capacity).any():
            return False
        n = len(t)
        made = len(te) - (make is None or bool(make[-1]))
        gone = min(int(_np.searchsorted(order, t[-1], side="right")),
                   nwarm + made)
        if make is not None:
            for k in _np.flatnonzero(into < nwarm).tolist():
                pending[into[k]].words[int(words[k])] = values[k]
        retired = pending[:gone]
        del pending[:gone]
        keep = max(gone, nwarm)
        lb = self.line_bytes
        lo = keep - nwarm
        # The run's stores in retired entries: a prefix when each store
        # makes its own entry.
        if into is None:
            sel, first, stop = None, 0, lo
        else:
            sel = _np.flatnonzero((into >= nwarm) & (into < keep))
            first, stop = ((int(sel[0]), int(sel[-1]) + 1) if len(sel)
                           else (0, 0))
        block = None
        if stop > first:
            if ((sel is None or stop - first == len(sel))
                    and words[stop - 1] - words[first]
                    == WORD_BYTES * (stop - first - 1)
                    and (_np.diff(words[first:stop]) == WORD_BYTES).all()):
                block = (int(words[first]), values[first:stop])
            elif sel is None:
                block = dict(zip(words[first:stop].tolist(),
                                 values[first:stop]))
            else:
                block = dict(zip(words[sel].tolist(),
                                 map(values.__getitem__, sel.tolist())))
        made = words if make is None else words[make]
        if remote is None:
            self._commit([e.words for e in retired])
            if type(block) is tuple:
                self._commit_run(*block)
            elif block is not None:
                self._commit([block])
            extra = ()
        else:
            if retired or lo:
                if sel is None:
                    nwords = _np.ones(lo, dtype=_np.int64)
                elif type(block) is tuple:
                    # Consecutive words: each store's word is its own.
                    nwords = _np.bincount(into[sel] - nwarm, minlength=lo)
                else:
                    # Distinct words per entry: a store's word within its
                    # line, keyed by the entry it lands in.
                    per_line = lb // WORD_BYTES
                    key = ((into[sel] - nwarm) * per_line
                           + words[sel] % lb // WORD_BYTES)
                    nwords = _np.bincount(_np.unique(key) // per_line,
                                          minlength=lo)
                remote.retire_run(
                    remote.meta,
                    _np.concatenate((_np.array(
                        [e.retire_time for e in retired], dtype=float),
                        retire[:lo])),
                    _np.concatenate((_np.array(
                        [e.line_addr for e in retired], dtype=_np.int64),
                        made[:lo] - made[:lo] % lb)),
                    WORD_BYTES * _np.concatenate((_np.array(
                        [len(e.words) for e in retired], dtype=_np.int64),
                        nwords)),
                    [e.words for e in retired]
                    + ([] if block is None else [block]))
            extra = (False, remote.on_retire, remote.meta)
        if make is None:
            pending.extend(
                PendingWrite(w - w % lb, c, r, {w: v}, *extra)
                for w, c, r, v in zip(
                    words[lo:].tolist(), t[lo:].tolist(),
                    retire[lo:].tolist(), values[lo:]))
        else:
            fresh = [PendingWrite(w - w % lb, c, r, {}, *extra)
                     for w, c, r in zip(made[lo:].tolist(),
                                        t[make][lo:].tolist(),
                                        retire[lo:].tolist())]
            for k in _np.flatnonzero(into >= keep).tolist():
                fresh[into[k] - keep].words[int(words[k])] = values[k]
            pending.extend(fresh)
        self.drained_entries += gone
        self.merged_writes += n - len(te)
        if len(te):
            self._last_retire = float(retire[-1])
            if not in_flight.all():
                self.mark_dirty()
        return True

    def stream_closed(self, now: float, addrs, values, plan_drains,
                      source):
        """:meth:`stream`, solved in numpy passes a chunk of
        :data:`_CLOSED_CHUNK` stores at a time.  Returns ``(done, clock,
        rest)``: the stores issued, the clock after them, and the source
        of the remaining ones, which :meth:`stream` issues from that
        clock; or None, with nothing changed.  For local stores,
        ``plan_drains(lines)`` times the drains of new entries for
        ``lines`` (an int64 array), in order, as ``(costs, commit)``
        (:meth:`Dram.plan_access`) or None; for remote stores to one
        target it is that target's :class:`RemoteTarget`.

        Per chunk: the source's ``head`` gives the store clocks, which
        do not depend on the classes while nothing stalls;
        :meth:`_classify` classifies every store; :meth:`settle` times
        and commits the entries; then the drain plan commits.  A chunk's
        first store sees the state the previous chunk left, so chunking
        is exact.  Declines while tracing, without merging, or with two
        pending entries for one line; a chunk that declines after the
        first ends the run there.
        """
        pending = self._pending
        if (_trace.TRACE_ENABLED or not self._merging
                or len({e.line_addr for e in pending}) != len(pending)):
            return None
        remote = plan_drains if isinstance(plan_drains, RemoteTarget) else None
        n = len(addrs)
        lb = self.line_bytes
        clock = now
        for c0 in range(0, n, _CLOSED_CHUNK):
            c1 = min(n, c0 + _CLOSED_CHUNK)
            head = source.head(clock, c1 - c0, self._issue_cycles)
            if head is None:
                break
            t, flushes, end, rest = head
            part = addrs[c0:c1]
            words = (_np.arange(part.start, part.stop, part.step)
                     if isinstance(part, range)
                     else _np.array(part, dtype=_np.int64))
            words -= words % WORD_BYTES
            classes = self._classify(t, flushes, words - words % lb,
                                     plan_drains)
            if classes is None:
                break
            make, into, drains, commit = classes
            if not self.settle(t, drains, words, values[c0:c1], make, into,
                               remote):
                break
            if remote is None:
                commit()
            clock, source = end, rest
        else:
            return n, clock, source
        return (c0, clock, source) if c0 else None

    def _classify(self, t, flushes, lines, plan_drains):
        """The classes of a chunk's stores (:meth:`stream_closed`):
        ``(make, into, drains, commit)`` for :meth:`settle` and the
        drain plan (None for remote stores), or None.

        With ``p`` the youngest earlier entry for store ``k``'s line (a
        pending one, or one an earlier store made), store ``k`` is a
        merge if ``r(p) > t_k``; a zero-drain entry if ``r(p) >
        thr_k``, the last flush before its pre-scan (its read's flush,
        else store ``k - 1``'s; nothing flushes an entry store ``k - 1``
        made before a read that does not flush); otherwise an entry
        that drains through the DRAM, in stream order.  A class depends
        on earlier retire times only, so the system is causal and has
        one fixpoint, which any start reaches: passes run until the
        classes repeat, or decline after :data:`_CLOSED_PASSES`.
        Remote stores take :meth:`_classify_remote`.
        """
        if isinstance(plan_drains, RemoteTarget):
            return self._classify_remote(t, flushes, lines, plan_drains)
        m = len(t)
        last = self._last_retire
        cap = self._capacity
        pos = _np.arange(m)
        order, first, group, warm_index, warm_retire = self._lines(lines)
        ts = t[order]
        thr = _flush_before(t, flushes)[order]
        after = order - 1
        # Any start reaches the one fixpoint; this one (a DRAM entry per
        # line the chunk opens, zero-drain entries after it) is the
        # answer for stores slower than their entries' drains.
        make = _np.ones(m, dtype=bool)
        dram = _np.empty(m, dtype=bool)
        dram[order] = first & (warm_index < 0)
        prev = _np.empty(m, dtype=_np.int64)
        prev[0] = -1
        for _ in range(_CLOSED_PASSES):
            planned = plan_drains(lines[dram])
            if planned is None:
                return None
            costs, commit = planned
            drains = _np.zeros(m)
            drains[dram] = costs
            drains = drains[make]
            retire = _np.empty(m)
            retire[make] = _retire_times(t[make], drains / cap, last)
            prev[1:] = _np.maximum.accumulate(
                _np.where(make[order], pos, -1))[:-1]
            chained = prev >= group
            p = order[prev]
            seen = _np.where(chained, retire[p], warm_retire)
            new_make = _np.empty(m, dtype=bool)
            new_make[order] = seen <= ts
            new_dram = _np.empty(m, dtype=bool)
            new_dram[order] = seen <= (
                thr if flushes is not None
                else _np.where(chained & (p == after), -_np.inf, thr))
            if (new_make == make).all() and (new_dram == dram).all():
                break
            make, dram = new_make, new_dram
        else:
            return None
        return make, self._into(make, order, chained, p, warm_index), \
            drains, commit

    def _classify_remote(self, t, flushes, lines, remote):
        """:meth:`_classify` for remote stores to one target
        (:class:`RemoteTarget`).  There is no zero-drain class: store
        ``k`` merges if ``r(p) > t_k``, and otherwise makes an entry
        whose drain peeks the target's DRAM rows as of ``thr_k``, that
        is, as the accesses of the entries retired by then (one
        ``searchsorted`` of ``thr_k`` in the retire times) leave them.
        Drains are positive, so those entries are earlier ones and the
        system is causal too.

        Each pass takes the retire times and drains of the last one and
        redoes every line exactly: a store that made an entry there
        would retire at ``max(t_k, r) + q_k``, ``r`` the retire time of
        the last entry made before it, so a line's entries are a chain
        from its pending entry (or its first store) through the first
        store at or after each entry's retire time (:func:`_chains`).
        At a fixpoint every entry is one the last pass made, so the
        rule is the loop's.  Passes start from an entry for each line
        the chunk opens and run until entries and their drains repeat.
        """
        m = len(t)
        last = self._last_retire
        cap = self._capacity
        order, first, group, warm_index, warm_retire = self._lines(lines)
        thr = _flush_before(t, flushes)
        pending = self._pending
        warm_lines = _np.array([e.line_addr for e in pending],
                               dtype=_np.int64)
        warm_times = _np.array([e.retire_time for e in pending])
        make = _np.empty(m, dtype=bool)
        make[order] = first & (warm_retire <= t[order])
        ahead = _np.cumsum(make) - make
        drains = remote.peek(_np.concatenate((warm_lines, lines[make])),
                             len(pending) + ahead, lines)
        for _ in range(_CLOSED_PASSES):
            retire = _np.full(m, -_np.inf)
            retire[make] = _retire_times(t[make], drains[make] / cap, last)
            before = _np.maximum.accumulate(
                _np.concatenate(([last], retire[:-1])))
            new_make = _chains(t, order, first,
                               _np.maximum(t, before) + drains / cap,
                               warm_retire)
            counts = _np.searchsorted(
                _np.concatenate((warm_times, retire[make])), thr,
                side="right")
            new_drains = remote.peek(
                _np.concatenate((warm_lines, lines[make])), counts, lines)
            if ((new_make == make).all()
                    and (new_drains[make] == drains[make]).all()):
                break
            make, drains = new_make, new_drains
        else:
            return None
        prev = _np.empty(m, dtype=_np.int64)
        prev[0] = -1
        prev[1:] = _np.maximum.accumulate(
            _np.where(make[order], _np.arange(m), -1))[:-1]
        chained = prev >= group
        return make, self._into(make, order, chained, order[prev],
                                warm_index), drains[make], None

    def _lines(self, lines):
        """A chunk's stores grouped by line: the stable order that sorts
        ``lines``, whether each sorted store is its line's first, the
        sorted position of its line's first store, and the index and
        retire time of the pending entry for its line (-1 and -inf if
        none), in sorted order."""
        m = len(lines)
        order = _np.argsort(lines, kind="stable")
        sorted_lines = lines[order]
        first = _np.empty(m, dtype=bool)
        first[0] = True
        first[1:] = sorted_lines[1:] != sorted_lines[:-1]
        group = _np.maximum.accumulate(_np.where(first, _np.arange(m), 0))
        warm_index = _np.full(m, -1)
        warm_retire = _np.full(m, -_np.inf)
        for i, e in enumerate(self._pending):
            hit = sorted_lines == e.line_addr
            warm_index[hit] = i
            warm_retire[hit] = e.retire_time
        return order, first, group, warm_index, warm_retire

    def _into(self, make, order, chained, p, warm_index):
        """The entry each store's word lands in (:meth:`settle`'s
        ``into``), from the classes and each store's youngest earlier
        entry for its line."""
        rank = _np.cumsum(make) - 1 + len(self._pending)
        into = _np.empty(len(make), dtype=_np.int64)
        into[order] = _np.where(chained, rank[p], warm_index)
        into[make] = rank[make]
        return into

    def find_word(self, now: float, addr: int):
        """Forwarding check: return ``(True, value)`` for the youngest
        pending store to the word holding ``addr``, else ``(False, None)``.

        The match is word-granular but on the *full* address: a synonym
        address (same location, different Annex bits above bit 32) is
        *not* found, reproducing the stale-read hazard of section 3.4.
        """
        self.flush_retired(now)
        word = addr - (addr % WORD_BYTES)
        for entry in reversed(self._pending):
            if word in entry.words:
                return True, entry.words[word]
        return False, None

    def drain_all(self, now: float) -> float:
        """Memory-barrier semantics: return the time at which every
        pending entry has retired (and commit them)."""
        pending = self._pending
        done = max(now, pending[-1].retire_time) if pending else now
        self.flush_retired(done)
        return done

    def stream(self, now: float, addrs: list, values: list, drain,
               drain_kinds, source, remote=None, isolate=()):
        """Issue a run of stores in one scalar loop; return the clock
        after the last one, or None (every unit untouched).

        Store ``k`` writes ``values[k]`` at ``addrs[k]`` (sequences the
        loop slices a chunk at a time) at the clock
        ``source`` (:class:`BlockingSource` or :class:`PrefetchSource`)
        gives it.  The result is bit-identical to issuing the stores one
        by one through :meth:`MemorySystem.write_cycles` (``remote`` is
        None) or :meth:`RemoteAccessUnit.store` (``remote[k]`` is the
        ``(on_retire, meta)`` of store ``k``'s target):

        * a local store pre-scans the pending entries, retired but
          unflushed ones included, *before* its flush: with no entry for
          its line it calls ``drain(k)`` (the DRAM access), and a match
          on an entry that its flush then retires becomes a zero-drain
          entry;
        * a remote store calls ``drain(k)`` (the pure drain peek) before
          its flush, and merges only into an entry the flush leaves;
        * a local source read flushes when it issues; the retired
          entries of remote stores run their ``on_retire`` at each flush
          point, local ones are committed to memory in batches (nothing
          in the stream reads the memory they write).

        ``drain_kinds`` lists every value ``drain`` can return.  Declines
        when tracing is on, the depth is not a power of two, a pending
        entry's ``on_retire`` is in ``isolate`` (its target's state was
        read ahead by the caller), pending retire times are out of
        order or share a line, or a time or cycle value leaves the
        exactness envelope (:mod:`repro.node.exact`).
        """
        pending = self._pending
        cap = self._capacity
        merging = self._merging
        issue = self._issue_cycles
        if _trace.TRACE_ENABLED or cap & (cap - 1):
            return None
        last = self._last_retire
        e_line = [e.line_addr for e in pending]
        e_retire = [e.retire_time for e in pending]
        open_line = dict(zip(e_line, range(len(e_line)))) if merging else {}
        if (e_retire != sorted(e_retire) or (pending and last < e_retire[-1])
                or (merging and len(open_line) != len(e_line))
                or any(e.on_retire is not None and e.on_retire in isolate
                       for e in pending)):
            return None
        n = len(addrs)
        kinds = (*drain_kinds, 0.0)
        prefetch = isinstance(source, PrefetchSource)
        if prefetch:
            cycles = source.latency
            pre = source.pre_issue
            times = [now, last, *e_retire, *source.ready]
            per_store = (source.pop_cycles + source.loop_cycles
                         + source.issue_cycles)
            charges = [source.pop_cycles, source.loop_cycles,
                       source.issue_cycles]
            if not 1 <= source.group <= len(source.ready):
                return None
            if pre is not None:
                if (source.group == 1 or not array_on_grid(pre)
                        or pre.min() < 0):
                    return None
                per_store += float(pre.max())
        else:
            cycles = source.gaps
            times = [now, last, *e_retire]
            per_store = source.lead
            charges = [source.lead]
        if not (all(on_grid(x) for x in (
                *times, *charges, issue, *kinds, *(d / cap for d in kinds)))
                and array_on_grid(cycles)
                and max(times) + float(cycles.sum())
                + n * (per_store + issue + max(kinds) / cap) < CEILING):
            return None

        lb = self.line_bytes
        wbytes = WORD_BYTES
        e_start: list = [None] * len(pending)
        e_words = [e.words for e in pending]
        e_obj: list = list(pending)
        retired: list = []
        local = remote is None

        def flush(h, t):
            count = len(e_retire)
            while h < count and e_retire[h] <= t:
                obj = e_obj[h]
                if obj is None:
                    retired.append(e_words[h])
                else:
                    if obj.apply_words:
                        retired.append(obj.words)
                    if obj.on_retire is not None:
                        obj.on_retire(obj)
                if merging:
                    del open_line[e_line[h]]
                h += 1
            return h

        if prefetch:
            ready = deque(source.ready)
            depth = len(ready)
            group = source.group
            pop, loop, fetch = charges
            if group > 1:
                refill = cycles.tolist()
                pre = [0.0] * n if pre is None else pre.tolist()
        else:
            lead = source.lead
            read_flush = source.flush
            depth = 0
        h = 0
        drained = 0
        merged = 0
        emptied = False
        clock = now
        # Chunked, so the per-store lists stay short: retired entries
        # are dropped (and their words committed) between chunks.
        for c0 in range(0, n, _CHUNK):
            c1 = min(n, c0 + _CHUNK)
            if h:
                for column in (e_line, e_retire, e_start, e_words, e_obj):
                    del column[:h]
                for line in open_line:
                    open_line[line] -= h
                drained += h
                h = 0
                self._commit(retired)
                retired.clear()
            chunk = cycles[c0 + depth:c1 + depth].tolist()
            chunk_values = values[c0:c1]
            for k in range(c0, c1):
                if prefetch:
                    r = ready.popleft()
                    if r > clock:
                        clock = r
                    clock += pop
                else:
                    if (read_flush and h < len(e_retire)
                            and e_retire[h] <= clock):
                        h = flush(h, clock)
                    clock += chunk[k - c0]
                a = addrs[k]
                line = a - a % lb
                j = open_line.get(line)
                if j is not None and e_retire[j] > clock:
                    if e_retire[h] <= clock:
                        h = flush(h, clock)
                    e_words[j][a - a % wbytes] = chunk_values[k - c0]
                    merged += 1
                    clock += issue
                else:
                    d = 0.0 if local and j is not None else drain(k)
                    count = len(e_retire)
                    if h < count and e_retire[h] <= clock:
                        h = flush(h, clock)
                    stall = 0.0
                    if count - h >= cap:
                        stall = e_retire[h] - clock
                        if stall < 0.0:
                            stall = 0.0
                        h = flush(h, clock + stall)
                    start = clock + stall
                    r = (start if start > last else last) + d / cap
                    last = r
                    words = {a - a % wbytes: chunk_values[k - c0]}
                    e_obj.append(None if local else PendingWrite(
                        line, start, r, words, False, *remote[k]))
                    e_line.append(line)
                    e_retire.append(r)
                    e_start.append(start)
                    e_words.append(words)
                    if merging:
                        open_line[line] = count
                    emptied = emptied or count == h
                    clock += issue + stall
                if prefetch:
                    clock += loop
                    if group == 1:
                        if k + depth < n:
                            ready.append(clock + chunk[k - c0])
                            clock += fetch
                    elif (k + 1) % group == 0:
                        for j in range(k + 1 + depth - group,
                                       min(n, k + 1 + depth)):
                            clock += pre[j]
                            ready.append(clock + refill[j])
                            clock += fetch
                else:
                    clock += lead

        pending[:] = [
            e_obj[i] if e_obj[i] is not None else PendingWrite(
                e_line[i], e_start[i], e_retire[i], e_words[i])
            for i in range(h, len(e_retire))]
        self._last_retire = last
        self.merged_writes += merged
        self.drained_entries += drained + h
        self._commit(retired)
        if emptied:
            # One registration for every store that found the buffer
            # empty: nothing else in the stream touches the settle
            # queue, so it ends in the same order.
            self.mark_dirty()
        return clock

    def _commit_run(self, addr: int, values: list) -> None:
        """Commit retired stores to the consecutive words from ``addr``."""
        if self._apply_run is not None:
            self._apply_run(addr, values)
            return
        apply = self._apply
        for i, value in enumerate(values):
            apply(addr + i * WORD_BYTES, value)

    def _commit(self, word_dicts: list) -> None:
        """Commit retired entries' words, oldest entry first."""
        if not word_dicts:
            return
        if self._apply_entries is not None:
            self._apply_entries(word_dicts)
            return
        apply = self._apply
        for words in word_dicts:
            for addr, value in words.items():
                apply(addr, value)
