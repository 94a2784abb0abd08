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

__all__ = ["BlockingSource", "PendingWrite", "PrefetchSource", "WriteBuffer"]

#: Stores per chunk of :meth:`WriteBuffer.stream`.
_CHUNK = 512


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
                 line_bytes: int = 32, apply_entries=None):
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
        :meth:`stream` and :meth:`push_run` add entries without
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

    def push_run(self, now: float, addrs, values, gaps, drains):
        """``clock += gaps[i]; clock += push_new(clock, addrs[i],
        values[i], drains[i])`` for each store of a run, from ``clock =
        now``, in one closed form (numpy ``addrs``, ``gaps``, ``drains``;
        ``values`` a sequence); returns the final clock, or None with
        nothing changed.

        With no stall, store ``i`` issues at ``c = now + cumsum(gaps) +
        issue * i`` and retires at ``Q + max(last_retire, max(c - (Q -
        q)))`` (a running maximum), where ``q = drains / depth`` and ``Q
        = cumsum(q)``.  Declines while tracing, if a pending entry is
        not a plain local store or pending retire times are out of
        order, if a store would find ``depth`` entries in flight after
        its flush (it would stall), and off the exactness envelope
        (:mod:`repro.node.exact`).
        """
        pending = self._pending
        cap = self._capacity
        issue = self._issue_cycles
        last = self._last_retire
        warm = [e.retire_time for e in pending]
        n = len(addrs)
        q = drains / cap
        if (_trace.TRACE_ENABLED or not n or warm != sorted(warm)
                or (warm and last < warm[-1])
                or any(e.on_retire is not None or not e.apply_words
                       for e in pending)
                or not all(on_grid(x) for x in (now, last, issue, *warm))
                or not (array_on_grid(gaps) and array_on_grid(q))
                or gaps.min() < 0 or q.min() < 0
                or not max(now, last) + float(gaps.sum()) + n * issue
                + float(q.sum()) < CEILING):
            return None
        clock = now + _np.cumsum(gaps) + issue * _np.arange(n)
        done = _np.cumsum(q)
        retire = done + _np.maximum.accumulate(
            _np.maximum(clock - (done - q), last))
        # Retire times are in order, so the entries retired when store i
        # issues are a prefix of the warm ones and the run's first i.
        order = _np.concatenate((warm, retire))
        ahead = len(warm) + _np.arange(n)
        in_flight = ahead - _np.minimum(
            _np.searchsorted(order, clock, side="right"), ahead)
        if (in_flight >= cap).any():
            return None
        end = float(clock[-1])
        # The last flush is the last store's, ahead of its own entry.
        gone = min(int(_np.searchsorted(order, end, side="right")),
                   len(order) - 1)
        self._commit([e.words for e in pending[:gone]])
        del pending[:gone]
        done_run = max(0, gone - len(warm))
        addrs = addrs.tolist()
        words = [a - a % WORD_BYTES for a in addrs]
        values = (values.tolist() if isinstance(values, _np.ndarray)
                  else list(values))
        if done_run:
            self._commit([dict(zip(words[:done_run], values))])
        pending.extend(PendingWrite(
            addrs[i] - addrs[i] % self.line_bytes, float(clock[i]),
            float(retire[i]), {words[i]: values[i]})
            for i in range(done_run, n))
        self._last_retire = float(retire[-1])
        self.drained_entries += gone
        if not in_flight.all():
            self.mark_dirty()
        return end + issue

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
