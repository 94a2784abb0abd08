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

from repro.params import WORD_BYTES, WriteBufferParams
from repro.trace import tracer as _trace

__all__ = ["WriteBuffer", "PendingWrite"]


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
                 line_bytes: int = 32):
        self.params = params
        self.line_bytes = line_bytes
        self._issue_cycles = params.issue_cycles
        self._merging = params.merging
        self._capacity = params.entries
        self._apply = apply or (lambda addr, value: None)
        self._pending: list[PendingWrite] = []
        self._last_retire: float = 0.0
        self.merged_writes = 0
        self.drained_entries = 0
        #: Processor identity for trace attribution; set by the owning
        #: Node (a bare memory system has none).
        self.owner_pe: int | None = None
        #: Dirty-buffer registry shared with the owning Machine: the
        #: buffer appends itself on each empty->nonempty transition so
        #: ``Machine.settle`` only visits buffers with pending entries.
        #: A bare memory system (no machine) leaves this None.
        self.settle_queue: list | None = None
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("write_buffer", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals.

        Only counters every code path maintains are reported: the
        batched bulk and ``put_scatter`` store paths append entries
        directly, so a per-push counter here would undercount them.
        """
        return {"merged_writes": self.merged_writes,
                "drained_entries": self.drained_entries,
                "pending": len(self._pending)}

    def reset(self) -> None:
        self._pending.clear()
        self._last_retire = 0.0
        self.merged_writes = 0
        self.drained_entries = 0

    def _line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

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
        # In place, so callers holding a reference to the list (the
        # inlined fast paths) stay coherent across a flush.
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
        if len(self._pending) == 1 and self.settle_queue is not None:
            self.settle_queue.append(self)
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
        if len(self._pending) == 1 and self.settle_queue is not None:
            self.settle_queue.append(self)
        if _trace.TRACE_ENABLED:
            _trace.emit("wb_push", t=now, pe=self.owner_pe, line=line,
                        stall=stall, retire=retire)
        return cycles + stall

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
