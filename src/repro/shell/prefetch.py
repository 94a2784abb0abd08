"""The binding prefetch queue (paper section 5.2).

The Alpha ``fetch`` hint is interpreted by the shell as a *binding*
prefetch: the addressed remote word is fetched into a 16-entry
memory-mapped FIFO, which the processor later pops with an ordinary
load.  The measured cost breakdown the model reproduces:

====================  =========
prefetch issue        4 cycles
memory barrier        4 cycles
network round trip    80 cycles
pop from queue        23 cycles
====================  =========

Issues pipeline: a group of k prefetches overlaps k round trips, so
per-element cost falls from ~111 cycles (k=1) toward ~31 cycles at
k=16, which is why the paper judges the 16-entry FIFO depth adequate.
A memory barrier must precede the first pop when fewer than four
prefetches were issued, to guarantee the fetch has left the processor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as _np

from repro.node.exact import array_on_grid, on_grid
from repro.node.memory import WordRun
from repro.node.memsys import ReadPlan
from repro.node.write_buffer import PrefetchSource
from repro.params import (
    LOCAL_ADDR_MASK,
    NetworkParams,
    PrefetchParams,
)
from repro.trace import tracer as _trace

__all__ = ["PrefetchQueue", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Raised when a 17th prefetch is issued without popping.

    The real hardware would overwrite or stall unpredictably; the
    Split-C runtime (section 5.4) never lets this happen, dequeuing
    whenever 16 fetches are outstanding.
    """


@dataclass
class _InFlight:
    ready_time: float
    value: object


class PrefetchQueue:
    """Per-node binding prefetch FIFO."""

    def __init__(self, params: PrefetchParams, network: NetworkParams,
                 my_pe: int, remote):
        self.params = params
        self.network = network
        self.my_pe = my_pe
        #: The node's :class:`RemoteAccessUnit`: its per-target
        #: :class:`PeerLink` and remote DRAM penalties time every read.
        self.remote = remote
        self._fifo: deque[_InFlight] = deque()
        self._issued_since_pop = 0
        self.issues = 0
        self.pops = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("prefetch", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"issues": self.issues, "pops": self.pops,
                "outstanding": len(self._fifo)}

    def reset(self) -> None:
        self._fifo.clear()
        self._issued_since_pop = 0
        self.issues = 0
        self.pops = 0

    def outstanding(self) -> int:
        return len(self._fifo)

    @property
    def depth(self) -> int:
        return self.params.queue_depth

    def _extra_hops(self, link) -> float:
        """Round-trip cycles of the hops beyond the adjacent one the
        calibrated round trip covers."""
        return 2 * max(0.0, link.flight - self.network.hop_cycles)

    def plan_read(self, now: float, pes, offsets, loop_cycles: float,
                  group: int = 1, pre_issue=None, table_cycles: float = 0.0):
        """The pipelined read of word ``offsets[k]`` of processor
        ``pes[k]`` — one processor and a ``range`` of word offsets, or
        int64 numpy arrays of both — from an empty queue at ``now``,
        each read's value stored by a store stream: the first ``depth``
        reads issue, then each store pops one read, ``loop_cycles``
        follow it, and reads issue ``group`` at a time
        (:class:`PrefetchSource`).  With ``group`` > 1 each issue pays
        ``pre_issue[k]`` (or nothing) before it; each issue and pop pays
        ``table_cycles`` after it (Split-C's get table).

        Returns ``(clock, source, plan)``: the clock after the first
        issues, the :class:`PrefetchSource` of the store stream, and
        the :class:`ReadPlan` whose ``commit()`` leaves the queue and
        the targets' DRAM as the per-word loop does.  Each target's
        DRAM row events (remote off-page penalty) are timed in one pass.
        None where that is not exact: a non-empty queue, a window or
        group that needs the small-group barrier, groups that do not
        divide the reads, tracing, reading this node, a word outside
        the local offsets, off the exactness grid, or (array offsets) a
        word that holds no float.
        """
        p = self.params
        n = len(offsets)
        window = min(p.queue_depth, n)
        ranged = isinstance(offsets, range)
        if not n or _trace.TRACE_ENABLED or self._fifo \
                or self._issued_since_pop:
            return None
        lo, hi = ((offsets[0], offsets[-1]) if ranged
                  else (int(offsets.min()), int(offsets.max())))
        if (window < p.small_group_barrier_threshold or lo < 0
                or hi > LOCAL_ADDR_MASK
                or not (group == 1 or (
                    p.small_group_barrier_threshold <= group <= window
                    and n % group == 0))
                or (pre_issue is not None and not array_on_grid(pre_issue))
                or not all(on_grid(x) for x in (
                    now, p.issue_cycles, p.round_trip_cycles, loop_cycles,
                    table_cycles))):
            return None
        if ranged:
            parts = [(pes, offsets, slice(None))]
        else:
            order = _np.argsort(pes, kind="stable")
            targets, starts = _np.unique(pes[order], return_index=True)
            parts = [(pe, offsets[reads], reads) for pe, reads in zip(
                targets.tolist(), _np.split(order, starts[1:]))]
        remote = self.remote
        off_page = remote.params.remote_off_page_cycles
        isolate = [remote.inbound(self.my_pe)]
        latency = _np.empty(n)
        values = _np.empty(n)
        commits = []
        for pe, part, reads in parts:
            if pe == self.my_pe:
                return None
            link = remote.link(pe)
            base = link.access_cycles
            extra_hop_cycles = self._extra_hops(link)
            planned = link.dram.plan_access(part, off_page, link.same_bank)
            if planned is None or not (on_grid(base)
                                       and on_grid(extra_hop_cycles)):
                return None
            costs, dram_commit = planned
            latency[reads] = (costs - base) + extra_hop_cycles
            memory = link.node.memsys.memory
            if ranged:
                values = WordRun(memory, part.start, n)
            else:
                words = memory.gather(part, "f8", written=True)
                if words is None:
                    return None
                values[reads] = words
            commits.append(dram_commit)
            isolate.append(remote.inbound(pe))
        latency += p.issue_cycles + p.round_trip_cycles
        step = p.issue_cycles + table_cycles
        pre = ([0.0] * window if pre_issue is None
               else pre_issue[:window].tolist())
        ready = []
        clock = now
        for j, lat in enumerate(latency[:window].tolist()):
            clock += pre[j]
            ready.append(clock + lat)
            clock += step
        source = PrefetchSource(ready, latency, p.pop_cycles + table_cycles,
                                loop_cycles, step, group, pre_issue)
        if not ranged:
            values = values.tolist()

        def commit():
            for dram_commit in commits:
                dram_commit()
            self.issues += n
            self.pops += n

        return clock, source, ReadPlan(None, values, commit, tuple(isolate))

    def issue(self, now: float, pe: int, offset: int) -> float:
        """Issue one binding prefetch; returns the 4-cycle issue cost.

        The reply lands in the FIFO after the round trip; the
        calibrated 80-cycle round trip covers an adjacent-node hop and
        an on-page remote access, so extra hops and remote off-page
        penalties are added on top (Figures 4 and 6 behaviour).
        """
        if len(self._fifo) >= self.params.queue_depth:
            raise QueueFullError(
                f"prefetch queue already holds {self.params.queue_depth}"
            )
        self.issues += 1
        self._issued_since_pop += 1
        link = self.remote.link(pe)
        local = offset & LOCAL_ADDR_MASK
        mem = link.access_with(local,
                               self.remote.params.remote_off_page_cycles,
                               link.same_bank)
        ready = (
            now
            + self.params.issue_cycles
            + self.params.round_trip_cycles
            + (mem - link.access_cycles)        # remote off-page penalty
            + self._extra_hops(link)
        )
        self._fifo.append(_InFlight(ready_time=ready,
                                    value=link.mem_load(local)))
        if _trace.TRACE_ENABLED:
            _trace.emit("prefetch_issue", t=now, pe=self.my_pe, target=pe,
                        offset=local, depth=len(self._fifo), ready=ready)
        return self.params.issue_cycles

    def needs_barrier_before_pop(self) -> bool:
        """True when fewer than four prefetches were issued since the
        last pop — the paper's condition for an explicit ``mb``."""
        return 0 < self._issued_since_pop < self.params.small_group_barrier_threshold

    def pop(self, now: float):
        """Pop the FIFO head; returns (cycles, value).

        The pop is a 23-cycle memory-mapped load; if the head's reply
        has not arrived the processor stalls until it has.
        """
        if not self._fifo:
            raise RuntimeError("pop from empty prefetch queue")
        self.pops += 1
        self._issued_since_pop = 0
        head = self._fifo.popleft()
        completion = max(now, head.ready_time) + self.params.pop_cycles
        if _trace.TRACE_ENABLED:
            _trace.emit("prefetch_pop", t=now, pe=self.my_pe,
                        cycles=completion - now, depth=len(self._fifo))
        return completion - now, head.value
