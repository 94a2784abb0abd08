"""The assembled machine: N nodes on a torus plus the barrier tree.

The :class:`Machine` is also the *fabric* the shell units talk
through: it resolves processor numbers to nodes, computes hop counts,
and routes store-arrival notifications to the receiving node's log.
"""

from __future__ import annotations

from repro.machine.cohort import CohortScheduler, cohort_enabled
from repro.machine.context import Context
from repro.machine.node import Node
from repro.network.torus import Torus
from repro.params import MachineParams, t3d_machine_params
from repro.shell.barrier import HardwareBarrier
from repro.simkernel.scheduler import SpmdScheduler

__all__ = ["Machine"]


class Machine:
    """A simulated CRAY-T3D."""

    def __init__(self, params: MachineParams | None = None):
        self.params = params if params is not None else t3d_machine_params()
        self.torus = Torus(self.params.network)
        self.barrier = HardwareBarrier(
            self.params.shell.barrier, self.torus.num_nodes)
        self.nodes = [
            Node(pe, self.params, fabric=self)
            for pe in range(self.torus.num_nodes)
        ]
        # Registry of write buffers holding pending entries: a buffer
        # registers itself on its empty->nonempty transition
        # (``WriteBuffer.mark_dirty``), so ``settle`` visits only
        # buffers with scheduled work instead of sweeping all N nodes
        # (per-waiter settles made that O(N^2) per barrier epoch).  An
        # insertion-ordered dict: re-registering moves a buffer to the
        # end, so the registry stays one entry per buffer.
        self._dirty_buffers: dict = {}
        for node in self.nodes:
            node.memsys.write_buffer.settle_queue = self._dirty_buffers

    @property
    def num_nodes(self) -> int:
        return self.torus.num_nodes

    # ------------------------------------------------------------------
    # Fabric interface (used by the shell units)
    # ------------------------------------------------------------------

    def node(self, pe: int) -> Node:
        if not 0 <= pe < len(self.nodes):
            raise ValueError(f"pe {pe} outside machine of {len(self.nodes)}")
        return self.nodes[pe]

    def hops(self, src: int, dst: int) -> int:
        return self.torus.hops(src, dst)

    def notify_store_arrival(self, src_pe: int, dst_pe: int, nbytes: int,
                             arrival_time: float, addr: int = 0) -> None:
        self.node(dst_pe).record_store_arrival(nbytes, arrival_time, addr)

    def symmetric_alloc(self, nbytes: int, align: int = 8) -> int:
        """Allocate the *same* local offset on every node.

        Split-C spread arrays and ghost-node buffers rely on every
        processor holding its slice at a common offset; this mirrors a
        symmetric heap.  Raises if the nodes' heaps have diverged.
        """
        offsets = {node.heap.alloc(nbytes, align) for node in self.nodes}
        if len(offsets) != 1:
            raise RuntimeError(
                "node heaps have diverged; symmetric allocation impossible"
            )
        return offsets.pop()

    def symmetric_segment(self, nwords: int, kind: str = "f8",
                          stride_bytes: int = 8, align: int = 8) -> int:
        """Symmetric-heap allocation backed by a flat typed segment on
        every node: reserves ``nwords * stride_bytes`` bytes at a
        common offset and registers a :class:`~repro.node.memory.Segment`
        covering ``offset + i * stride_bytes`` there.  Returns the
        offset; per-node segment handles come from
        ``node.memsys.memory.segment_at(offset)``.
        """
        offset = self.symmetric_alloc(nwords * stride_bytes, align)
        for node in self.nodes:
            node.memsys.memory.alloc_segment(
                offset, nwords, kind, stride_bytes=stride_bytes)
        return offset

    def memory_footprint(self) -> dict:
        """Machine-wide backing-store gauge for bench metadata: words
        reserved (dict + segment capacity) and segment buffer bytes.
        """
        dict_words = 0
        seg_words = 0
        for node in self.nodes:
            mem = node.memsys.memory
            dict_words += len(mem._words)
            seg_words += sum(seg.nwords for seg in mem.segments)
        seg_bytes = seg_words * 9
        return {
            "dict_words": dict_words,
            "segment_words": seg_words,
            "words_allocated": dict_words + seg_words,
            "segment_bytes": seg_bytes,
        }

    def settle(self) -> None:
        """Commit every write-buffer entry whose retire time is already
        scheduled.  Called by the scheduler when threads are blocked on
        data that has been issued but not yet flushed; it never moves
        any clock, it only makes already-determined effects visible.

        Only buffers registered dirty since their last settle are
        flushed; a retiring remote store's callback may dirty another
        buffer mid-drain, so the registry is drained as a worklist.
        """
        dirty = self._dirty_buffers
        while dirty:
            dirty.popitem()[0].flush_retired(float("inf"))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def make_contexts(self) -> list[Context]:
        """One SPMD context per processor, clocks at zero."""
        return [Context(self, node) for node in self.nodes]

    def run_spmd(self, program, *args, **kwargs):
        """Run an SPMD generator program on all processors.

        Returns ``(results, contexts)``: the per-processor return
        values and the contexts (whose clocks hold per-PE finish times).
        """
        contexts = self.make_contexts()
        if cohort_enabled() and len(contexts) > 1:
            scheduler = CohortScheduler(self)
        else:
            scheduler = SpmdScheduler(self)
        results = scheduler.run(contexts, program, *args, **kwargs)
        return results, contexts

    def reset(self) -> None:
        """Cold-start every node and the barrier tree."""
        for node in self.nodes:
            node.reset()
        self.barrier.reset()
        self._dirty_buffers.clear()

    def release(self) -> None:
        """:meth:`reset`, and forget every stored word.  Nodes and units
        refer to each other, so a machine no longer used is cyclic
        garbage, whose memory lives until a full collection reaches it;
        a caller done with a machine releases it to free that memory at
        once."""
        self.reset()
        for node in self.nodes:
            node.memsys.memory.clear()
