"""The Split-C runtime on the simulated T3D (paper sections 4, 5, 7).

One :class:`SplitC` instance exists per SPMD thread, wrapping the
thread's :class:`~repro.machine.context.Context` with the language
primitives:

=================  ====================================================
``read``/``write`` blocking global access (sequentially consistent)
``get``/``put``    split-phase access; ``sync`` waits for completion
``store``          one-way signaling store (weakest completion)
``all_store_sync`` barrier that also retires outstanding stores
``store_sync``     wait for N bytes to arrive locally
``barrier``        global barrier on the hardware fuzzy-barrier tree
=================  ====================================================

The implementation follows the paper's measured decisions (held in a
:class:`~repro.splitc.codegen.CodegenPlan`): reads are uncached loads,
gets are binding prefetches with a target-address table, puts/stores
are non-blocking stores with acknowledgement tracking, and the Annex
is managed by a single conservatively-reloaded register.

Blocking primitives are generator methods (``yield from sc.barrier()``);
everything else is a plain call that advances the thread's clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import groupby

import numpy as np

from repro import tiers
from repro.node.alpha import extract_byte, merge_byte_into_word
from repro.node.exact import on_grid
from repro.node.memsys import ReadPlan
from repro.node.write_buffer import BlockingSource
from repro.params import LOCAL_ADDR_MASK, WORD_BYTES
from repro.shell.annex import ReadMode
from repro.splitc.annex_policy import SingleAnnexPolicy
from repro.splitc.codegen import CodegenPlan, default_plan
from repro.splitc.gptr import GlobalPtr
from repro.splitc.stats import OpStats
from repro.splitc.trace import SpanTrace

__all__ = ["SplitC", "run_splitc"]

#: Fewest puts in a run of remote groups that :meth:`SplitC.put_scatter`
#: streams.  The plans cost ~200-300 us of fixed numpy set-up per run, so
#: shorter runs take the ``put_to`` loop: on a 64-PE T3D with ~1.2 puts
#: per target, streaming took 1.2x the loop's time at 48 puts and 0.9x
#: at 64 (2-core x86 host, CPython 3.11).
_MIN_STREAMED_PUTS = 56

#: Fewest gets for which :meth:`SplitC.get_scatter` streams its drained
#: groups.  The plans cost ~300-500 us of fixed set-up, against ~11 us
#: per get of the loop and ~4.5 us streamed: on a 4-PE T3D reading from
#: 3 targets, streaming took 1.3x the loop's time at 65 gets and 0.9x at
#: 81 (2-core x86 host, CPython 3.11).
_MIN_STREAMED_GETS = 80


class SplitC:
    """Per-thread Split-C runtime."""

    def __init__(self, ctx, plan: CodegenPlan | None = None,
                 trace: bool = False):
        self.ctx = ctx
        self.plan = plan if plan is not None else default_plan()
        self.annex_policy = self.plan.make_annex_policy()
        # Split-phase gets: local target addresses in FIFO (= prefetch
        # queue) order, section 5.4's table.
        self._get_targets: list[int] = []
        # Split-phase BLT transfers awaiting the next sync.
        self._pending_blt: list = []
        # store_sync bookkeeping: bytes already consumed by past syncs,
        # globally and per region (the region-scoped extension).
        self._store_bytes_consumed = 0
        self._region_bytes_consumed: dict = {}
        #: Per-operation cost accounting (see repro.splitc.stats).
        self.stats = OpStats()
        #: Optional span trace (see repro.splitc.trace).
        self.trace = SpanTrace() if trace else None

    def _record(self, op: str, start: float) -> None:
        self.stats.record(op, self.ctx.clock - start)
        if self.trace is not None:
            self.trace.add(op, start, self.ctx.clock)

    @contextmanager
    def _timed(self, op: str):
        before = self.ctx.clock
        yield
        self._record(op, before)

    # ------------------------------------------------------------------
    # Identity and memory
    # ------------------------------------------------------------------

    @property
    def my_pe(self) -> int:
        return self.ctx.pe

    @property
    def num_pes(self) -> int:
        return self.ctx.num_pes

    def alloc(self, nbytes: int, align: int = 8) -> GlobalPtr:
        """Allocate in this processor's local region of the global
        space; returns a global pointer to it."""
        offset = self.ctx.node.heap.alloc(nbytes, align)
        return GlobalPtr(self.my_pe, offset)

    def all_alloc(self, nbytes: int, align: int = 8) -> int:
        """Allocate the same offset on every processor (symmetric
        heap); every thread must call it in the same order.  Returns
        the common local offset."""
        offset = self.ctx.node.heap.alloc(nbytes, align)
        return offset

    def all_alloc_segment(self, nwords: int, kind: str = "f8",
                          stride_bytes: int = WORD_BYTES,
                          align: int = 8) -> int:
        """Symmetric allocation backed by a flat typed segment
        (:meth:`~repro.node.memory.WordMemory.alloc_segment`) on this
        thread's node; every thread must call it in the same order, so
        the segment exists at the common offset machine-wide.  Purely a
        representation choice — timing and observable values are
        identical to :meth:`all_alloc` plus dict-backed words."""
        offset = self.all_alloc(nwords * stride_bytes, align)
        self.ctx.node.memsys.memory.alloc_segment(
            offset, nwords, kind, stride_bytes=stride_bytes)
        return offset

    def gptr(self, pe: int, offset: int) -> GlobalPtr:
        """Construct a global pointer (section 3.1 construction)."""
        return GlobalPtr(pe, offset)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _setup_annex(self, pe: int, mode: ReadMode = ReadMode.UNCACHED):
        index, cycles = self.annex_policy.setup(self.ctx.node.annex, pe, mode)
        self.ctx.charge(cycles)
        return index

    def _full_addr(self, index: int, offset: int) -> int:
        return self.ctx.node.annex.compose_address(index, offset)

    # ------------------------------------------------------------------
    # Blocking read / write (section 4)
    # ------------------------------------------------------------------

    def read(self, gp: GlobalPtr):
        """Blocking global read; ~128 cycles remote (section 4.4)."""
        return self.read_from(gp.pe, gp.addr)

    def read_from(self, pe: int, addr: int):
        """:meth:`read` on a destructured (processor, address) pair —
        hot callers skip building the :class:`GlobalPtr`."""
        ctx = self.ctx
        before = ctx.clock
        if pe == self.my_pe:
            value = ctx.local_read(addr)
            self._record("read (local)", before)
            return value
        if self.plan.read_mechanism == "cached":
            value = self._read_cached_with_flush(GlobalPtr(pe, addr))
            self._record("read (cached remote)", before)
            return value
        self._setup_annex(pe)
        cycles, value = ctx.node.remote.uncached_read(ctx.clock, pe, addr)
        ctx.charge(cycles + ctx.node.params.shell.remote.
                   splitc_read_extra_cycles)
        self._record("read (remote)", before)
        return value

    def plan_reads(self, pes, addrs) -> ReadPlan | None:
        """:meth:`read_from` of ``addrs[k]`` on remote ``pes[k]`` (int64
        numpy arrays) in turn, timed ahead: each read's cycles (Annex
        set-up, uncached read, Split-C extra), its value and a
        ``commit()`` that leaves the targets' DRAM, the remote unit, the
        Annex and the op stats as the reads would.  The values are
        float64, or an object array of the exact loads where a target's
        words are not all floats.  None under span
        tracing, the cached read mechanism, an Annex policy other than
        :class:`SingleAnnexPolicy`, or a declined
        :meth:`RemoteAccessUnit.plan_uncached`."""
        node = self.ctx.node
        extra = node.params.shell.remote.splitc_read_extra_cycles
        if (not len(pes) or self.trace is not None
                or self.plan.read_mechanism == "cached"
                or type(self.annex_policy) is not SingleAnnexPolicy
                or not on_grid(extra)
                or not on_grid(node.annex.params.update_cycles)):
            return None
        cycles = np.empty(len(pes))
        values = np.empty(len(pes))
        commits = []
        order = np.argsort(pes, kind="stable")
        targets, starts = np.unique(pes[order], return_index=True)
        for pe, reads in zip(targets.tolist(), np.split(order, starts[1:])):
            plan = node.remote.plan_uncached(pe, addrs[reads])
            if plan is None:
                return None
            cycles[reads] = plan.cycles
            commits.append(plan.commit)
            if isinstance(plan.values, np.ndarray):
                values[reads] = plan.values
                continue
            if values.dtype != object:
                values = values.astype(object)
            for k, value in zip(reads.tolist(), plan.values):
                values[k] = value
        annex_cycles, annex_commit = self.annex_policy.plan(node.annex, pes)
        cycles += annex_cycles + extra

        def commit():
            annex_commit()
            for target_commit in commits:
                target_commit()
            self.stats.add("read (remote)", len(pes), float(cycles.sum()))

        return ReadPlan(cycles, values, commit)

    def _read_cached_with_flush(self, gp: GlobalPtr):
        """The rejected cached-read implementation (section 4.4): fetch
        a line, then flush it to stay coherent.  Kept for ablation."""
        index = self._setup_annex(gp.pe, ReadMode.CACHED)
        full = self._full_addr(index, gp.addr)
        cycles, value = self.ctx.node.remote.cached_read(
            self.ctx.clock, gp.pe, gp.addr, full)
        self.ctx.charge(cycles)
        self.ctx.charge(self.ctx.node.remote.invalidate_cached_line(full))
        self.ctx.charge(
            self.ctx.node.params.shell.remote.splitc_read_extra_cycles)
        return value

    def write(self, gp: GlobalPtr, value) -> None:
        """Blocking global write; ~147 cycles remote (section 4.4).

        Local writes through a global pointer also wait for completion
        (a store plus a memory barrier), which is what creates the
        global/local consistency asymmetry of section 4.5.
        """
        if gp.is_local_to(self.my_pe):
            with self._timed("write (local)"):
                self.ctx.local_write(gp.addr, value)
                self.ctx.memory_barrier()
            return
        with self._timed("write (remote)"):
            index = self._setup_annex(gp.pe)
            full = self._full_addr(index, gp.addr)
            cycles = self.ctx.node.remote.blocking_write(
                self.ctx.clock, gp.pe, gp.addr, value, full)
            overlap = (self.ctx.node.params.shell.remote
                       .splitc_write_overlap_cycles)
            self.ctx.charge(max(0.0, cycles - overlap))

    # ------------------------------------------------------------------
    # Split-phase get / put / sync (section 5)
    # ------------------------------------------------------------------

    def get(self, gp: GlobalPtr, local_offset: int) -> None:
        """Initiate a split-phase read of ``gp`` into local memory.

        Implemented with the binding prefetch (section 5.4): issue the
        fetch, record the target address in the table; ``sync`` pops
        the queue and stores each value to its target.  When the
        16-entry queue fills, outstanding gets are drained first.
        """
        self.get_from(gp.pe, gp.addr, local_offset)

    def get_from(self, pe: int, addr: int, local_offset: int) -> None:
        """:meth:`get` on a destructured (processor, address) pair."""
        before = self.ctx.clock
        if pe == self.my_pe:
            value = self.ctx.local_read(addr)
            self.ctx.local_write(local_offset, value)
            self._record("get (local)", before)
            return
        pf = self.ctx.node.prefetch
        if pf.outstanding() >= pf.depth:
            self._drain_gets()
        self._setup_annex(pe)
        self.ctx.charge(pf.issue(self.ctx.clock, pe, addr))
        self.ctx.charge(pf.params.table_cycles)   # table update
        self._get_targets.append(local_offset)
        self._record("get (issue)", before)

    def get_scatter(self, pes, addrs, dsts) -> None:
        """Split-phase gets of word ``addrs[k]`` on processor ``pes[k]``
        into local ``dsts[k]`` (int64 numpy arrays): the bulk primitive
        behind a ghost fill.  Semantically identical to::

            for pe, addr, dst in zip(pes, addrs, dsts):
                self.get_from(pe, addr, dst)

        which is how it runs unless :meth:`_stream_gets` can time its
        drained groups as one pass.  The last group stays in the queue
        for :meth:`sync`, as the loop leaves it.
        """
        done = self._stream_gets(pes, addrs, dsts)
        for pe, addr, dst in zip(pes[done:].tolist(), addrs[done:].tolist(),
                                 dsts[done:].tolist()):
            self.get_from(pe, addr, dst)

    def _stream_gets(self, pes, addrs, dsts) -> int:
        """Run every get of ``get_scatter`` up to its last group as one
        composition; returns how many ran (0: nothing changed).

        From an empty queue the loop issues ``depth`` gets, then each
        further get first drains the full queue — pop, table lookup,
        local store per entry — so its issues come ``depth`` at a time
        after every ``depth``-th store.  The Annex set-ups are planned
        by :meth:`SingleAnnexPolicy.plan`, the reads and their issue
        and pop times by :meth:`PrefetchQueue.plan_read` (group
        ``depth``), and the stores of the drained groups run through
        one :meth:`MemorySystem.stream_writes`; the gets after the last
        drain are left to the loop, which finds an empty queue.  Runs
        none with the fast paths off, under span tracing, for another
        Annex policy, with a get outstanding, for a local source, with
        fewer than :data:`_MIN_STREAMED_GETS` gets, or where a plan
        declines."""
        node = self.ctx.node
        pf = node.prefetch
        depth = pf.depth
        count = (len(pes) - 1) // depth * depth
        if (len(pes) < _MIN_STREAMED_GETS or count <= 0 or not tiers.fast()
                or self.trace is not None or self._get_targets
                or type(self.annex_policy) is not SingleAnnexPolicy
                or (pes == self.my_pe).any()):
            return 0
        pes, addrs = pes[:count], addrs[:count]
        annex_cycles, annex_commit = self.annex_policy.plan(node.annex, pes)
        start = self.ctx.clock
        planned = pf.plan_read(start, pes, addrs, 0.0, group=depth,
                               pre_issue=annex_cycles,
                               table_cycles=pf.params.table_cycles)
        if planned is None:
            return 0
        clock, source, plan = planned
        end = node.memsys.stream_writes(clock, dsts[:count].tolist(),
                                        plan.values, source, plan.isolate)
        if end is None:
            return 0
        plan.commit()
        annex_commit()
        self.ctx.clock = end
        self.stats.add("get (issue)", count, end - start)
        return count

    def put(self, gp: GlobalPtr, value) -> None:
        """Initiate a split-phase write; ~45 cycles (section 5.4)."""
        self.put_to(gp.pe, gp.addr, value)

    def put_to(self, pe: int, addr: int, value) -> None:
        """:meth:`put` on a destructured (processor, address) pair."""
        ctx = self.ctx
        before = ctx.clock
        if pe == self.my_pe:
            ctx.local_write(addr, value)
            self._record("put (local)", before)
            return
        index = self._setup_annex(pe)
        full = self._full_addr(index, addr)
        ctx.charge(ctx.node.remote.store(ctx.clock, pe, addr, value, full))
        ctx.charge(
            ctx.node.params.shell.remote.splitc_put_extra_cycles)
        self._record("put (issue)", before)

    def put_scatter(self, groups) -> None:
        """Scattered puts for one exchange phase: the bulk primitive
        behind the regular exchanges (EM3D ghost fill, stencil halos,
        FFT / transpose all-to-all).  ``groups`` is an iterable of
        ``(pe, pairs)``; semantically identical to::

            for pe, pairs in groups:
                for src, dst in pairs:
                    self.put_to(pe, dst, self.ctx.local_read(src))

        which is how local groups are issued.  Each run of consecutive
        remote groups is one write-buffer stream where
        :meth:`_stream_puts` can time it, else the same loop.
        """
        local_read = self.ctx.local_read
        me = self.my_pe
        for remote, run in groupby(groups, lambda group: group[0] != me):
            run = list(run)
            if remote and self._stream_puts(run):
                continue
            for pe, pairs in run:
                for src, dst in pairs:
                    self.put_to(pe, dst, local_read(src))

    def _stream_puts(self, run) -> bool:
        """The puts of a run of remote groups as one composition: the
        source reads planned by :meth:`MemorySystem.plan_reads`, the
        Annex set-ups by :meth:`SingleAnnexPolicy.plan`, and the stores
        issued by one :meth:`RemoteAccessUnit.stream_stores`.  False,
        with nothing changed, for runs shorter than
        :data:`_MIN_STREAMED_PUTS`, with the fast paths off, under span
        tracing, for another Annex policy, for a destination outside the
        segment reach (the loop raises), or where a plan declines."""
        pairs = [pair for _pe, group in run for pair in group]
        if (len(pairs) < _MIN_STREAMED_PUTS or not tiers.fast()
                or self.trace is not None
                or type(self.annex_policy) is not SingleAnnexPolicy):
            return False
        srcs, dsts = zip(*pairs)
        if min(dsts) < 0 or max(dsts) > LOCAL_ADDR_MASK:
            return False
        node = self.ctx.node
        reads = node.memsys.plan_reads(np.array(srcs, dtype=np.int64))
        if reads is None:
            return False
        pes = np.repeat(np.array([pe for pe, _group in run], dtype=np.int64),
                        [len(group) for _pe, group in run])
        annex_cycles, annex_commit = self.annex_policy.plan(node.annex, pes)
        base = self._full_addr(SingleAnnexPolicy.REGISTER, 0)
        start = self.ctx.clock
        end = node.remote.stream_stores(
            start, pes, dsts, [base + dst for dst in dsts], reads.values,
            BlockingSource(reads.cycles + annex_cycles,
                           node.params.shell.remote.splitc_put_extra_cycles,
                           flush=True))
        if end is None:
            return False
        reads.commit()
        annex_commit()
        self.ctx.clock = end
        self.stats.add("put (issue)", len(pairs),
                       end - start - float(reads.cycles.sum()))
        return True

    def _drain_gets(self) -> None:
        pf = self.ctx.node.prefetch
        if pf.needs_barrier_before_pop():
            self.ctx.memory_barrier()
        for target in self._get_targets:
            cycles, value = pf.pop(self.ctx.clock)
            self.ctx.charge(cycles)
            self.ctx.charge(pf.params.table_cycles)   # table lookup
            self.ctx.local_write(target, value)
        self._get_targets = []

    def sync(self) -> None:
        """Wait for all outstanding gets, puts, and split-phase bulk
        transfers (section 5.1).

        The left-hand sides of pending gets are defined after this
        returns; pending puts are acknowledged; pending BLT transfers
        have completed.
        """
        before = self.ctx.clock
        self._drain_gets()
        self.ctx.memory_barrier()
        self.ctx.clock = self.ctx.node.remote.wait_for_acks(
            self.ctx.clock)
        for transfer in self._pending_blt:
            self.ctx.clock = self.ctx.node.blt.wait(self.ctx.clock,
                                                    transfer)
        self._pending_blt = []
        self._record("sync", before)

    @property
    def pending_gets(self) -> int:
        return len(self._get_targets)

    # ------------------------------------------------------------------
    # Signaling stores (section 7.1)
    # ------------------------------------------------------------------

    def store(self, gp: GlobalPtr, value) -> None:
        """The ``:=`` one-way store.

        The T3D offers no unacknowledged store (section 7.2), so this
        is a put whose acknowledgement is simply deferred; the gain is
        pipelining many stores before any wait.
        """
        self.put(gp, value)

    def all_store_sync(self):
        """Global barrier that also retires outstanding stores: the
        bulk-synchronous phase boundary (sections 7.1, 7.5).

        Implemented on the fuzzy barrier: drain and acknowledge local
        stores, start-barrier, wait, end-barrier.
        """
        before = self.ctx.clock
        self.ctx.memory_barrier()
        self.ctx.clock = self.ctx.node.remote.wait_for_acks(self.ctx.clock)
        yield from self.ctx.barrier()
        # Stores from every processor are acknowledged before its
        # barrier start, hence complete before anyone exits.
        self._store_bytes_consumed = self.ctx.node.bytes_arrived_total()
        self._record("all_store_sync", before)

    def store_sync(self, nbytes: int, region=None):
        """Wait until ``nbytes`` more have been stored into this
        processor's memory (message-driven completion, section 7.1).

        With ``region`` — a half-open ``(lo, hi)`` address pair — only
        stores landing in that region count.  This region scoping is
        an extension beyond the paper's primitive: it gives the
        per-phase completion counting that phase-pipelined programs
        (like the message-driven EM3D) need to avoid one phase's
        arrivals satisfying another phase's wait.
        """
        if region is None:
            target = self._store_bytes_consumed + nbytes
            yield from self.ctx.wait_for_bytes(target)
            self._store_bytes_consumed = target
        else:
            consumed = self._region_bytes_consumed.get(region, 0)
            target = consumed + nbytes
            yield from self.ctx.wait_for_bytes(target, region)
            self._region_bytes_consumed[region] = target

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------

    def barrier(self):
        """Split-C global barrier on the hardware tree (section 7.5)."""
        before = self.ctx.clock
        yield from self.ctx.barrier()
        self._record("barrier", before)

    # ------------------------------------------------------------------
    # Sub-word accesses (section 4.5)
    # ------------------------------------------------------------------

    def read_byte(self, gp: GlobalPtr, byte_index: int) -> int:
        """Read one byte of a global word (extract on a word read)."""
        word = self.read(gp)
        self.ctx.charge(self.ctx.node.alpha.alu(2))
        return extract_byte(int(word), byte_index)

    def write_byte_racy(self, gp: GlobalPtr, byte_index: int,
                        byte: int) -> None:
        """The broken byte store: a word read-modify-write (section
        4.5).  Correct only when no other processor updates the word;
        concurrent updates clobber each other.  Kept deliberately: the
        probe suite demonstrates the loss."""
        word = self.read(gp)
        self.ctx.charge(self.ctx.node.alpha.alu(3))
        merged = merge_byte_into_word(int(word), byte, byte_index)
        self.write(gp, merged)

    # ------------------------------------------------------------------
    # Bulk transfers (section 6) — thin wrappers over repro.splitc.bulk
    # ------------------------------------------------------------------

    def bulk_read(self, dst_offset: int, src: GlobalPtr, nbytes: int) -> None:
        """Blocking bulk read with the measured size dispatch."""
        from repro.splitc import bulk
        with self._timed("bulk_read"):
            bulk.bulk_read(self, dst_offset, src, nbytes)

    def bulk_write(self, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
        """Blocking bulk write (non-blocking stores + ack wait)."""
        from repro.splitc import bulk
        with self._timed("bulk_write"):
            bulk.bulk_write(self, dst, src_offset, nbytes)

    def bulk_get(self, dst_offset: int, src: GlobalPtr, nbytes: int) -> None:
        """Split-phase bulk read; completes at the next ``sync``."""
        from repro.splitc import bulk
        with self._timed("bulk_get"):
            bulk.bulk_get(self, dst_offset, src, nbytes)

    def bulk_put(self, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
        """Split-phase bulk write; completes at the next ``sync``."""
        from repro.splitc import bulk
        with self._timed("bulk_put"):
            bulk.bulk_put(self, dst, src_offset, nbytes)

    def bulk_gather(self, dst_offset: int, src: GlobalPtr, nelems: int,
                    stride_bytes: int) -> None:
        """Strided gather (section 6.2's strided BLT vs the prefetch
        pipe, dispatched on payload size)."""
        from repro.splitc import bulk
        with self._timed("bulk_gather"):
            bulk.bulk_gather(self, dst_offset, src, nelems, stride_bytes)


def run_splitc(machine, program, *args, plan: CodegenPlan | None = None,
               trace: bool = False, **kwargs):
    """Run a Split-C SPMD program on a machine.

    ``program`` is a generator function ``program(sc, *args, **kwargs)``
    receiving a :class:`SplitC` runtime.  With ``trace=True`` every
    operation records a span (see :mod:`repro.splitc.trace`).
    Returns ``(results, runtimes)``.
    """
    runtimes = {}

    def wrapper(ctx, *a, **kw):
        sc = SplitC(ctx, plan=plan, trace=trace)
        runtimes[ctx.pe] = sc
        result = yield from program(sc, *a, **kw)
        return result

    results, contexts = machine.run_spmd(wrapper, *args, **kwargs)
    ordered = [runtimes[pe] for pe in sorted(runtimes)]
    return results, ordered
