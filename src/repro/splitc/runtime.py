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

import numpy as np

from repro import tiers
from repro.node.alpha import extract_byte, merge_byte_into_word
from repro.node.exact import on_grid
from repro.node.memsys import ReadPlan
from repro.node.write_buffer import PendingWrite
from repro.params import ANNEX_BIT_SHIFT, LOCAL_ADDR_MASK, WORD_BYTES
from repro.shell.annex import AnnexEntry, ReadMode
from repro.splitc.annex_policy import (
    MultiAnnexPolicy,
    OsManagedAnnexPolicy,
    SingleAnnexPolicy,
)
from repro.splitc.codegen import CodegenPlan, default_plan
from repro.splitc.gptr import GlobalPtr
from repro.splitc.stats import OpStats
from repro.splitc.trace import SpanTrace
from repro.trace import tracer as _trace

__all__ = ["SplitC", "run_splitc"]

#: Annex policies whose ``setup`` is *stationary* from the second
#: consecutive same-target call on: every further call returns the
#: same (index, cycles) and bumps ``annex.updates`` by the same
#: amount.  The flattened put group exploits this; other policies take
#: the generic loop.
_STATIONARY_POLICIES = (SingleAnnexPolicy, MultiAnnexPolicy,
                       OsManagedAnnexPolicy)


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
        set-up, uncached read, Split-C extra), its value (float64) and a
        ``commit()`` that leaves the targets' DRAM, the remote unit, the
        Annex and the op stats as the reads would.  None under span
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
            values[reads] = plan.values
            commits.append(plan.commit)
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

        With the fast paths on (:func:`repro.tiers.fast`) and no
        tracing attached, the loop body is flattened: the phase-invariant bindings (write buffer,
        Annex, params) are hoisted once per *phase*, the per-target
        bindings (peer cache, retirement callback, DRAM geometry) once
        per *group*, the Annex set-up runs natively for the first two
        elements of each group and its (provably stationary) steady
        state is applied arithmetically for the rest, the target DRAM
        drain peek is inlined when the geometry is the flat T3D shape,
        and the write-buffer push is inlined — same cycles, counters,
        and memory effects in the same order as the generic loop, to
        the bit.  Per-op stats are recorded in aggregate.
        """
        ctx = self.ctx
        policy = self.annex_policy
        if (self.trace is not None or _trace.TRACE_ENABLED
                or type(policy) not in _STATIONARY_POLICIES
                or not tiers.fast()):
            local_read = ctx.local_read
            put_to = self.put_to
            for pe, pairs in groups:
                for src, dst in pairs:
                    put_to(pe, dst, local_read(src))
            return

        # Phase-invariant bindings: hoisted once, shared by all groups.
        node = ctx.node
        annex = node.annex
        setup = policy.setup
        remote = node.remote
        get_peer = remote._peer
        memsys = node.memsys
        wb = memsys.write_buffer
        memsys_read = ctx._memsys_read
        my_pe = ctx.pe
        rparams = remote.params
        store_drain = rparams.store_drain_cycles
        off_page = rparams.remote_off_page_cycles
        put_extra = node.params.shell.remote.splitc_put_extra_cycles
        issue_cycles = wb._issue_cycles
        merging = wb._merging
        capacity = wb._capacity
        pending = wb._pending
        wb_flush = wb.flush_retired
        line_bytes = wb.line_bytes
        wbytes = WORD_BYTES
        mask = LOCAL_ADDR_MASK
        # Local-memory bindings for the inlined source read (exact
        # flattening of MemorySystem.read: write-buffer forwarding
        # probe, then the direct-mapped L1 / local DRAM chain).  The
        # T3D shape always takes this path; exotic configs keep the
        # method call.  L1 and DRAM counters accumulate in locals and
        # commit in one batch at the end of the phase — nothing reads
        # them mid-phase, while the *state* (tags, open rows, last
        # bank) stays live because the generic local-put branch and
        # retiring drains share it.
        src_fast = memsys._fast_read
        my_l1 = memsys.l1
        l1_tags = my_l1._tags if src_fast else None
        l1_get = l1_tags.get if src_fast else None
        lb = my_l1._line_bytes
        l1_sets = my_l1._num_sets
        hit_cycles = memsys.params.l1.hit_cycles
        my_dram = memsys.dram
        m_interleave = my_dram._interleave
        m_banks = my_dram._banks
        m_page = my_dram._page_bytes
        m_flat = (m_interleave == m_page
                  and m_interleave & (m_interleave - 1) == 0
                  and m_banks & (m_banks - 1) == 0)
        m_il_shift = m_interleave.bit_length() - 1
        m_bank_mask = m_banks - 1
        m_bank_shift = m_banks.bit_length() - 1
        m_open_row = my_dram._open_row
        m_cycles = my_dram._access_cycles
        m_off_page = my_dram.params.off_page_cycles
        m_same_bank = my_dram.params.same_bank_cycles
        mem_load = memsys.memory.load
        sl1_h = sl1_m = sdram_n = sdram_rm = sdram_cf = 0
        # The single-register policy (the compiled-code default) is
        # further specialized: its setup cost per group is one exact
        # register-state transition, so the per-element policy call is
        # replaced by precomputed first/steady costs and one aggregate
        # update-counter commit at the end of the phase.
        single = (type(policy) is SingleAnnexPolicy
                  and len(annex._entries) > 1)
        if single:
            entries = annex._entries
            update_cycles = annex.params.update_cycles
            skip_unchanged = policy.skip_when_unchanged
            uncached = ReadMode.UNCACHED
        ann_updates = 0
        first_cyc = rest_cyc = 0.0
        first_upd = rest_upd = 0

        clock = ctx.clock
        put_cycles = 0.0           # aggregate for the "put (issue)" stat
        total = 0
        for pe, pairs in groups:
            if pe == my_pe:
                # Local puts record "put (local)" — keep them generic.
                ctx.clock = clock
                local_read = ctx.local_read
                put_to = self.put_to
                for src, dst in pairs:
                    put_to(pe, dst, local_read(src))
                clock = ctx.clock
                continue
            # Per-target bindings: the PeerLink carries the target DRAM
            # geometry precomputed (scatter groups are tiny at high
            # processor counts, so per-group set-up is the bill).  When
            # the geometry is the flat T3D shape (interleave == page
            # size, both powers of two) the drain peek collapses to
            # shifts; otherwise fall back to the peek method.
            peer = get_peer(pe)
            same_bank = peer.same_bank
            access_cycles = peer.access_cycles
            on_retire = peer.on_retire
            retire_meta = peer.retire_meta
            tdram = peer.dram
            geom_flat = peer.geom_flat
            il_shift = peer.il_shift
            bank_mask = peer.bank_mask
            bank_shift = peer.bank_shift
            open_row = peer.open_row
            peek = peer.peek_access_with
            elems = 0
            steady_index = steady_cyc = updates_delta = None
            if single:
                # Inlined SingleAnnexPolicy.setup + DtbAnnex.set_entry
                # for the whole group: the register transitions to
                # (pe, UNCACHED) on the first element (unless the
                # skip-when-unchanged variant already holds it) and is
                # provably stationary for the rest.
                if skip_unchanged and policy._current == (pe, uncached):
                    first_cyc = 0.0
                    first_upd = 0
                else:
                    entry = entries[1]
                    if entry.pe != pe or entry.mode is not uncached:
                        entries[1] = AnnexEntry(pe=pe, mode=uncached)
                    policy._current = (pe, uncached)
                    first_cyc = update_cycles
                    first_upd = 1
                if skip_unchanged:
                    rest_cyc = 0.0
                    rest_upd = 0
                else:
                    rest_cyc = update_cycles
                    rest_upd = 1
            for src, dst in pairs:
                if src_fast:
                    # MemorySystem.read, flattened: forwarding probe
                    # against the write buffer, then direct-mapped L1
                    # over the local DRAM controller.
                    found = False
                    value = None
                    if pending:
                        if pending[0].retire_time <= clock:
                            wb_flush(clock)
                        w = src - (src % wbytes)
                        for entry in reversed(pending):
                            if w in entry.words:
                                found = True
                                value = entry.words[w]
                                break
                    s_line = src - (src % lb)
                    s_index = (src // lb) % l1_sets
                    if l1_get(s_index) == s_line:
                        sl1_h += 1
                        clock += hit_cycles
                    else:
                        sl1_m += 1
                        l1_tags[s_index] = s_line
                        a = src & mask
                        if m_flat:
                            block = a >> m_il_shift
                            bank = block & m_bank_mask
                            row = block >> m_bank_shift
                        else:
                            block = a // m_interleave
                            bank = block % m_banks
                            row = ((block // m_banks) * m_interleave
                                   + a % m_interleave) // m_page
                        cyc = m_cycles
                        sdram_n += 1
                        if m_open_row[bank] != row:
                            sdram_rm += 1
                            cyc += m_off_page
                            if bank == my_dram._last_bank:
                                sdram_cf += 1
                                cyc += m_same_bank
                            m_open_row[bank] = row
                        my_dram._last_bank = bank
                        clock += cyc
                    if not found:
                        value = mem_load(src & mask)
                else:
                    read_cycles, value = memsys_read(clock, src)
                    clock += read_cycles
                issued_at = clock
                if single:
                    index = 1
                    if elems:
                        clock += rest_cyc
                        ann_updates += rest_upd
                    else:
                        clock += first_cyc
                        ann_updates += first_upd
                elif elems >= 2:
                    index = steady_index
                    clock += steady_cyc
                    annex.updates += updates_delta
                else:
                    # First two elements of a group run the real
                    # policy; from the third on the observed steady
                    # state is exact (see _STATIONARY_POLICIES).
                    updates_before = annex.updates
                    index, cyc = setup(annex, pe)
                    clock += cyc
                    if elems == 1:
                        steady_index, steady_cyc = index, cyc
                        updates_delta = annex.updates - updates_before
                if not 0 <= dst <= mask:
                    annex.compose_address(index, dst)   # raises, as put_to
                full = (index << ANNEX_BIT_SHIFT) | dst
                # remote.store + write_buffer.push, inlined: the drain
                # peek happens before the flush (flushing may retire
                # earlier stores into this same target and move its
                # open DRAM row).
                if geom_flat:
                    block = dst >> il_shift
                    bank = block & bank_mask
                    drain = store_drain
                    if open_row[bank] != block >> bank_shift:
                        drain += off_page
                        if bank == tdram._last_bank:
                            drain += same_bank
                else:
                    drain = store_drain + (
                        peek(dst, off_page, same_bank) - access_cycles)
                if pending and pending[0].retire_time <= clock:
                    wb_flush(clock)
                line = full - (full % line_bytes)
                word = full - (full % wbytes)
                store_cycles = issue_cycles
                merged = False
                if merging:
                    for entry in pending:
                        if entry.line_addr == line:
                            entry.words[word] = value
                            wb.merged_writes += 1
                            merged = True
                            break
                if not merged:
                    stall = 0.0
                    if len(pending) >= capacity:
                        stall = pending[0].retire_time - clock
                        if stall < 0.0:
                            stall = 0.0
                        wb_flush(clock + stall)
                    start = clock + stall
                    retire = wb._last_retire
                    if start > retire:
                        retire = start
                    retire += drain / capacity
                    wb._last_retire = retire
                    pending.append(
                        PendingWrite(line, start, retire,
                                     {word: value}, False, on_retire,
                                     retire_meta))
                    if len(pending) == 1:
                        wb.mark_dirty()
                    store_cycles += stall
                clock += store_cycles + put_extra
                put_cycles += clock - issued_at
                elems += 1
            remote.stores += elems
            total += elems
        if src_fast:
            my_l1.hits += sl1_h
            my_l1.misses += sl1_m
            my_dram.accesses += sdram_n
            my_dram.row_misses += sdram_rm
            my_dram.same_bank_conflicts += sdram_cf
        if ann_updates:
            annex.updates += ann_updates
        ctx.clock = clock
        if total:
            rec = self.stats.ops.get("put (issue)")
            if rec is None:
                self.stats.record("put (issue)", put_cycles)
                self.stats.ops["put (issue)"].count += total - 1
            else:
                rec.count += total
                rec.cycles += put_cycles

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
