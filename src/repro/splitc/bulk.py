"""Bulk transfer: every mechanism, and the dispatch between them
(paper section 6).

Four bulk-read implementations are provided — uncached reads, cached
reads (with the coherence flushes they force), the pipelined prefetch
queue, and the block-transfer engine — plus two bulk-write
implementations (non-blocking stores, BLT).  The public entry points
``bulk_read`` / ``bulk_write`` / ``bulk_get`` / ``bulk_put`` dispatch
on transfer size using the :class:`~repro.splitc.codegen.CodegenPlan`
crossovers, exactly as the Split-C library of section 6.3 does:

* 8 bytes: one uncached read;
* up to ~16 KB: the prefetch pipeline;
* beyond: the BLT, whose 180 microsecond start-up has amortized;
* writes: non-blocking stores at every size;
* non-blocking gets switch to the BLT near 7,900 bytes.

All transfers are word-granularity and contiguous (the compiler lowers
structure assignment to these routines); the BLT path additionally
supports strided gathers, tested separately.
"""

from __future__ import annotations

from repro import tiers
from repro.node.exact import on_grid
from repro.node.write_buffer import BlockingSource
from repro.params import LOCAL_ADDR_MASK, WORD_BYTES
from repro.shell.annex import ReadMode
from repro.splitc.gptr import GlobalPtr

__all__ = [
    "bulk_gather",
    "bulk_gather_blt",
    "bulk_gather_prefetch",
    "bulk_read",
    "bulk_read_blt",
    "bulk_read_cached",
    "bulk_read_prefetch",
    "bulk_read_uncached",
    "bulk_write",
    "bulk_write_blt",
    "bulk_write_stores",
    "bulk_get",
    "bulk_put",
]


def _words(nbytes: int) -> int:
    if nbytes <= 0 or nbytes % WORD_BYTES:
        raise ValueError("bulk transfers are whole positive words")
    return nbytes // WORD_BYTES


def _batched(ctx) -> bool:
    """Whether to try the batched path: the fast paths are on
    (:func:`repro.tiers.fast`) and the loop overhead it folds into
    precomputed gaps sits on the exactness grid; otherwise the transfer
    runs its reference per-word loop."""
    return tiers.fast() and on_grid(ctx.node.alpha.loop_iteration())


def _stream_reads(ctx, now: float, dst_offset: int, plan, source) -> bool:
    """Store a planned read's values to the local words at
    ``dst_offset`` through one write-buffer stream starting at ``now``,
    then commit the read side; False (nothing changed) where the stream
    declines."""
    addrs = range(dst_offset, dst_offset + len(plan.values) * WORD_BYTES,
                  WORD_BYTES)
    clock = ctx.node.memsys.stream_writes(now, addrs, plan.values, source,
                                          plan.isolate)
    if clock is None:
        return False
    plan.commit()
    ctx.clock = clock
    return True


def _local_copy(sc, dst_offset: int, src_offset: int, nbytes: int) -> None:
    ctx = sc.ctx
    for i in range(_words(nbytes)):
        value = ctx.local_read(src_offset + i * WORD_BYTES)
        ctx.local_write(dst_offset + i * WORD_BYTES, value)
        ctx.charge(ctx.node.alpha.loop_iteration())


# ----------------------------------------------------------------------
# Bulk read mechanisms (Figure 8, left)
# ----------------------------------------------------------------------

def bulk_read_uncached(sc, dst_offset: int, src: GlobalPtr,
                       nbytes: int) -> None:
    """One blocking uncached read per word (~13 MB/s)."""
    sc._setup_annex(src.pe)
    nwords = _words(nbytes)
    ctx = sc.ctx
    if _batched(ctx):
        plan = ctx.node.remote.plan_uncached(src.pe, range(
            src.addr, src.addr + nwords * WORD_BYTES, WORD_BYTES))
        if plan is not None:
            gaps = plan.cycles
            gaps += ctx.node.alpha.loop_iteration()
            if _stream_reads(ctx, ctx.clock, dst_offset, plan,
                             BlockingSource(gaps)):
                return
    for i in range(nwords):
        cycles, value = ctx.node.remote.uncached_read(
            ctx.clock, src.pe, src.addr + i * WORD_BYTES)
        ctx.charge(cycles + ctx.node.alpha.loop_iteration())
        ctx.local_write(dst_offset + i * WORD_BYTES, value)


def bulk_read_cached(sc, dst_offset: int, src: GlobalPtr,
                     nbytes: int) -> None:
    """Cached remote reads: a line per fetch, flushed for coherence.

    Per-line flushes are batched into one whole-cache flush for
    transfers at or above the plan's batch threshold (the 8 KB
    inflection of section 6.2, footnote 3).
    """
    index = sc._setup_annex(src.pe, ReadMode.CACHED)
    batch = nbytes >= sc.plan.batch_flush_threshold
    line_words = sc.ctx.node.params.node.l1.line_bytes // WORD_BYTES
    unit = sc.ctx.node.remote
    nwords = _words(nbytes)
    ctx = sc.ctx
    if not (_batched(ctx) and _bulk_read_cached_batched(
            sc, dst_offset, src, nwords, index, None if batch
            else line_words)):
        for i in range(nwords):
            offset = src.addr + i * WORD_BYTES
            full = sc._full_addr(index, offset)
            cycles, value = unit.cached_read(ctx.clock, src.pe, offset, full)
            ctx.charge(cycles + ctx.node.alpha.loop_iteration())
            ctx.local_write(dst_offset + i * WORD_BYTES, value)
            line_done = (i + 1) % line_words == 0 or i + 1 == nwords
            if line_done and not batch:
                ctx.charge(unit.invalidate_cached_line(full))
    if batch:
        ctx.charge(unit.flush_all_cached())


def _bulk_read_cached_batched(sc, dst_offset: int, src: GlobalPtr,
                              nwords: int, index: int,
                              flush_every: int | None) -> bool:
    """The cached-read loop as one planned read and one store stream:
    each line flush is charged before the next word's read."""
    ctx = sc.ctx
    full = sc._full_addr(index, src.addr)
    span = nwords * WORD_BYTES
    planned = ctx.node.remote.plan_cached(
        src.pe, range(src.addr, src.addr + span, WORD_BYTES),
        range(full, full + span, WORD_BYTES), flush_every)
    if planned is None:
        return False
    plan, tail = planned
    gaps = plan.cycles
    gaps += ctx.node.alpha.loop_iteration()
    if not _stream_reads(ctx, ctx.clock, dst_offset, plan,
                         BlockingSource(gaps)):
        return False
    if tail:
        ctx.charge(tail)
    return True


def bulk_read_prefetch(sc, dst_offset: int, src: GlobalPtr,
                       nbytes: int) -> None:
    """The pipelined prefetch queue: the paper's mid-range winner.

    Issues fill the 16-entry queue; thereafter each pop frees a slot
    for the next issue, so round trips stay overlapped throughout.
    """
    sc._setup_annex(src.pe)
    ctx = sc.ctx
    pf = ctx.node.prefetch
    nwords = _words(nbytes)
    if _batched(ctx):
        planned = pf.plan_read(ctx.clock, src.pe, range(
            src.addr, src.addr + nwords * WORD_BYTES, WORD_BYTES),
            ctx.node.alpha.loop_iteration())
        if planned is not None:
            clock, source, plan = planned
            if _stream_reads(ctx, clock, dst_offset, plan, source):
                return
    issued = 0
    popped = 0
    window = min(pf.depth - pf.outstanding(), nwords)
    while issued < window:
        ctx.charge(pf.issue(ctx.clock, src.pe,
                            src.addr + issued * WORD_BYTES))
        issued += 1
    if pf.needs_barrier_before_pop():
        ctx.memory_barrier()
    while popped < nwords:
        cycles, value = pf.pop(ctx.clock)
        ctx.charge(cycles)
        ctx.local_write(dst_offset + popped * WORD_BYTES, value)
        ctx.charge(ctx.node.alpha.loop_iteration())
        popped += 1
        if issued < nwords:
            ctx.charge(pf.issue(ctx.clock, src.pe,
                                src.addr + issued * WORD_BYTES))
            issued += 1


def bulk_read_blt(sc, dst_offset: int, src: GlobalPtr, nbytes: int,
                  stride_bytes: int | None = None) -> None:
    """Blocking BLT read: huge start-up, highest streaming rate."""
    sc.ctx.charge(sc.ctx.node.blt.read_blocking(
        sc.ctx.clock, src.pe, src.addr, dst_offset, nbytes, stride_bytes))


# ----------------------------------------------------------------------
# Bulk write mechanisms (Figure 8, right)
# ----------------------------------------------------------------------

def bulk_write_stores(sc, dst: GlobalPtr, src_offset: int,
                      nbytes: int) -> None:
    """Non-blocking stores: read each local word, store it remotely.

    Contiguous stores merge into line-sized packets; when the source
    streams from memory the line fills contend with packet injection
    on the node bus, capping bandwidth near the measured 90 MB/s.
    The routine waits for all acknowledgements before returning.
    """
    _store_words(sc, dst, src_offset, nbytes)
    sc.ctx.memory_barrier()
    sc.ctx.clock = sc.ctx.node.remote.wait_for_acks(sc.ctx.clock)


def _store_words(sc, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
    """The store loop of :func:`bulk_write_stores` and :func:`bulk_put`:
    each local word is read and stored remotely, without waiting for
    the acknowledgements.  Batched, the source reads are planned in one
    pass and the stores run through one write-buffer stream."""
    index = sc._setup_annex(dst.pe)
    bus = sc.ctx.node.params.shell.remote.bus_interference_cycles
    unit = sc.ctx.node.remote
    nwords = _words(nbytes)
    ctx = sc.ctx
    loop_it = ctx.node.alpha.loop_iteration()
    if (_batched(ctx) and on_grid(bus) and dst.addr >= 0
            and dst.addr + (nwords - 1) * WORD_BYTES <= LOCAL_ADDR_MASK):
        span = nwords * WORD_BYTES
        plan = ctx.node.memsys.plan_reads(
            range(src_offset, src_offset + span, WORD_BYTES))
        if plan is not None:
            # A source read that missed the cache also pays the bus.
            gaps = plan.cycles
            gaps[gaps > 2.0] += bus
            full = sc._full_addr(index, dst.addr)
            clock = unit.stream_stores(
                ctx.clock, dst.pe,
                range(dst.addr, dst.addr + span, WORD_BYTES),
                range(full, full + span, WORD_BYTES),
                plan.values, BlockingSource(gaps, loop_it, flush=True))
            if clock is not None:
                plan.commit()
                ctx.clock = clock
                return
    for i in range(nwords):
        read_cycles, value = ctx.node.memsys.read(
            ctx.clock, src_offset + i * WORD_BYTES)
        ctx.charge(read_cycles)
        if read_cycles > 2.0:      # source missed the cache
            ctx.charge(bus)
        offset = dst.addr + i * WORD_BYTES
        full = sc._full_addr(index, offset)
        ctx.charge(unit.store(ctx.clock, dst.pe, offset, value, full))
        ctx.charge(loop_it)


def bulk_write_blt(sc, dst: GlobalPtr, src_offset: int, nbytes: int,
                   stride_bytes: int | None = None) -> None:
    """Blocking BLT write (loses to stores at every size, section 6.2)."""
    sc.ctx.charge(sc.ctx.node.blt.write_blocking(
        sc.ctx.clock, dst.pe, dst.addr, src_offset, nbytes, stride_bytes))


# ----------------------------------------------------------------------
# Strided gathers (the BLT's strided-DMA capability, section 6.2)
# ----------------------------------------------------------------------

def bulk_gather_prefetch(sc, dst_offset: int, src: GlobalPtr,
                         nelems: int, stride_bytes: int) -> None:
    """Gather ``nelems`` strided remote words through the prefetch
    pipe.  Large strides pay the remote DRAM off-page penalty on every
    element — the cost the BLT's strided mode amortizes differently."""
    if nelems <= 0:
        raise ValueError("gather needs at least one element")
    sc._setup_annex(src.pe)
    pf = sc.ctx.node.prefetch
    issued = popped = 0
    window = min(pf.depth - pf.outstanding(), nelems)
    while issued < window:
        sc.ctx.charge(pf.issue(sc.ctx.clock, src.pe,
                               src.addr + issued * stride_bytes))
        issued += 1
    if pf.needs_barrier_before_pop():
        sc.ctx.memory_barrier()
    while popped < nelems:
        cycles, value = pf.pop(sc.ctx.clock)
        sc.ctx.charge(cycles)
        sc.ctx.local_write(dst_offset + popped * WORD_BYTES, value)
        sc.ctx.charge(sc.ctx.node.alpha.loop_iteration())
        popped += 1
        if issued < nelems:
            sc.ctx.charge(pf.issue(sc.ctx.clock, src.pe,
                                   src.addr + issued * stride_bytes))
            issued += 1


def bulk_gather_blt(sc, dst_offset: int, src: GlobalPtr,
                    nelems: int, stride_bytes: int) -> None:
    """Gather via the BLT's strided mode: the OS start-up plus a
    stride-setup surcharge, then the streaming rate."""
    sc.ctx.charge(sc.ctx.node.blt.read_blocking(
        sc.ctx.clock, src.pe, src.addr, dst_offset,
        nelems * WORD_BYTES, stride_bytes))


def bulk_gather(sc, dst_offset: int, src: GlobalPtr, nelems: int,
                stride_bytes: int) -> None:
    """Strided gather with the measured dispatch.

    The payload (``nelems`` words) decides: below the plan's BLT
    crossover the prefetch pipe wins despite paying per-element DRAM
    penalties; above it the BLT's strided DMA amortizes its start-up.
    Contiguous gathers fall back to the plain bulk read dispatch.
    """
    if stride_bytes == WORD_BYTES:
        bulk_read(sc, dst_offset, src, nelems * WORD_BYTES)
        return
    if src.is_local_to(sc.my_pe):
        for i in range(nelems):
            value = sc.ctx.local_read(src.addr + i * stride_bytes)
            sc.ctx.local_write(dst_offset + i * WORD_BYTES, value)
            sc.ctx.charge(sc.ctx.node.alpha.loop_iteration())
        return
    if nelems * WORD_BYTES >= sc.plan.bulk_read_blt_threshold:
        bulk_gather_blt(sc, dst_offset, src, nelems, stride_bytes)
    else:
        bulk_gather_prefetch(sc, dst_offset, src, nelems, stride_bytes)


# ----------------------------------------------------------------------
# Dispatching entry points (section 6.3)
# ----------------------------------------------------------------------

def bulk_read(sc, dst_offset: int, src: GlobalPtr, nbytes: int) -> None:
    """Blocking bulk read with the paper's size dispatch."""
    if src.is_local_to(sc.my_pe):
        _local_copy(sc, dst_offset, src.addr, nbytes)
    elif nbytes <= sc.plan.bulk_read_single_limit:
        bulk_read_uncached(sc, dst_offset, src, nbytes)
    elif nbytes >= sc.plan.bulk_read_blt_threshold:
        bulk_read_blt(sc, dst_offset, src, nbytes)
    else:
        bulk_read_prefetch(sc, dst_offset, src, nbytes)


def bulk_write(sc, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
    """Blocking bulk write: non-blocking stores at every size."""
    if dst.is_local_to(sc.my_pe):
        _local_copy(sc, dst.addr, src_offset, nbytes)
    elif (sc.plan.bulk_write_blt_threshold is not None
          and nbytes >= sc.plan.bulk_write_blt_threshold):
        bulk_write_blt(sc, dst, src_offset, nbytes)
    else:
        bulk_write_stores(sc, dst, src_offset, nbytes)


def bulk_get(sc, dst_offset: int, src: GlobalPtr, nbytes: int) -> None:
    """Split-phase bulk read; completion at the next ``sync``.

    Below the ~7,900-byte crossover the prefetch pipeline is used (its
    16-request window makes deferred completion worthless, so it runs
    to completion immediately, section 6.3); above it, the BLT is
    started non-blocking and ``sync`` awaits it.
    """
    if src.is_local_to(sc.my_pe):
        _local_copy(sc, dst_offset, src.addr, nbytes)
    elif nbytes < sc.plan.bulk_get_blt_threshold:
        bulk_read_prefetch(sc, dst_offset, src, nbytes)
    else:
        initiate, transfer = sc.ctx.node.blt.start_read(
            sc.ctx.clock, src.pe, src.addr, dst_offset, nbytes)
        sc.ctx.charge(initiate)
        sc._pending_blt.append(transfer)


def bulk_put(sc, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
    """Split-phase bulk write; completion at the next ``sync``.

    Non-blocking stores are already split-phase (the acknowledgement
    wait moves into ``sync``); very large puts use the non-blocking
    BLT for the same reason as bulk_get.
    """
    if dst.is_local_to(sc.my_pe):
        _local_copy(sc, dst.addr, src_offset, nbytes)
        return
    if nbytes >= sc.plan.bulk_get_blt_threshold:
        initiate, transfer = sc.ctx.node.blt.start_write(
            sc.ctx.clock, dst.pe, dst.addr, src_offset, nbytes)
        sc.ctx.charge(initiate)
        sc._pending_blt.append(transfer)
        return
    _store_words(sc, dst, src_offset, nbytes)
