"""The six EM3D versions of Figure 9.

Every version runs the same leapfrog and is verified against the
sequential reference; they differ only in how remote neighbor values
reach the compute loop:

* **simple** — a blocking Split-C read per edge, duplicates re-read;
* **bundle** — ghost nodes filled with one blocking read per distinct
  remote value, then a pure-local compute phase;
* **unroll** — bundle with the compute loop unrolled and software-
  pipelined (lower per-edge loop/address overhead);
* **get** — ghost fill pipelined through split-phase gets;
* **put** — the *owners* push values into consumers' ghosts with puts,
  cheaper per element than gets (no target-table or pop);
* **bulk** — owners gather per-consumer buffers, consumers fetch them
  with one bulk transfer per source, avoiding per-element Annex
  set-ups entirely;
* **msg** — the message-driven style section 7 motivates: owners push
  with one-way stores and each consumer proceeds the moment *its* ghost
  bytes have arrived (region-scoped ``store_sync``), with only one
  barrier per whole step instead of per phase.

The compute phase walks a real adjacency array resident in simulated
memory — two words (value address, weight) per edge — so its cost
includes the cache misses of streaming a >8 KB structure rather than a
pasted-in per-edge constant.  The model gives an all-local floor of
about 0.23 microseconds/edge against the paper's 0.37; EXPERIMENTS.md's
"Known deviations" records the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import tiers
from repro.apps.em3d.graph import Em3dGraph, initial_values
from repro.params import CYCLE_NS, LINE_BYTES, WORD_BYTES
from repro.splitc.gptr import ADDR_MASK as GPTR_ADDR_MASK
from repro.splitc.gptr import PE_SHIFT as GPTR_PE_SHIFT
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import run_splitc
from repro.trace import tracer as _trace

__all__ = ["Em3dResult", "Layout", "VERSIONS", "run_em3d"]

VERSIONS = ("simple", "bundle", "unroll", "get", "put", "bulk", "msg")

#: Field values live embedded in 32-byte node structures (as in the
#: real EM3D's linked graph), so neighbor-value loads are scattered —
#: one value per cache line.  The bulk version's ghosts are the dense
#: landing buffer of its gathered transfer, a locality bonus on top of
#: the Annex savings.
VALUE_BYTES = LINE_BYTES

#: Versions whose compute loop is unrolled/software-pipelined.
_OPTIMIZED_COMPUTE = {"unroll", "get", "put", "bulk", "msg"}


@dataclass(frozen=True)
class Layout:
    """Symmetric memory offsets shared by all processors."""

    e_vals: int
    h_vals: int
    e_ghosts: int          # ghosts of H values (for the E update)
    h_ghosts: int          # ghosts of E values (for the H update)
    e_adj: int
    h_adj: int
    gather: int            # per-consumer gather buffers (bulk version)
    gather_pair_words: int
    max_ghosts: int        # ghost slots per direction on every processor


@dataclass
class Em3dResult:
    """Outcome of one EM3D run."""

    version: str
    us_per_edge: float
    cycles_per_edge: float
    per_pe_cycles_per_edge: list
    e_values: list         # final E values, [pe][idx]
    h_values: list
    #: Machine-wide operation breakdown (merged over processors).
    stats: object = None


def _setup(machine, graph: Em3dGraph, version: str,
           seed: int = 7) -> Layout:
    """Place values, ghosts, adjacency, and gather buffers in memory.

    Setup is untimed (the paper's preprocessing step); it uses the
    backing stores directly.
    """
    n = graph.nodes_per_pe
    entry_words = 2
    adj_words = n * graph.degree * entry_words
    plans = (graph.e_plan, graph.h_plan)
    max_ghosts = max(1, *(plan.ghost_count(pe) for plan in plans
                          for pe in range(graph.num_pes)))
    gather_pair_words = max(
        (len(idxs) for plan in plans for by_src in plan.needed
         for idxs in by_src.values()),
        default=1,
    ) or 1

    layout = Layout(
        e_vals=machine.symmetric_segment(n, "f8", VALUE_BYTES),
        h_vals=machine.symmetric_segment(n, "f8", VALUE_BYTES),
        e_ghosts=machine.symmetric_alloc(max_ghosts * VALUE_BYTES),
        h_ghosts=machine.symmetric_alloc(max_ghosts * VALUE_BYTES),
        e_adj=machine.symmetric_alloc(adj_words * WORD_BYTES),
        h_adj=machine.symmetric_alloc(adj_words * WORD_BYTES),
        gather=machine.symmetric_segment(
            graph.num_pes * gather_pair_words, "f8", WORD_BYTES),
        gather_pair_words=gather_pair_words,
        max_ghosts=max_ghosts,
    )

    ghost_stride = WORD_BYTES if version == "bulk" else VALUE_BYTES
    nedges = n * graph.degree
    e0 = initial_values(graph, "e", seed)
    h0 = initial_values(graph, "h", seed)
    for pe in range(graph.num_pes):
        mem = machine.node(pe).memsys.memory
        # Fields, ghosts, and adjacency live in flat typed segments;
        # setup (the paper's untimed preprocessing) fills them
        # directly.  The adjacency region interleaves two stride-16
        # segments: int64 neighbor references at even words, float64
        # weights at odd words.
        mem.alloc_segment(layout.e_ghosts, max_ghosts, "f8", ghost_stride)
        mem.alloc_segment(layout.h_ghosts, max_ghosts, "f8", ghost_stride)
        mem.segment_at(layout.e_vals).fill(0, e0[pe])
        mem.segment_at(layout.h_vals).fill(0, h0[pe])
        for edges, plan, vals, ghosts, base in (
                (graph.e_edges[pe], graph.e_plan, layout.h_vals,
                 layout.e_ghosts, layout.e_adj),
                (graph.h_edges[pe], graph.h_plan, layout.e_vals,
                 layout.h_ghosts, layout.h_adj)):
            addrs = vals + edges.idx * VALUE_BYTES
            if version == "simple":
                refs = (edges.owner << GPTR_PE_SHIFT) | addrs
            else:
                refs = np.where(edges.owner == pe, addrs, ghosts
                                + plan.edge_slot[pe] * ghost_stride)
            mem.alloc_segment(base, nedges, "i8",
                              entry_words * WORD_BYTES).fill(0, refs)
            mem.alloc_segment(base + WORD_BYTES, nedges, "f8",
                              entry_words * WORD_BYTES).fill(0, edges.weight)
    return layout


#: Edges per batched block of the compute phase: bounds the numpy
#: temporaries to a few MB even at a million nodes per processor.
_BLOCK_EDGES = 1 << 16


def compute_rows(ctx, n: int, degree: int, adj_base: int, out_base: int,
                 per_edge_overhead: float, simple_sc=None) -> None:
    """Row ``i < n`` reads its ``degree`` (reference, weight) pairs from
    the adjacency at ``adj_base`` (two words per edge), loads each
    referenced value — through ``simple_sc.read`` for the "simple"
    version, whose references are global pointers — and stores the
    weighted sum at ``out_base + i * VALUE_BYTES``.

    Blocks of rows run through :meth:`MemorySystem.plan_block`; a block
    the plan declines runs the reference loop, as does every block
    under :func:`repro.tiers.reference`.
    """
    fast = tiers.fast()
    step = max(1, _BLOCK_EDGES // degree)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        if not (fast and _planned_rows(ctx, r0, r1, degree, adj_base,
                                       out_base, per_edge_overhead,
                                       simple_sc)):
            _reference_rows(ctx, r0, r1, degree, adj_base, out_base,
                            per_edge_overhead, simple_sc)


def _reference_rows(ctx, r0, r1, degree, adj_base, out_base,
                    per_edge_overhead, simple_sc):
    """The compute loop, one simulated access at a time: the
    executable spec the planned rows must match bit for bit."""
    cursor = adj_base + r0 * degree * 2 * WORD_BYTES
    for i in range(r0, r1):
        acc = 0.0
        for _ in range(degree):
            ref = ctx.local_read(cursor)
            weight = ctx.local_read(cursor + WORD_BYTES)
            cursor += 2 * WORD_BYTES
            if simple_sc is not None:
                value = simple_sc.read(GlobalPtr.decode(ref))
            else:
                value = ctx.local_read(ref)
            acc += weight * value
            ctx.charge(ctx.node.alpha.flop_pair())
            ctx.charge(per_edge_overhead)
        ctx.local_write(out_base + i * VALUE_BYTES, acc)


def _planned_rows(ctx, r0, r1, degree, adj_base, out_base,
                  per_edge_overhead, simple_sc) -> bool:
    """Rows ``r0 .. r1-1`` through the batched plan; False (nothing
    done) when the plan, a gather or the remote reads decline.

    Sums are formed one column at a time, the reference loop's float
    order.  The "simple" version's remote edges are planned with
    :meth:`SplitC.plan_reads` and their cycles added to their rows.
    """
    memsys = ctx.node.memsys
    rows = r1 - r0
    nedges = rows * degree
    adj = adj_base + (r0 * degree + np.arange(nedges)) * (2 * WORD_BYTES)
    refs = memsys.gather(adj, "i8")
    weights = memsys.gather(adj + WORD_BYTES, "f8")
    if refs is None or weights is None:
        return False
    if simple_sc is None:
        pes, addrs, local = None, refs, np.ones(nedges, dtype=bool)
    elif simple_sc.trace is not None:
        return False                   # span traces record every read
    else:
        pes, addrs = refs >> GPTR_PE_SHIFT, refs & GPTR_ADDR_MASK
        local = pes == ctx.pe
    keep = np.ones((nedges, 3), dtype=bool)
    keep[:, 2] = local
    loads = np.stack((adj, adj + WORD_BYTES, addrs), axis=1)[keep]
    per_row = 2 * degree + local.reshape(rows, degree).sum(axis=1)
    values = np.empty(nedges)
    local_values = memsys.gather(addrs[local], "f8")
    if local_values is None:
        return False
    values[local] = local_values
    remote = np.flatnonzero(~local)
    row_extra = reads = None
    if len(remote):
        reads = simple_sc.plan_reads(pes[remote], addrs[remote])
        if reads is None:
            return False
        values[remote] = reads.values
        row_extra = np.bincount(remote // degree, weights=reads.cycles,
                                minlength=rows)
    weights = weights.reshape(rows, degree)
    values = values.reshape(rows, degree)
    acc = np.zeros(rows)
    for d in range(degree):
        acc += weights[:, d] * values[:, d]
    stores = out_base + (r0 + np.arange(rows)) * VALUE_BYTES
    flop = ctx.node.alpha.flop_pair()
    plan = memsys.plan_block(ctx.clock, loads, stores, per_row,
                             (flop, per_edge_overhead) * degree,
                             values=acc, row_extra=row_extra)
    if plan is None:
        return False
    ctx.clock = plan.end_clock
    if simple_sc is not None:
        # runtime.read's local branch records each local load; the op
        # seen first in the block is recorded first, as the loop would.
        value_loads = (np.cumsum(keep.ravel()) - 1).reshape(nedges, 3)
        nlocal = nedges - len(remote)
        if reads is not None and not local[0]:
            reads.commit()
        if nlocal:
            simple_sc.stats.add("read (local)", nlocal, float(
                plan.load_cycles[value_loads[local, 2]].sum()))
        if reads is not None and local[0]:
            reads.commit()
    return True


def _ghost_fill_reads(sc, graph, layout, direction: str, use_get: bool):
    """Fill ghosts with blocking reads (bundle/unroll) or gets.

    The get version is one :meth:`SplitC.get_scatter` and a ``sync``.
    Blocking reads run a block at a time as :meth:`SplitC.plan_reads`
    then a load-free :meth:`MemorySystem.plan_block` of the ghost
    stores.  A block that either plan declines, and every block under
    :func:`repro.tiers.reference`, runs ``read_from`` and
    ``local_write`` per element.
    """
    ctx = sc.ctx
    plan = graph.e_plan if direction == "e" else graph.h_plan
    vals = layout.h_vals if direction == "e" else layout.e_vals
    ghosts = layout.e_ghosts if direction == "e" else layout.h_ghosts
    me = sc.my_pe
    start_clock = ctx.clock if _trace.TRACE_ENABLED else 0.0
    srcs = plan.ghost_src[me]
    addrs = vals + plan.ghost_idx[me] * VALUE_BYTES
    dsts = ghosts + np.arange(len(srcs)) * VALUE_BYTES
    if use_get:
        sc.get_scatter(srcs, addrs, dsts)
        sc.sync()
    else:
        fast = tiers.fast()
        for k0 in range(0, len(srcs), _BLOCK_EDGES):
            block = slice(k0, k0 + _BLOCK_EDGES)
            reads = fast and sc.plan_reads(srcs[block], addrs[block])
            stores = reads and ctx.node.memsys.plan_block(
                ctx.clock, dsts[:0], dsts[block], 0,
                values=reads.values, row_extra=reads.cycles)
            if stores:
                reads.commit()
                ctx.clock = stores.end_clock
                continue
            for src, addr, ghost in zip(srcs[block].tolist(),
                                        addrs[block].tolist(),
                                        dsts[block].tolist()):
                ctx.local_write(ghost, sc.read_from(src, addr))
    if _trace.TRACE_ENABLED:
        _trace.emit("annex_ghost_fill", t=start_clock, pe=me,
                    direction=direction,
                    mechanism="get" if use_get else "read",
                    count=len(srcs), cycles=sc.ctx.clock - start_clock)


def _ghost_fill_puts(sc, graph, layout, direction: str):
    """Owners push their values into consumers' ghost slots: the whole
    phase is one :meth:`SplitC.put_scatter` call, one group per
    consumer, so its set-up amortizes across every consumer group
    (groups are tiny at high processor counts)."""
    plan = graph.e_plan if direction == "e" else graph.h_plan
    vals = layout.h_vals if direction == "e" else layout.e_vals
    ghosts = layout.e_ghosts if direction == "e" else layout.h_ghosts
    me = sc.my_pe
    start_clock = sc.ctx.clock if _trace.TRACE_ENABLED else 0.0
    # The plan's sender lists invert the needed[][] map: each producer
    # iterates only its own consumers instead of scanning every
    # processor, and a consumer's ghost slots for this source are
    # ``slot_base + k`` in list order — the same (consumer, idx)
    # sequence the full scan visited.
    groups = [(consumer, [(vals + idx * VALUE_BYTES,
                           ghosts + (base + k) * VALUE_BYTES)
                          for k, idx in enumerate(idxs)])
              for consumer, idxs, base in plan.senders[me]]
    sc.put_scatter(groups)
    # Completion is deferred to the all_store_sync that follows.
    if _trace.TRACE_ENABLED:
        _trace.emit("annex_ghost_fill", t=start_clock, pe=me,
                    direction=direction, mechanism="put",
                    count=sum(len(pairs) for _consumer, pairs in groups),
                    cycles=sc.ctx.clock - start_clock)


def _gather_and_bulk(sc, graph, layout, direction: str):
    """Bulk version: gather per-consumer buffers, then one bulk
    transfer per (consumer, source) pair.  Generator (barriers)."""
    plan = graph.e_plan if direction == "e" else graph.h_plan
    vals = layout.h_vals if direction == "e" else layout.e_vals
    ghosts = layout.e_ghosts if direction == "e" else layout.h_ghosts
    me = sc.my_pe
    # Gather: my values needed by each consumer, in the agreed order
    # (the plan's sender lists replace the all-processor scan).
    for consumer, idxs, _base in plan.senders[me]:
        buf = layout.gather + consumer * layout.gather_pair_words * WORD_BYTES
        for k, idx in enumerate(idxs):
            value = sc.ctx.local_read(vals + idx * VALUE_BYTES)
            sc.ctx.local_write(buf + k * WORD_BYTES, value)
    sc.ctx.memory_barrier()
    yield from sc.barrier()            # all gather buffers ready
    # Fetch: one bulk get per source processor.
    start_clock = sc.ctx.clock if _trace.TRACE_ENABLED else 0.0
    fetched = 0
    for src in sorted(plan.needed[me]):
        idxs = plan.needed[me][src]
        buf = layout.gather + me * layout.gather_pair_words * WORD_BYTES
        dst = ghosts + plan.slot_base(me, src) * WORD_BYTES
        sc.bulk_get(dst, GlobalPtr(src, buf), len(idxs) * WORD_BYTES)
        fetched += len(idxs)
    sc.sync()
    if _trace.TRACE_ENABLED:
        _trace.emit("annex_ghost_fill", t=start_clock, pe=me,
                    direction=direction, mechanism="bulk",
                    count=fetched, cycles=sc.ctx.clock - start_clock)


def _ghost_region(layout, direction: str):
    """The consumer-side ghost address region for one direction."""
    base = layout.e_ghosts if direction == "e" else layout.h_ghosts
    return (base, base + layout.max_ghosts * VALUE_BYTES)


def _half_step(sc, graph, layout, version: str, direction: str,
               end_barrier: bool = True):
    """Communication + compute for one direction.  Generator."""
    if version == "simple":
        pass                           # reads happen inside compute
    elif version in ("bundle", "unroll"):
        _ghost_fill_reads(sc, graph, layout, direction, use_get=False)
    elif version == "get":
        _ghost_fill_reads(sc, graph, layout, direction, use_get=True)
    elif version == "put":
        _ghost_fill_puts(sc, graph, layout, direction)
        yield from sc.all_store_sync()
    elif version == "bulk":
        yield from _gather_and_bulk(sc, graph, layout, direction)
    elif version == "msg":
        # Message-driven: one-way stores + local completion detection.
        # The memory barrier only pushes the stores out of the write
        # buffer; no acknowledgements are awaited (section 7.1).
        _ghost_fill_puts(sc, graph, layout, direction)
        sc.ctx.memory_barrier()
        plan = graph.e_plan if direction == "e" else graph.h_plan
        expected = plan.ghost_count(sc.my_pe) * WORD_BYTES
        yield from sc.store_sync(expected,
                                 region=_ghost_region(layout, direction))
    else:
        raise ValueError(f"unknown EM3D version {version!r}")
    ctx = sc.ctx
    compute_rows(ctx, graph.nodes_per_pe, graph.degree,
                 layout.e_adj if direction == "e" else layout.h_adj,
                 layout.e_vals if direction == "e" else layout.h_vals,
                 0.5 if version in _OPTIMIZED_COMPUTE
                 else ctx.node.alpha.loop_iteration() + 1.0,
                 sc if version == "simple" else None)
    if end_barrier:
        yield from sc.barrier()


def run_em3d(machine, graph: Em3dGraph, version: str, steps: int = 2,
             warmup_steps: int = 1, seed: int = 7) -> Em3dResult:
    """Run one EM3D version; returns timing and final field values.

    The machine must be freshly constructed (symmetric heaps).  The
    warm-up steps populate caches and open DRAM rows, as the paper's
    timed region follows untimed iterations.
    """
    if version not in VERSIONS:
        raise ValueError(f"version must be one of {VERSIONS}")
    layout = _setup(machine, graph, version, seed)

    def program(sc):
        # The message-driven version needs no barrier between the two
        # half-steps: each consumer's region-scoped store_sync orders
        # it; a single barrier per whole step bounds phase skew.
        e_barrier = version != "msg"
        for _ in range(warmup_steps):
            yield from _half_step(sc, graph, layout, version, "e",
                                  end_barrier=e_barrier)
            yield from _half_step(sc, graph, layout, version, "h")
        yield from sc.barrier()
        start = sc.ctx.clock
        for _ in range(steps):
            yield from _half_step(sc, graph, layout, version, "e",
                                  end_barrier=e_barrier)
            yield from _half_step(sc, graph, layout, version, "h")
        elapsed = sc.ctx.clock - start
        sc.ctx.memory_barrier()
        n = graph.nodes_per_pe
        final_e = [sc.ctx.node.memsys.memory.load(
            layout.e_vals + i * VALUE_BYTES) for i in range(n)]
        final_h = [sc.ctx.node.memsys.memory.load(
            layout.h_vals + i * VALUE_BYTES) for i in range(n)]
        return elapsed, final_e, final_h

    results, runtimes = run_splitc(machine, program)
    edges = steps * graph.edges_per_pe
    per_pe = [elapsed / edges for elapsed, _e, _h in results]
    cycles_per_edge = sum(per_pe) / len(per_pe)
    merged = runtimes[0].stats
    for sc in runtimes[1:]:
        merged = merged.merge(sc.stats)
    return Em3dResult(
        version=version,
        us_per_edge=cycles_per_edge * CYCLE_NS / 1000.0,
        cycles_per_edge=cycles_per_edge,
        per_pe_cycles_per_edge=per_pe,
        e_values=[e for _t, e, _h in results],
        h_values=[h for _t, _e, h in results],
        stats=merged,
    )
