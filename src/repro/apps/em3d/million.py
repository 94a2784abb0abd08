"""The million-node-per-PE EM3D capacity point.

The weak-scaling story (ROADMAP item 5) needs an EM3D point whose
per-processor working set is far beyond any cache — ≥1M graph nodes
per PE — to show the segment-backed memory tier holds it in bounded
space.  The regular :func:`~repro.apps.em3d.graph.make_graph` cannot
get there: it materializes every edge as a Python tuple, ~100 bytes
each, so 16 PEs x 1M nodes x degree 2 x 2 directions would cost tens
of gigabytes *before* the simulation starts.  This module replaces the
generator with a **structured affine graph** written straight into
flat typed segments:

* node ``i``'s ``k``-th neighbor is ``(i * 40503 + k * 2654435761)
  mod n`` — a fixed permutation-ish scatter with no Python-side
  adjacency structure at all;
* weights and initial values are integer-hash functions of the index,
  mapped into [-1, 1) by an exact power-of-two division (numpy int64
  products stay far below 2**63), so every float64 value is exact;
* every edge is local (the paper's all-local compute baseline): the
  point measures memory capacity and the compute pipeline, not the
  interconnect, which the ordinary weak-scaling curve already covers.

Because every processor holds the *same* structure and values, the
machine is provably symmetric: processor 0's half-step advances its
clock by exactly the amount every other processor's would.  With
``replay=True`` (the capacity configuration) the other processors
**alias processor 0's segments** (:meth:`WordMemory.adopt_segment`)
and run barriers only; the fuzzy barrier settles on the last arrival
(processor 0), so every clock leaves each barrier at the identical
time an honest run would — one ~72 MB image instead of sixteen.
``replay=False`` runs every processor honestly; the golden test
(``tests/apps/test_em3d_million.py``) holds the two modes to identical
timing and values at a size where the honest run is affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.em3d.kernels import VALUE_BYTES, compute_rows
from repro.params import CYCLE_NS, WORD_BYTES
from repro.splitc.runtime import run_splitc

__all__ = ["Em3dMillionResult", "run_em3d_million"]

#: Affine neighbor scatter / hash constants (see module docstring).
_IDX_A = 40503
_IDX_B = 2654435761
_HASH_A = 2654435761
_HASH_B = 40503
_HASH_MOD = 1 << 24

#: Per-direction initial-value hash multipliers/offsets.
_INIT = {"e": (48271, 11), "h": (16807, 7)}


@dataclass
class Em3dMillionResult:
    """Outcome of one million-point run."""

    nodes_per_pe: int
    degree: int
    num_pes: int
    replay: bool
    steps: int
    us_per_edge: float
    cycles_per_edge: float
    #: Machine-wide backing-store gauge (aliased segments counted once).
    footprint: dict
    #: Sum of processor 0's final E values — the cross-mode checksum.
    e_checksum: float


def _fill_values(seg, n: int, mult: int, off: int) -> None:
    """Initial field values: ``((i*mult + off) % 2**24)`` scaled."""
    i = np.arange(n, dtype=np.int64)
    seg.fill(0, ((i * mult + off) % _HASH_MOD) / _HASH_MOD * 2.0 - 1.0)


def _fill_adjacency(refs, weights, n: int, degree: int,
                    vals_base: int) -> None:
    """Neighbor references and weights for one direction."""
    edge = np.arange(n * degree, dtype=np.int64)
    i = edge // degree
    k = edge % degree
    idx = (i * _IDX_A + k * _IDX_B) % n
    refs.fill(0, vals_base + idx * VALUE_BYTES)
    w = (i * _HASH_A + k * _HASH_B) % _HASH_MOD
    weights.fill(0, w / float(_HASH_MOD) * 2.0 - 1.0)


def _build_image(mem, layout: dict, n: int, degree: int) -> list:
    """Allocate and fill one processor image's segments in ``mem``;
    returns the segment objects (for replay aliasing)."""
    nedges = n * degree
    segs = []
    for kind in ("e", "h"):
        seg = mem.alloc_segment(layout[kind + "_vals"], n, "f8",
                                VALUE_BYTES)
        mult, off = _INIT[kind]
        _fill_values(seg, n, mult, off)
        segs.append(seg)
    for kind, vals in (("e", "h_vals"), ("h", "e_vals")):
        base = layout[kind + "_adj"]
        refs = mem.alloc_segment(base, nedges, "i8", 2 * WORD_BYTES)
        weights = mem.alloc_segment(base + WORD_BYTES, nedges, "f8",
                                    2 * WORD_BYTES)
        _fill_adjacency(refs, weights, n, degree, layout[vals])
        segs.extend((refs, weights))
    return segs


def run_em3d_million(machine, nodes_per_pe: int, degree: int = 2,
                     steps: int = 1, warmup_steps: int = 1,
                     replay: bool = True) -> Em3dMillionResult:
    """Run the all-local capacity point; the machine must be fresh.

    ``replay=True`` holds one shared image (processor 0 computes, the
    rest alias its segments and synchronize); ``replay=False`` is the
    honest mode every processor computes in — identical results by the
    symmetry argument in the module docstring, golden-tested at small
    sizes where the honest memory cost is affordable.
    """
    if nodes_per_pe < 1 or degree < 1:
        raise ValueError("nodes_per_pe and degree must be positive")
    n = nodes_per_pe
    nedges = n * degree
    layout = {
        "e_vals": machine.symmetric_alloc(n * VALUE_BYTES),
        "h_vals": machine.symmetric_alloc(n * VALUE_BYTES),
        "e_adj": machine.symmetric_alloc(nedges * 2 * WORD_BYTES),
        "h_adj": machine.symmetric_alloc(nedges * 2 * WORD_BYTES),
    }
    mem0 = machine.node(0).memsys.memory
    image = _build_image(mem0, layout, n, degree)
    for pe in range(1, machine.num_nodes):
        mem = machine.node(pe).memsys.memory
        if replay:
            for seg in image:
                mem.adopt_segment(seg)
        else:
            _build_image(mem, layout, n, degree)

    def half_step(ctx, direction: str) -> None:
        compute_rows(ctx, n, degree, layout[direction + "_adj"],
                     layout[direction + "_vals"], 0.5)

    def program(sc):
        ctx = sc.ctx
        honest = not replay or sc.my_pe == 0
        for _ in range(warmup_steps):
            for direction in ("e", "h"):
                if honest:
                    half_step(ctx, direction)
                yield from sc.barrier()
        yield from sc.barrier()
        start = ctx.clock
        for _ in range(steps):
            for direction in ("e", "h"):
                if honest:
                    half_step(ctx, direction)
                yield from sc.barrier()
        elapsed = ctx.clock - start
        ctx.memory_barrier()
        return elapsed

    results, _ = run_splitc(machine, program)
    edges = steps * 2 * n * degree
    cycles_per_edge = results[0] / edges
    ev = machine.node(0).memsys.memory.segment_at(layout["e_vals"])
    checksum = float(ev.np_view()[:n].sum())
    return Em3dMillionResult(
        nodes_per_pe=n, degree=degree, num_pes=machine.num_nodes,
        replay=replay, steps=steps,
        us_per_edge=cycles_per_edge * CYCLE_NS / 1000.0,
        cycles_per_edge=cycles_per_edge,
        footprint=machine.memory_footprint(),
        e_checksum=checksum,
    )
