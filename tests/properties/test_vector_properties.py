"""Property-based tier identity for the batched local probe sweeps.

Hypothesis drives random point geometry (base, stride, access count,
pass counts) through both compute tiers of one (size, stride) point
and asserts identical totals — the per-point analogue of the
curve-level golden suite in ``tests/test_vector_equivalence.py``.
Reads are batched by the node's own read plan
(``probes._local_read_sweep``), writes by the vectorized tier.

The explicit edge-case table below pins the boundary geometry that the
analytic kernels reason about in closed form, so each regime is
exercised deterministically on every run, not only when hypothesis
happens to generate it:

==============================  =======================================
stride >= segment reach         one access per DRAM page / bank, the
                                off-page and same-bank worst cases
single-word streams             ``count == 1`` (and one measured pass)
write-buffer drain boundaries   counts straddling the 4-entry buffer,
                                strides straddling line merging
TLB-span crossings              distinct-page counts at capacity - 1,
                                capacity, and capacity + 1
==============================  =======================================
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.microbench.probes import _local_read_sweep
from repro.node.memsys import t3d_memory_system, workstation_memory_system
from repro.vector import stride_sweep_fn

KB = 1024


def _reference_total(access_fn, reset_fn, base, stride, count,
                     warmup_passes, measure_passes):
    """The harness's per-access loop, inlined (the golden tier)."""
    reset_fn()
    addrs = range(base, base + count * stride, stride)
    now = 0.0
    for _ in range(warmup_passes):
        for addr in addrs:
            now += access_fn(now, addr)
    total = 0.0
    measured = 0
    for _ in range(measure_passes):
        for addr in addrs:
            cycles = access_fn(now, addr)
            total += cycles
            now += cycles
            measured += 1
    return total, measured


def _assert_two_way(family, make_memsys, base, stride, count,
                    warmup_passes, measure_passes):
    ms = make_memsys()
    if family == "local_read":
        access_fn, vec_fn = ms.read_cycles, _local_read_sweep(ms)
    else:
        access_fn = ms.write_cycles
        vec_fn = stride_sweep_fn(family, node_params=ms.params)
    assert vec_fn is not None, "the fast paths must batch local probes"

    ref = _reference_total(access_fn, ms.reset, base, stride, count,
                           warmup_passes, measure_passes)
    ms.reset()              # the harness cold-starts before a sweep
    vec = vec_fn(base, stride, count, warmup_passes, measure_passes)
    assert vec == ref


point_geometry = dict(
    base=st.integers(min_value=0, max_value=64 * KB).map(lambda v: v * 8),
    stride=st.sampled_from([8, 16, 32, 64, 256, 4 * KB, 8 * KB,
                            16 * KB, 64 * KB, 2048 * KB]),
    count=st.integers(min_value=1, max_value=300),
    warmup_passes=st.integers(min_value=0, max_value=2),
    measure_passes=st.integers(min_value=1, max_value=3),
)


@pytest.mark.parametrize("family", ["local_read", "local_write"])
@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
@given(**point_geometry)
@settings(max_examples=25, deadline=None)
def test_random_points_identical_across_tiers(family, make_memsys, base,
                                              stride, count, warmup_passes,
                                              measure_passes):
    _assert_two_way(family, make_memsys, base, stride, count,
                    warmup_passes, measure_passes)


#: (label, base, stride, count, warmup, measure) — see module docstring.
EDGE_POINTS = [
    ("stride-at-segment", 0, 2048 * KB, 8, 1, 2),
    ("stride-beyond-interleave", 64, 64 * KB, 16, 1, 2),
    ("single-word", 0, 8, 1, 1, 2),
    ("single-word-one-pass", 8, 8, 1, 0, 1),
    ("wb-under-capacity", 0, 32, 3, 1, 2),
    ("wb-at-capacity", 0, 32, 4, 1, 2),
    ("wb-over-capacity", 0, 32, 5, 1, 2),
    ("wb-merge-boundary-subline", 0, 16, 64, 1, 2),
    ("wb-merge-boundary-line", 0, 32, 64, 1, 2),
    ("tlb-span-below", 0, 8 * KB, 31, 1, 2),      # P = capacity - 1
    ("tlb-span-at", 0, 8 * KB, 32, 1, 2),         # P = capacity
    ("tlb-span-above", 0, 8 * KB, 33, 1, 2),      # P = capacity + 1
    ("tlb-page-straddle", 8 * KB - 8, 16, 4, 1, 2),
]


@pytest.mark.parametrize("family", ["local_read", "local_write"])
@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
@pytest.mark.parametrize("label,base,stride,count,warmup,measure",
                         EDGE_POINTS,
                         ids=[p[0] for p in EDGE_POINTS])
def test_edge_points_identical_across_tiers(family, make_memsys, label,
                                            base, stride, count, warmup,
                                            measure):
    _assert_two_way(family, make_memsys, base, stride, count,
                    warmup, measure)
