"""Extension: EM3D weak scaling over machine size.

The paper's metric — time per edge with a fixed per-processor graph —
is chosen precisely because it should stay flat "when scaling both
problem and machine size" (section 8).  Two curves share one harness:

* the **small** curve (2/4/8 processors) must stay within 1.4x;
* the **large** curve (16/64 processors, through the cohort-batched
  scheduler) checks that per-edge cost grows only by the barrier
  settle and the slightly longer torus hops: the largest machine must
  stay within 1.3x of the smallest (the bound docs/performance.md
  documents).  The 256- and 1024-processor points run in the gated
  ``tests/trace/test_scaling_traced.py``.

Every shape comes from :func:`balanced_torus_shape`.
"""

from repro.apps.em3d import make_graph, run_em3d
from repro.machine.machine import Machine
from repro.network.torus import balanced_torus_shape
from repro.params import t3d_machine_params

SMALL_PES = (2, 4, 8)
LARGE_PES = (16, 64)

# Per-processor graph for the small curve.
NODES_PER_PE = 120
DEGREE = 8
FRACTION = 0.3

# The large curve trades graph size for machine size so its largest
# points stay inside a bounded wall-clock budget.
LARGE_NODES_PER_PE = 64
LARGE_DEGREE = 6

# Documented flatness bound for the large curve (docs/performance.md):
# per-edge cost at the largest machine vs. the smallest.
FLATNESS_BOUND = 1.3


def run_curve(pe_counts, nodes_per_pe, degree):
    """``{num_pes: us_per_edge}`` for the put version at each size."""
    costs = {}
    for num_pes in pe_counts:
        graph = make_graph(num_pes, nodes_per_pe, degree, FRACTION,
                           seed=1995)
        machine = Machine(t3d_machine_params(balanced_torus_shape(num_pes)))
        result = run_em3d(machine, graph, "put", steps=1, warmup_steps=1)
        costs[num_pes] = result.us_per_edge
    return costs


def assert_flat(costs, bound):
    smallest, largest = min(costs), max(costs)
    detail = ", ".join(f"{p} PEs = {c:.4f} us/edge"
                       for p, c in sorted(costs.items()))
    assert costs[largest] < bound * costs[smallest], (
        f"per-edge cost not flat: {largest} PEs costs "
        f"{costs[largest] / costs[smallest]:.2f}x the {smallest}-PE "
        f"point (bound {bound}x) — {detail}")
    # And it never *shrinks* dramatically either (no fake speedup).
    assert costs[largest] > 0.7 * costs[smallest], (
        f"per-edge cost dropped implausibly with machine size "
        f"({detail}) — a timing term is being skipped at scale")


def test_em3d_weak_scaling():
    # Growing the machine 4x costs under 40% per edge (hop lengths +
    # barrier + plan skew).
    assert_flat(run_curve(SMALL_PES, NODES_PER_PE, DEGREE), 1.4)


def test_em3d_weak_scaling_large():
    assert_flat(run_curve(LARGE_PES, LARGE_NODES_PER_PE, LARGE_DEGREE),
                FLATNESS_BOUND)
