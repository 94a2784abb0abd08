"""Figure 9: EM3D performance, six versions vs remote-edge fraction.

Regenerates the time-per-edge series.  Scaled down from the paper's 32
processors to 4 simulated PEs with the same per-processor graph
parameters family (nodes/PE and degree reduced to keep the pure-Python
run in seconds); the *shape* claims checked are Figure 9's:

* every curve grows with the remote fraction;
* ghost-node versions beat Simple once there is communication;
* pipelined gets beat blocking ghost reads;
* puts beat gets; Bulk is best;
* all versions converge at 0% remote to the local floor.
"""

from repro.apps.em3d import VERSIONS, sweep
from tests.paper import paperdata as paper

NODES_PER_PE = 200
DEGREE = 10
FRACTIONS = (0.0, 0.2, 0.5)
SHAPE = (2, 2, 1)


def test_fig9_em3d():
    table = {(p.version, p.requested_fraction): p.us_per_edge
             for p in sweep(fractions=FRACTIONS, nodes_per_pe=NODES_PER_PE,
                            degree=DEGREE, shape=SHAPE)}

    # Growth with remote fraction, for every version.
    for version in VERSIONS:
        series = [table[(version, f)] for f in FRACTIONS]
        assert series == sorted(series), version

    # The optimization ladder at the mixed fractions.
    for frac in (0.2, 0.5):
        assert table[("bundle", frac)] < table[("simple", frac)]
        assert table[("get", frac)] < table[("unroll", frac)]
        assert table[("put", frac)] < table[("get", frac)]
        assert table[("bulk", frac)] < table[("put", frac)]

    # Convergence at 0% remote.
    local = [table[(v, 0.0)] for v in VERSIONS]
    assert max(local) < 1.6 * min(local)

    # The local floor lands within 2x of the paper's 0.37 us/edge
    # (see EXPERIMENTS.md for the accounting of the difference).
    floor = min(local)
    assert 0.5 * paper.EM3D_LOCAL_US_PER_EDGE < floor \
        < 1.5 * paper.EM3D_LOCAL_US_PER_EDGE
