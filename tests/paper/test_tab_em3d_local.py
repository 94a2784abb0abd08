"""T8 (section 8): the EM3D all-local floor.

The optimized all-local versions process an edge in ~0.37 us (5.5
MFlops/PE on the real machine).  The model lands in the same regime
(see EXPERIMENTS.md for the accounting of the residual difference).
"""

from repro.apps.em3d import make_graph, run_em3d
from repro.machine.machine import Machine
from repro.params import t3d_machine_params
from tests.paper import paperdata as paper


def test_tab_em3d_local():
    graph = make_graph(num_pes=4, nodes_per_pe=500, degree=20,
                       remote_fraction=0.0, seed=1995)
    machine = Machine(t3d_machine_params((2, 2, 1)))
    us = run_em3d(machine, graph, "unroll", steps=1,
                  warmup_steps=1).us_per_edge
    mflops = 2.0 / us

    assert 0.5 * paper.EM3D_LOCAL_US_PER_EDGE < us \
        < 1.5 * paper.EM3D_LOCAL_US_PER_EDGE
    assert mflops > paper.EM3D_LOCAL_MFLOPS * 0.6
