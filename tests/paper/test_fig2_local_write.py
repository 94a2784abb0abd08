"""Figure 2: local write cost.

Regenerates the write-latency profile and checks the write-buffer
story: ~20 ns merged writes at sub-line strides, ~35 ns steady state
at line strides (=> inferred depth 4), and the off-page inflection at
16 KB strides.
"""

import pytest

from repro.microbench import probes
from repro.microbench.analyze import analyze_write_curves
from repro.microbench.harness import default_sizes
from repro.node.memsys import t3d_memory_system
from tests.paper import paperdata as paper

KB = 1024


def test_fig2_local_write():
    curves = probes.local_write_probe(
        t3d_memory_system(), sizes=default_sizes(hi=512 * KB))
    profile = analyze_write_curves(curves, memory_cycles=22.0)

    assert profile.write_merging
    assert profile.merged_cycles * 20 / 3 == pytest.approx(
        paper.WRITE_MERGED_NS, rel=0.1)
    assert profile.steady_cycles * 20 / 3 == pytest.approx(
        paper.WRITE_STEADY_NS, rel=0.1)
    assert profile.buffer_depth == paper.WRITE_BUFFER_DEPTH
    # Off-page inflection: 16 KB strides drain off-page on every line,
    # clearly above the on-page steady state at 1 KB strides.
    big = 512 * KB
    assert (curves.at(big, 16 * KB).avg_cycles
            > 1.3 * curves.at(big, 1 * KB).avg_cycles)
