"""Figure 5: acknowledged remote write latency.

Regenerates the blocking-write profile (~850 ns raw, ~981 ns Split-C)
including the remote off-page sensitivity.
"""

import pytest

from repro.microbench import probes
from tests.paper import paperdata as paper

KB = 1024
SIZES = [16 * KB, 64 * KB, 256 * KB]


def test_fig5_remote_write():
    raw = probes.remote_write_probe(mechanism="blocking", sizes=SIZES)
    splitc = probes.remote_write_probe(mechanism="splitc", sizes=SIZES)

    assert raw.at(64 * KB, 32).avg_ns == pytest.approx(
        paper.BLOCKING_WRITE_NS, rel=0.03)
    assert splitc.at(64 * KB, 32).avg_ns == pytest.approx(
        paper.SPLITC_WRITE_NS, rel=0.03)
    # Off-page at 16 KB strides raises the acknowledged write too.
    assert (raw.at(256 * KB, 16 * KB).avg_cycles
            > raw.at(64 * KB, 32).avg_cycles + 10.0)
