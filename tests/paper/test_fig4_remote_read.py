"""Figure 4: remote read latency — uncached, cached, and Split-C.

Regenerates the remote-read latency profiles and checks: ~610 ns
uncached, ~765 ns cached, ~850 ns full Split-C read; the ~100 ns
remote off-page penalty at 16 KB strides; and the cached-read dips at
8/16-byte strides where a fetched line prefetches the next accesses.
"""

import pytest

from repro.microbench import probes
from tests.paper import paperdata as paper

KB = 1024
SIZES = [16 * KB, 64 * KB, 256 * KB]


def test_fig4_remote_read():
    uncached, cached, splitc = (
        probes.remote_read_probe(mechanism=mech, sizes=SIZES)
        for mech in ("uncached", "cached", "splitc"))

    assert uncached.at(64 * KB, 32).avg_ns == pytest.approx(
        paper.UNCACHED_READ_NS, rel=0.02)
    assert cached.at(64 * KB, 32).avg_ns == pytest.approx(
        paper.CACHED_READ_NS, rel=0.02)
    assert splitc.at(64 * KB, 32).avg_ns == pytest.approx(
        paper.SPLITC_READ_NS, rel=0.02)

    # Remote off-page penalty (~100 ns) at 16 KB strides on big arrays.
    off_page = (uncached.at(256 * KB, 16 * KB).avg_ns
                - uncached.at(64 * KB, 32).avg_ns)
    assert off_page == pytest.approx(paper.REMOTE_OFF_PAGE_NS, abs=70.0)
    assert off_page > 60.0

    # Cached reads prefetch line neighbors at strides below 32 bytes.
    assert (cached.at(64 * KB, 8).avg_cycles
            < 0.4 * cached.at(64 * KB, 32).avg_cycles)
    assert cached.at(64 * KB, 16).avg_cycles < cached.at(
        64 * KB, 32).avg_cycles

    # Uncached remote read is only 3-4x a local memory access (4.2).
    ratio = uncached.at(64 * KB, 32).avg_cycles / 22.0
    assert 3.0 <= ratio <= 4.5
