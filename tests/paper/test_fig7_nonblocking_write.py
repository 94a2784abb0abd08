"""Figure 7: non-blocking remote write latency profile.

Regenerates the store profile: write-merging below 32-byte strides
(like Figure 2), ~115 ns / 17 cycles per non-merged store, the 16 KB
off-page inflection at the remote memory controller, and the Split-C
put at ~300 ns / 45 cycles.
"""

import pytest

from repro.microbench import probes
from tests.paper import paperdata as paper

KB = 1024
SIZES = [16 * KB, 64 * KB, 256 * KB]


def test_fig7_nonblocking_write():
    store = probes.nonblocking_write_probe(mechanism="store", sizes=SIZES)
    put = probes.nonblocking_write_probe(mechanism="splitc", sizes=SIZES)

    assert store.at(64 * KB, 32).avg_ns == pytest.approx(
        paper.NONBLOCKING_STORE_NS, rel=0.03)
    # Merging below line strides, as in Figure 2.
    assert store.at(64 * KB, 8).avg_cycles < 0.4 * store.at(
        64 * KB, 32).avg_cycles
    # Remote off-page inflection at 16 KB strides.
    assert (store.at(256 * KB, 16 * KB).avg_cycles
            > 1.15 * store.at(64 * KB, 32).avg_cycles)
    # Split-C put ~45 cycles / 300 ns.
    assert put.at(64 * KB, 32).avg_ns == pytest.approx(
        paper.SPLITC_PUT_NS, rel=0.03)
