"""T7 (section 6.3): the bulk-transfer crossover arithmetic.

BLT start-up 180 us; the prefetch pipe moves ~7,900 bytes in that
time, fixing the bulk-get crossover; blocking bulk reads switch to the
BLT near 16 KB; the BLT read peaks near 140 MB/s.  The "compiler"
derives these thresholds from measurements.  The ~90 MB/s store peak
is checked, on the same probe point, by ``test_fig8_bulk_bandwidth.py``.
"""

import pytest

from repro.machine.machine import Machine
from repro.microbench import probes
from repro.params import cycles_to_us, mb_per_s, t3d_machine_params
from repro.splitc.codegen import Measurements, derive_plan
from tests.paper import paperdata as paper

KB = 1024


def test_tab_bulk_crossover():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    startup, _ = machine.node(0).blt.start_read(0.0, 1, 0, 0x100000, 8)
    h = probes.measure_headlines()
    plan = derive_plan(Measurements(
        uncached_read_cycles=h["uncached_read"],
        cached_read_cycles=h["cached_read"],
        annex_update_cycles=h["annex_update"],
        prefetch_per_word_cycles=h["prefetch_per_element_16"],
    ))
    blt_bw = mb_per_s(1024 * KB, machine.node(0).blt.read_blocking(
        1e6, 1, 0, 0x200000, 1024 * KB))

    assert cycles_to_us(startup) == pytest.approx(paper.BLT_STARTUP_US,
                                                  rel=0.01)
    assert plan.bulk_read_blt_threshold == paper.BULK_READ_BLT_CROSSOVER
    assert plan.bulk_get_blt_threshold == pytest.approx(
        paper.BULK_GET_BLT_CROSSOVER, rel=0.15)
    assert blt_bw == pytest.approx(paper.BLT_PEAK_MB_S, rel=0.05)
    assert plan.bulk_write_blt_threshold is None   # stores always win
