"""T4 (section 5.2): the prefetch cost breakdown.

issue 4 / memory barrier 4 / round trip 80 / pop 23 cycles; ~75% of a
remote fetch overlaps with useful work; 31 cycles per element at group
size 16 with only ~4 cycles of exposed latency.
"""

import pytest

from repro.microbench import probes
from tests.paper import paperdata as paper


def test_tab_prefetch_breakdown():
    h = probes.measure_headlines()
    group16 = h["prefetch_per_element_16"]
    single = probes.prefetch_group_probe(groups=[1])[0].cycles_per_element

    assert h["prefetch_issue"] == pytest.approx(paper.PREFETCH_ISSUE_CYCLES)
    assert h["memory_barrier"] == pytest.approx(paper.PREFETCH_MB_CYCLES)
    assert h["prefetch_round_trip"] == pytest.approx(
        paper.PREFETCH_ROUND_TRIP_CYCLES)
    assert h["prefetch_pop"] == pytest.approx(paper.PREFETCH_POP_CYCLES)
    assert group16 == pytest.approx(paper.PREFETCH_GROUP16_CYCLES, abs=3.0)

    # ~75% of the remote fetch cost overlaps at full depth.
    overlapped = 1.0 - (group16 - paper.PREFETCH_POP_CYCLES
                        - paper.PREFETCH_ISSUE_CYCLES) / single
    assert overlapped > 0.9
