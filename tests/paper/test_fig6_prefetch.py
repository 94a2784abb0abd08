"""Figure 6: prefetch latency vs group size, raw and Split-C get.

Regenerates the amortization curve: one prefetch+pop is ~15-20 cycles
slower than a blocking read, but groups pipeline the network and the
per-element cost approaches ~31 cycles at the 16-entry queue depth —
the paper's evidence that 16 is a reasonable FIFO size.
"""

import pytest

from repro.microbench import probes
from tests.paper import paperdata as paper


def test_fig6_prefetch():
    groups = list(range(1, 17))
    raw = probes.prefetch_group_probe(groups=groups)
    get = probes.splitc_get_group_probe(groups=groups)
    by_group = {g.group: g.cycles_per_element for g in raw}

    # Single prefetch ~15-25 cycles over a blocking read (91 cycles).
    assert 10.0 <= by_group[1] - 91.0 <= 30.0
    # Monotone amortization toward ~31 cycles at depth 16.
    assert by_group[1] > by_group[2] > by_group[4] > by_group[8]
    assert by_group[16] == pytest.approx(paper.PREFETCH_GROUP16_CYCLES,
                                         abs=3.0)
    # Latency mostly hidden at the full queue depth: subtracting the
    # pop and issue leaves only a few cycles of exposed latency.
    exposed = (by_group[16] - paper.PREFETCH_POP_CYCLES
               - paper.PREFETCH_ISSUE_CYCLES)
    assert exposed < 10.0
    # Split-C get adds table + local-store overhead at every group.
    get_by_group = {g.group: g.cycles_per_element for g in get}
    assert all(get_by_group[k] > by_group[k] for k in by_group)
