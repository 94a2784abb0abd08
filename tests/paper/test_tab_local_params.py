"""T1 (section 2 summary): local memory parameters, recovered by the
gray-box analyzer from curves alone.

The paper's summary: off-chip access ~22-23 cycles, huge pages
eliminate TLB costs, the write buffer holds four entries and merges.
"""

import pytest

from repro.microbench import probes
from repro.microbench.analyze import analyze_read_curves, analyze_write_curves
from repro.microbench.harness import default_sizes
from repro.node.memsys import t3d_memory_system
from tests.paper import paperdata as paper

KB = 1024


def test_tab_local_params():
    reads = probes.local_read_probe(t3d_memory_system(),
                                    sizes=default_sizes(hi=512 * KB))
    writes = probes.local_write_probe(t3d_memory_system(),
                                      sizes=default_sizes(hi=512 * KB))
    rp = analyze_read_curves(reads)
    wp = analyze_write_curves(writes, rp.memory_cycles)

    assert rp.hit_cycles == pytest.approx(1.0)
    assert rp.l1_size == 8 * KB
    assert rp.line_bytes == 32
    assert rp.direct_mapped
    assert rp.memory_cycles == pytest.approx(paper.LOCAL_MEMORY_CYCLES,
                                             abs=1.0)
    assert not rp.has_l2
    assert not rp.tlb_visible            # huge pages (section 2.2)
    assert wp.write_merging
    assert wp.buffer_depth == paper.WRITE_BUFFER_DEPTH
