"""Figure 1: local read latency — T3D node vs DEC Alpha workstation.

Regenerates both panels of Figure 1 (latency vs stride, one curve per
array size) and checks the structural findings the paper reads off
them: the 8 KB / 1-cycle L1 plateau, the 22-cycle memory plateau with
a 32-byte line knee, direct mapping, the DRAM page rise at 16 KB
strides and the 40-cycle same-bank worst case, the *absence* of L2 and
TLB effects on the T3D — and their presence on the workstation.
"""

import pytest

from repro.microbench import probes
from repro.microbench.analyze import analyze_read_curves
from repro.microbench.harness import default_sizes
from repro.node.memsys import t3d_memory_system, workstation_memory_system
from tests.paper import paperdata as paper

KB = 1024


def test_fig1_local_read():
    t3d_curves = probes.local_read_probe(
        t3d_memory_system(), sizes=default_sizes(hi=1024 * KB))
    ws_curves = probes.local_read_probe(
        workstation_memory_system(), sizes=default_sizes(hi=2048 * KB),
        min_footprint=2048 * KB)
    t3d = analyze_read_curves(t3d_curves)
    ws = analyze_read_curves(ws_curves)

    # T3D panel (left).
    assert t3d_curves.at(4 * KB, 8).avg_ns == pytest.approx(
        paper.LOCAL_READ_HIT_NS, rel=0.01)
    assert t3d.l1_size == 8 * KB
    assert t3d.line_bytes == 32
    assert t3d.direct_mapped
    assert t3d.memory_cycles == pytest.approx(paper.LOCAL_MEMORY_CYCLES,
                                              abs=1.0)
    assert not t3d.has_l2
    assert t3d.dram_page_rise_stride == 16 * KB
    assert not t3d.tlb_visible
    assert t3d.worst_case_cycles * 20 / 3 == pytest.approx(
        paper.SAME_BANK_TOTAL_NS, rel=0.02)

    # Workstation panel (right).
    assert ws.has_l2 and ws.l2_size == 512 * KB
    assert ws.memory_cycles * 20 / 3 == pytest.approx(paper.WS_MEMORY_NS,
                                                      rel=0.05)
    assert ws.tlb_visible and ws.tlb_page_bytes == 8 * KB
