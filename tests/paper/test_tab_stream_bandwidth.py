"""T10 (section 2.2): streaming memory bandwidth, T3D vs workstation.

"The T3D can deliver roughly 220 MB/s from memory into the processor
and the workstation only about half that amount" — the vendor's
justification for omitting the L2.
"""

from repro.microbench import probes
from repro.node.memsys import t3d_memory_system, workstation_memory_system
from tests.paper import paperdata as paper

KB = 1024


def test_tab_stream_bandwidth():
    t3d = probes.streaming_bandwidth_probe(t3d_memory_system(),
                                           nbytes=512 * KB)
    ws = probes.streaming_bandwidth_probe(workstation_memory_system(),
                                          nbytes=2048 * KB)

    # Shape: the T3D streams roughly twice the workstation rate.
    assert t3d > 1.7 * ws
    assert t3d > 0.8 * paper.T3D_STREAM_MB_S
    assert ws < 0.65 * t3d
