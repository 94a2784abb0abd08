"""The weak-scaling curve and the event layer at full machine scale.

The ordinary suite checks EM3D weak scaling at 16 and 64 processors
(``tests/paper/test_em3d_weak_scaling.py``).  This gated suite adds
the 256- and 1024-processor points under the same flatness bound, and
drives the 1024-processor point through the observability layer end
to end, holding the output to the registered schemas: every
ring-buffer record validates, the per-event counters are consistent
with emission, and the per-primitive counter harvest spans all 1024
processor instances.

Gated behind ``REPRO_SCALING_FULL`` (a traced full-scale run takes on
the order of a minute: tracing forces ``put_scatter``'s streamed runs
back to the generic per-element loop, which is itself part of what this
test exercises).
"""

import os

import pytest

from repro import tiers
from repro.apps.em3d import make_graph, run_em3d
from repro.machine.machine import Machine
from repro.network.torus import balanced_torus_shape
from repro.params import t3d_machine_params
from repro.trace import tracer as trace
from repro.trace.events import validate_record
from tests.paper.test_em3d_weak_scaling import (
    FLATNESS_BOUND,
    LARGE_DEGREE,
    LARGE_NODES_PER_PE,
    assert_flat,
    run_curve,
)

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_SCALING_FULL", "").strip(),
    reason="full-scale traced run; set REPRO_SCALING_FULL=1")

NUM_PES = 1024
NODES_PER_PE = 64
DEGREE = 6
FRACTION = 0.3
RING_CAPACITY = 1 << 16


def test_em3d_weak_scaling_through_1024_pes():
    assert_flat(run_curve((16, 64, 256, 1024), LARGE_NODES_PER_PE,
                          LARGE_DEGREE), FLATNESS_BOUND)


def test_traced_1024_pe_em3d_is_well_formed():
    graph = make_graph(NUM_PES, NODES_PER_PE, DEGREE, FRACTION,
                       seed=1995)
    with trace.tracing(ring_capacity=RING_CAPACITY) as tracer:
        # The machine is built inside the traced region so every unit
        # registers as a counter provider.
        machine = Machine(t3d_machine_params(
            balanced_torus_shape(NUM_PES)))
        result = run_em3d(machine, graph, "put", steps=1,
                          warmup_steps=0)

    assert result.us_per_edge > 0

    # The run emitted at primitive frequency: far more events than the
    # bounded ring retains, and the ring holds exactly its capacity.
    assert tracer.events_emitted > RING_CAPACITY
    assert len(tracer.ring) == RING_CAPACITY
    for record in tracer.ring:
        validate_record(record)

    # Counter totals are consistent with emission, and the phase-level
    # events the EM3D kernels emit arrived from all over the machine.
    assert sum(c.count for c in tracer.counters.values()) \
        == tracer.events_emitted
    fills = tracer.counters["annex_ghost_fill"]
    # Two half-steps per processor (steps=1, warmup=0).
    assert fills.count == 2 * NUM_PES
    assert tracer.counters["barrier_start"].count % NUM_PES == 0
    if tiers.fast():
        assert tracer.counters["cohort_round"].count > 0

    # The provider harvest spans the whole machine: every per-node
    # unit kind reports one instance per processor, and the hardware
    # counters actually moved.
    harvested = tracer.provider_counters()
    for kind in ("write_buffer", "dram", "remote",
                 "annex", "prefetch", "msgqueue", "blt", "tlb"):
        assert harvested[kind]["instances"] == NUM_PES, kind
    assert harvested["cache"]["instances"] >= NUM_PES
    assert harvested["barrier"]["instances"] == 1
    assert harvested["barrier"]["barriers_completed"] > 0
    assert harvested["cache"]["hits"] > 0
    assert harvested["dram"]["row_misses"] > 0
    assert harvested["remote"]["stores"] > 0
