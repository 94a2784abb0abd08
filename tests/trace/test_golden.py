"""Golden equivalence: tracing must observe the model, never perturb it.

The acceptance bar for the instrumentation layer is that a traced run
and an untraced run measure *identical* latencies — the hooks only
read state that the model already computed.  These tests run real
experiments both ways and diff the measured rows exactly.
"""

import json

import pytest

from repro.trace import validate_record
from repro.trace import tracer as trace


@pytest.fixture(autouse=True)
def clean_tracer():
    trace.disable()
    trace.TRACER.reset()
    yield
    trace.disable()
    trace.TRACER.reset()


def _run_fig1_quick():
    from repro.reporting.series import generate_series
    return generate_series("fig1", quick=True)


def test_fig1_traced_equals_untraced(tmp_path):
    baseline = _run_fig1_quick()

    path = tmp_path / "fig1.jsonl"
    trace.enable(sink=str(path))
    try:
        traced = _run_fig1_quick()
    finally:
        trace.disable()

    assert traced == baseline                  # identical measured rows

    records = [json.loads(l) for l in path.read_text().splitlines()]
    for record in records:
        validate_record(record)                # schema-valid JSONL


def _run_em3d_small():
    from repro.params import t3d_machine_params
    from repro.machine.machine import Machine
    from repro.apps.em3d.graph import make_graph
    from repro.apps.em3d.kernels import run_em3d, VERSIONS

    results = {}
    for version in VERSIONS:
        machine = Machine(t3d_machine_params((2, 2, 1)))
        graph = make_graph(num_pes=4, nodes_per_pe=10, degree=4,
                           remote_fraction=0.4, seed=11)
        r = run_em3d(machine, graph, version, steps=1, warmup_steps=1)
        results[version] = (r.us_per_edge, r.e_values, r.h_values)
    return results


def test_em3d_all_versions_traced_equals_untraced(tmp_path):
    baseline = _run_em3d_small()

    path = tmp_path / "em3d.jsonl"
    trace.enable(sink=str(path))
    try:
        traced = _run_em3d_small()
    finally:
        trace.disable()

    for version, (us, e_vals, h_vals) in baseline.items():
        t_us, t_e, t_h = traced[version]
        assert t_us == us, version             # bit-identical timing
        assert t_e == e_vals and t_h == h_vals, version

    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert records, "traced run emitted no events"
    distinct = set()
    for record in records:
        validate_record(record)
        distinct.add(record["ev"])
    # The seven EM3D versions together exercise the breadth of the
    # instrumentation: at least 8 distinct event types must appear.
    assert len(distinct) >= 8, sorted(distinct)


def test_counters_consistent_between_fast_and_reference_compute():
    """Unit counters harvested by ``repro counters`` must not depend on
    whether the batched fast compute path ran."""
    from contextlib import nullcontext

    from repro import tiers
    from repro.apps.em3d import kernels
    from repro.params import t3d_machine_params
    from repro.machine.machine import Machine
    from repro.apps.em3d.graph import make_graph

    def run_and_harvest(use_fast):
        with nullcontext() if use_fast else tiers.reference():
            try:
                trace.enable()
                machine = Machine(t3d_machine_params((2, 1, 1)))
                graph = make_graph(num_pes=2, nodes_per_pe=8, degree=3,
                                   remote_fraction=0.3, seed=5)
                kernels.run_em3d(machine, graph, "put", steps=1,
                                 warmup_steps=1)
                merged = trace.TRACER.provider_counters()
            finally:
                trace.disable()
        return merged

    fast = run_and_harvest(True)
    reference = run_and_harvest(False)
    for kind in ("cache", "dram", "write_buffer", "remote", "annex"):
        assert fast[kind] == reference[kind], kind
