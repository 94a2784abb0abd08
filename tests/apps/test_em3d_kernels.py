"""Integration tests for the six EM3D versions (paper section 8)."""

import pytest

from repro.apps.em3d import VERSIONS, make_graph, run_em3d
from repro.apps.em3d.graph import initial_values
from repro.apps.em3d.reference import reference_run
from repro.machine.machine import Machine
from repro.params import t3d_machine_params

STEPS = 2
WARMUP = 1


@pytest.fixture(scope="module")
def graph():
    return make_graph(num_pes=4, nodes_per_pe=24, degree=4,
                      remote_fraction=0.35, seed=11)


@pytest.fixture(scope="module")
def reference(graph):
    e0 = initial_values(graph, "e")
    h0 = initial_values(graph, "h")
    return reference_run(graph, e0, h0, steps=STEPS + WARMUP)


def fresh_machine():
    return Machine(t3d_machine_params((2, 2, 1)))


@pytest.mark.parametrize("version", VERSIONS)
def test_version_matches_reference(graph, reference, version):
    ref_e, ref_h = reference
    result = run_em3d(fresh_machine(), graph, version,
                      steps=STEPS, warmup_steps=WARMUP)
    for pe in range(graph.num_pes):
        for i in range(graph.nodes_per_pe):
            assert result.e_values[pe][i] == pytest.approx(ref_e[pe][i])
            assert result.h_values[pe][i] == pytest.approx(ref_h[pe][i])


def test_figure9_ordering():
    """The optimization ladder of Figure 9 at a mixed remote fraction:
    ghosts beat simple, pipelining beats blocking, puts beat gets,
    bulk is best.

    Uses a larger graph than the correctness tests: the put version's
    advantage is barrier-gated, so it needs per-processor send counts
    balanced enough (as the paper's 500-node, degree-20 graphs are)
    not to drown in load-imbalance noise.
    """
    big = make_graph(num_pes=4, nodes_per_pe=80, degree=8,
                     remote_fraction=0.35, seed=11)
    times = {
        v: run_em3d(fresh_machine(), big, v,
                    steps=STEPS, warmup_steps=WARMUP).us_per_edge
        for v in VERSIONS
    }
    assert times["bundle"] < times["simple"]
    assert times["unroll"] <= times["bundle"]
    assert times["get"] < times["unroll"]
    assert times["put"] < times["get"]
    assert times["bulk"] < times["put"]


def test_all_local_versions_converge():
    """With no remote edges the versions differ only in compute-phase
    code quality (the left edge of Figure 9)."""
    local = make_graph(num_pes=4, nodes_per_pe=24, degree=4,
                       remote_fraction=0.0, seed=11)
    times = {
        v: run_em3d(fresh_machine(), local, v,
                    steps=1, warmup_steps=1).us_per_edge
        for v in ("simple", "bundle", "bulk")
    }
    assert times["simple"] == pytest.approx(times["bundle"], rel=0.15)
    assert times["bulk"] <= times["bundle"]


def test_cost_grows_with_remote_fraction():
    times = []
    for frac in (0.0, 0.3, 0.8):
        g = make_graph(num_pes=4, nodes_per_pe=24, degree=4,
                       remote_fraction=frac, seed=11)
        times.append(run_em3d(fresh_machine(), g, "get",
                              steps=1, warmup_steps=1).us_per_edge)
    assert times[0] < times[1] < times[2]


def test_result_metadata(graph):
    result = run_em3d(fresh_machine(), graph, "put",
                      steps=STEPS, warmup_steps=WARMUP)
    assert result.version == "put"
    assert len(result.per_pe_cycles_per_edge) == 4
    assert result.us_per_edge == pytest.approx(
        result.cycles_per_edge / 150.0, rel=1e-6)


def test_unknown_version_rejected(graph):
    with pytest.raises(ValueError):
        run_em3d(fresh_machine(), graph, "warp-speed")


def test_sweep_driver_structure():
    from repro.apps.em3d.driver import sweep

    points = sweep(fractions=(0.0, 0.4), versions=("simple", "bulk"),
                   nodes_per_pe=20, degree=3, shape=(2, 1, 1))
    assert len(points) == 4
    assert [p.version for p in points] == ["simple", "bulk"] * 2
    # Realized fraction tracks the request.
    assert points[0].realized_fraction == 0.0
    assert points[2].realized_fraction == pytest.approx(0.4, abs=0.15)
    # More communication costs more, for both versions.
    assert points[2].us_per_edge > points[0].us_per_edge
    assert points[3].us_per_edge > points[1].us_per_edge


def _per_edge_setup(machine, graph, version, seed=7):
    """The per-edge construction of the EM3D memory image (the oracle
    for ``kernels._setup``): one Python iteration and one encoded
    global pointer or ghost-slot lookup per edge."""
    from repro.apps.em3d.kernels import VALUE_BYTES
    from repro.splitc.gptr import GlobalPtr

    n = graph.nodes_per_pe
    plans = {"e": graph.e_plan, "h": graph.h_plan}
    max_ghosts = max(1, *(len(plan.ghost_slot[pe]) for plan in plans.values()
                          for pe in range(graph.num_pes)))
    gather_pair_words = max(
        (len(idxs) for plan in plans.values() for by_src in plan.needed
         for idxs in by_src.values()), default=1) or 1
    adj_bytes = n * graph.degree * 2 * 8
    vals = {"e": machine.symmetric_segment(n, "f8", VALUE_BYTES),
            "h": machine.symmetric_segment(n, "f8", VALUE_BYTES)}
    ghosts = {"e": machine.symmetric_alloc(max_ghosts * VALUE_BYTES),
              "h": machine.symmetric_alloc(max_ghosts * VALUE_BYTES)}
    adj = {"e": machine.symmetric_alloc(adj_bytes),
           "h": machine.symmetric_alloc(adj_bytes)}
    machine.symmetric_segment(graph.num_pes * gather_pair_words, "f8", 8)
    stride = 8 if version == "bulk" else VALUE_BYTES
    e0 = initial_values(graph, "e", seed)
    h0 = initial_values(graph, "h", seed)
    for pe in range(graph.num_pes):
        mem = machine.node(pe).memsys.memory
        mem.alloc_segment(ghosts["e"], max_ghosts, "f8", stride)
        mem.alloc_segment(ghosts["h"], max_ghosts, "f8", stride)
        mem.segment_at(vals["e"]).fill(0, e0[pe])
        mem.segment_at(vals["h"]).fill(0, h0[pe])
        for direction, other in (("e", "h"), ("h", "e")):
            refs, weights = [], []
            for edges in graph.adjacency(direction, pe):
                for owner, idx, weight in edges:
                    addr = vals[other] + idx * VALUE_BYTES
                    if version == "simple":
                        ref = GlobalPtr(owner, addr).encode()
                    elif owner == pe:
                        ref = addr
                    else:
                        ref = ghosts[direction] + plans[direction].ghost_slot[
                            pe][(owner, idx)] * stride
                    refs.append(ref)
                    weights.append(weight)
            mem.alloc_segment(adj[direction], len(refs), "i8", 16).fill(
                0, refs)
            mem.alloc_segment(adj[direction] + 8, len(refs), "f8", 16).fill(
                0, weights)


def _image(machine):
    return [[(addr, type(value), value)
             for addr, value in sorted(node.memsys.memory.items())]
            for node in machine.nodes]


@pytest.mark.parametrize("node", ["t3d", "workstation"])
@pytest.mark.parametrize("frac", [0.0, 0.3, 1.0])
def test_setup_image_equals_per_edge_construction(node, frac):
    """Every segment word of the array-built set-up, for all seven
    versions, equals the per-edge construction's."""
    from dataclasses import replace

    from repro.apps.em3d.kernels import _setup
    from repro.params import workstation_node_params

    params = t3d_machine_params((2, 2, 1))
    if node == "workstation":
        params = replace(params, node=workstation_node_params())
    g = make_graph(num_pes=4, nodes_per_pe=9, degree=3,
                   remote_fraction=frac, seed=4)
    for version in VERSIONS:
        got, want = Machine(params), Machine(params)
        _setup(got, g, version)
        _per_edge_setup(want, g, version)
        assert _image(got) == _image(want), version
        assert [n.heap.high_water for n in got.nodes] == \
            [n.heap.high_water for n in want.nodes]
