"""Span arithmetic and wrapper installation of ``bench.layers``."""

import pytest

from bench import layers


class FakeClock:
    """``perf_counter`` stand-in: time moves only when work is done."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers, "perf_counter", fake)
    return fake


def test_self_time_of_a_nested_call_tree(clock):
    ledger = layers.SpanLedger()

    def wrap(fn, layer):
        return layers._wrap_function(ledger, fn, layer, fn.__name__)

    def apps_h():
        clock.work(8)

    def node_g2():                 # same layer as its caller: no span
        clock.work(1)

    def node_g():
        clock.work(4)
        g2()
        h()
        clock.work(16)

    def apps_f():
        clock.work(2)
        g()
        clock.work(32)

    h, g2, g, f = (wrap(apps_h, "apps"), wrap(node_g2, "node"),
                   wrap(node_g, "node"), wrap(apps_f, "apps"))
    ledger.open()
    clock.work(1)
    f()
    clock.work(64)
    ledger.close()
    assert ledger.wall_s == 128
    assert ledger.self_s["apps"] == 2 + 32 + 8
    assert ledger.self_s["node"] == 4 + 1 + 16
    assert ledger.self_s["bench"] == 1 + 64
    assert sum(ledger.self_s.values()) == ledger.wall_s
    assert dict(ledger.boundaries) == {("bench", "apps"): 1,
                                       ("apps", "node"): 1,
                                       ("node", "apps"): 1}
    assert ledger.calls["apps"] == 2 and ledger.calls["node"] == 1
    assert {name for name, *_ in ledger.spans} == {"apps_f", "node_g",
                                                   "apps_h"}


def test_generator_resumptions_are_spans_of_their_layer(clock):
    ledger = layers.SpanLedger()

    def blocking():
        clock.work(1)
        sent = yield "cond"
        clock.work(2)
        return sent * 10

    def program():
        clock.work(4)
        result = yield from wrapped()
        clock.work(8)
        return result

    wrapped = layers._wrap_function(ledger, blocking, "machine", "blocking")
    ledger.open()
    gen = program()
    assert next(gen) == "cond"
    with pytest.raises(StopIteration) as stop:
        gen.send(7)
    ledger.close()
    assert stop.value.value == 70
    assert ledger.self_s["machine"] == 3
    assert ledger.self_s["bench"] == 12
    assert ledger.calls["machine"] == 1


def test_wrappers_reach_aliases_and_are_removed():
    import bench.workloads as workloads
    from repro.apps import em3d
    from repro.apps.em3d import kernels
    from repro.microbench import probes
    from repro.node.memsys import MemorySystem
    from repro.reporting import experiments

    original = kernels.run_em3d
    ledger = layers.SpanLedger()
    with layers.installed(ledger):
        wrapper = kernels.run_em3d
        assert wrapper.__wrapped__ is original
        # ``from repro.apps.em3d import run_em3d`` aliases, in the
        # package, in another layer and in the benchmark itself.
        assert em3d.run_em3d is wrapper
        assert experiments.run_em3d is wrapper
        assert workloads.run_em3d is wrapper
        # A module-level table of functions.
        assert hasattr(probes.READ_MECHANISMS["blt"], "__wrapped__")
        assert hasattr(MemorySystem.read, "__wrapped__")
    assert kernels.run_em3d is original
    assert em3d.run_em3d is original and workloads.run_em3d is original
    assert not hasattr(probes.READ_MECHANISMS["blt"], "__wrapped__")
    assert not hasattr(MemorySystem.read, "__wrapped__")
    assert isinstance(vars(MemorySystem)["local_addr"], staticmethod)


def test_program_bodies_are_charged_to_their_layer():
    from repro.apps.em3d import make_graph, run_em3d
    from repro.machine.machine import Machine
    from repro.params import t3d_machine_params

    graph = make_graph(4, 16, 4, 0.3, seed=5)
    plain = run_em3d(Machine(t3d_machine_params((2, 2, 1))), graph, "put")
    ledger = layers.SpanLedger()
    with layers.installed(ledger):
        ledger.open()
        traced = run_em3d(Machine(t3d_machine_params((2, 2, 1))), graph,
                          "put")
        ledger.close()
    assert traced.e_values == plain.e_values
    assert traced.cycles_per_edge == plain.cycles_per_edge
    assert ledger.boundaries["machine", "apps"] > 0     # resumed programs
    assert ledger.self_s["apps"] > 0 and ledger.self_s["node"] > 0
    assert sum(ledger.self_s.values()) == pytest.approx(ledger.wall_s)
