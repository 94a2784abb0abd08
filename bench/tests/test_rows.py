"""At the figures' seed, the benchmark times exactly what EXPERIMENTS.md
reports: its F1/F2/F8/F9 rows equal the experiment runners' rows."""

from bench import DEFAULT_SEED, workloads
from repro.microbench import harness, probes


def runner_rows(exp_id):
    return workloads._experiment(exp_id).run(quick=False)[0]


def test_probe_sweep_rows_and_accesses(monkeypatch):
    requested = []
    real_specs = harness.stride_point_specs
    real_stream = probes.streaming_bandwidth_probe

    def specs(*args, **kwargs):
        out = real_specs(*args, **kwargs)
        requested.append(3 * sum(spec.naccesses for spec in out))
        return out

    def stream(memsys, nbytes):
        requested.append(nbytes // 8)
        return real_stream(memsys, nbytes)

    monkeypatch.setattr(harness, "stride_point_specs", specs)
    monkeypatch.setattr(probes, "streaming_bandwidth_probe", stream)
    workload = workloads.ProbeSweeps()
    inputs = workload.setup(DEFAULT_SEED)
    out = workload.iterate(inputs)
    workload.check(inputs, out)
    assert sum(requested) == workload.work(inputs, out)
    monkeypatch.undo()
    assert out["F1"][0] == runner_rows("F1")
    assert out["F2"][0] == runner_rows("F2")


def test_bulk_transfer_f8_rows():
    workload = workloads.BulkTransfer()
    out = workload.iterate(workload.setup(DEFAULT_SEED))
    workload.check(None, out)
    assert workloads.fig8_rows(out["reads"], out["writes"]) \
        == runner_rows("F8")


def test_em3d_fig9_rows():
    workload = workloads.Em3dFig9()
    inputs = workload.setup(DEFAULT_SEED)
    out = workload.iterate(inputs)
    workload.check(inputs, out)
    assert workload.paper_rows(out) == runner_rows("F9/T8")
