"""BENCHMARK.json keeps its fixed keys and stays inside its limits on
names, units, counts and bounds."""

import re

from bench import load_spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SPEC = load_spec()


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 1 <= len(SPEC["command"]) <= 32
    assert not any(arg.startswith("/") or ".." in arg
                   for arg in SPEC["command"])


def test_names_units_and_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_registry():
    from bench.workloads import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_names_match_the_ledger():
    from bench import layers
    _out, counts, shell_ops = layers.counter_pass(lambda: None)
    ledger = layers.SpanLedger()
    ledger.open()
    ledger.close()
    metrics = layers.per_layer_metrics(ledger, counts, shell_ops, 1.0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
