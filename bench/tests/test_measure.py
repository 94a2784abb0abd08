"""The measurement loop counts every kind of failed iteration."""

import time

import pytest

from bench import child
from bench.workloads import CheckFailed, Workload


class Scripted(Workload):
    """Iteration ``i`` returns ``outputs[i]``; an exception is raised."""

    name = "scripted"
    work_unit = "op"

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = 0

    def iterate(self, inputs):
        out = self.outputs[self.calls % len(self.outputs)]
        self.calls += 1
        if isinstance(out, Exception):
            raise out
        return out

    def check(self, inputs, out):
        if out < 0:
            raise CheckFailed("negative")

    def work(self, inputs, out):
        return 10

    def canonical(self, out):
        return out


@pytest.fixture(autouse=True)
def short_reference(monkeypatch):
    monkeypatch.setattr(child, "REFERENCE_STEPS", 1000)


@pytest.fixture
def run(monkeypatch):
    """Attempt exactly ``outputs``: the first is the warm-up."""
    def measure(outputs):
        monkeypatch.setattr(child, "MIN_ITERATIONS",
                            len(outputs) - child.WARMUP_ITERATIONS)
        return child.measure(Scripted(outputs), None, seconds=0.0)
    return measure


def test_clean_run_has_no_failures(run):
    result = run([1, 1, 1, 1])
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert result["wall"]["n"] == result["rel"]["n"] == 3
    assert result["sim_work"] == 10
    assert result["sim_work_per_s"] == 10 / result["wall"]["median"]
    assert result["digest"] == Scripted([1]).digest(1)


def test_rel_pairs_each_iteration_with_its_reference(run):
    result = run([1, 1, 1])
    assert result["rel"]["samples"] == [
        wall / ref for wall, ref in zip(result["wall"]["samples"],
                                        result["ref"]["samples"])]


def test_warm_up_is_checked(run):
    result = run([-1, 1, 1])
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert "iteration 1: check failed" in result["errors"][0]


@pytest.mark.parametrize("fault, reason", [
    (RuntimeError("injected"), "raised RuntimeError"),
    (-1, "check failed"),
    (2, "differs from iteration 1"),
])
def test_one_faulty_iteration_raises_fail_frac(run, fault, reason):
    result = run([1, fault, 1, 1])
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert len(result["errors"]) == 1 and reason in result["errors"][0]


def test_time_budget_sets_the_iteration_count():
    class Slow(Scripted):
        def iterate(self, inputs):
            time.sleep(0.01)
            return super().iterate(inputs)

    result = child.measure(Slow([1]), None, seconds=0.05)
    timed = sum(result["wall"]["samples"]) + sum(result["ref"]["samples"])
    assert timed >= 0.05
    assert 5 <= result["wall"]["n"] <= 6
    assert result["attempted"] == result["wall"]["n"] + 1
