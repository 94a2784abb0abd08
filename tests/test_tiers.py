"""The one switch: ``repro.tiers.reference()`` turns every fast path off.

Each fast path reads :func:`repro.tiers.fast` at the grain it decides
at — a probe build, a transfer, a compute block, an exchange phase, a
run — so flipping the switch around a call is enough to send that call
down its reference branch.  These tests watch the branch each one
takes, and check that the switch comes back after an exception.
"""

from __future__ import annotations

import os

import pytest

from repro import tiers, vector
from repro.apps.em3d import kernels
from repro.apps.em3d.graph import make_graph
from repro.machine.cohort import cohort_enabled
from repro.machine.machine import Machine
from repro.microbench import probes
from repro.node.memsys import MemorySystem
from repro.params import WORD_BYTES, t3d_machine_params
from repro.shell.remote import RemoteAccessUnit
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from repro.splitc import runtime
from repro.splitc.runtime import SplitC


@pytest.fixture(autouse=True)
def _fast_paths_on(monkeypatch):
    monkeypatch.delenv(tiers.ENV, raising=False)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _pair_runtime():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    return SplitC(machine.make_contexts()[0])


def test_switch_reads_off_inside_reference():
    assert tiers.fast() and vector.enabled() and cohort_enabled()
    with tiers.reference():
        assert not tiers.fast()
        assert not vector.enabled()
        assert not cohort_enabled()
        assert probes._local_read_sweep(
            MemorySystem(t3d_machine_params().node)) is None
    assert tiers.fast() and vector.enabled() and cohort_enabled()


def test_state_restored_after_exception(monkeypatch):
    with pytest.raises(RuntimeError):
        with tiers.reference():
            raise RuntimeError("inside")
    assert tiers.fast()
    monkeypatch.setenv(tiers.ENV, "yes")
    with pytest.raises(RuntimeError):
        with tiers.reference():
            raise RuntimeError("inside")
    assert tiers.fast()
    assert os.environ[tiers.ENV] == "yes"


def test_bulk_transfer_takes_reference_branch(monkeypatch):
    planned = _count_calls(monkeypatch, RemoteAccessUnit, "plan_uncached")
    per_word = _count_calls(monkeypatch, RemoteAccessUnit, "uncached_read")
    nwords = 8
    bulk.bulk_read_uncached(_pair_runtime(), 0x6000, GlobalPtr(1, 0),
                            nwords * WORD_BYTES)
    assert (len(planned), len(per_word)) == (1, 0)
    with tiers.reference():
        bulk.bulk_read_uncached(_pair_runtime(), 0x6000, GlobalPtr(1, 0),
                                nwords * WORD_BYTES)
    assert (len(planned), len(per_word)) == (1, nwords)


def test_remote_read_probe_takes_reference_branch(monkeypatch):
    planned = _count_calls(monkeypatch, RemoteAccessUnit, "plan_uncached")
    per_read = _count_calls(monkeypatch, RemoteAccessUnit, "uncached_read")

    def run():
        probes.remote_read_probe(Machine(t3d_machine_params((2, 1, 1))),
                                 sizes=[4096], memo_key=None)

    run()
    assert planned and not per_read
    del planned[:]
    with tiers.reference():
        run()
    assert per_read and not planned


def test_em3d_compute_block_takes_reference_branch(monkeypatch):
    planned = _count_calls(monkeypatch, kernels, "_planned_rows")
    per_access = _count_calls(monkeypatch, kernels, "_reference_rows")

    def run():
        graph = make_graph(num_pes=2, nodes_per_pe=8, degree=3,
                           remote_fraction=0.0, seed=5)
        kernels.run_em3d(Machine(t3d_machine_params((2, 1, 1))), graph,
                         "unroll", steps=1, warmup_steps=0)

    run()
    assert planned and not per_access
    del planned[:]
    with tiers.reference():
        run()
    assert per_access and not planned


def test_put_scatter_takes_reference_branch(monkeypatch):
    generic = _count_calls(monkeypatch, SplitC, "put_to")
    nputs = runtime._MIN_STREAMED_PUTS
    groups = [(1, [(0x100 + 8 * i, 0x6000 + 8 * i) for i in range(nputs)])]
    _pair_runtime().put_scatter(groups)
    assert generic == []
    with tiers.reference():
        _pair_runtime().put_scatter(groups)
    assert len(generic) == nputs
