"""Unit tests for the binding prefetch queue (paper section 5.2)."""

from dataclasses import replace

import pytest

from repro.machine.machine import Machine
from repro.params import WORD_BYTES, t3d_machine_params
from repro.shell.prefetch import QueueFullError


@pytest.fixture
def machine():
    return Machine(t3d_machine_params((2, 1, 1)))


def warm(machine, offset=0):
    machine.node(1).memsys.dram.access(offset)


def test_issue_cost_is_4_cycles(machine):
    warm(machine)
    pf = machine.node(0).prefetch
    assert pf.issue(0.0, 1, 8) == pytest.approx(4.0)
    assert pf.outstanding() == 1


def test_single_prefetch_pop_total(machine):
    """issue(4) + wait(80 round trip) + pop(23) ~= 107 cycles; the
    paper calls this ~15 cycles over a blocking read (91)."""
    warm(machine)
    pf = machine.node(0).prefetch
    t = 0.0 + pf.issue(0.0, 1, 8)
    cycles, _ = pf.pop(t)
    total = t + cycles
    assert total == pytest.approx(4.0 + 80.0 + 23.0)


def test_group_of_16_amortizes_round_trip(machine):
    """Per-element cost at full queue depth approaches pop+issue
    (~27-31 cycles): the network latency is almost entirely hidden."""
    warm(machine)
    pf = machine.node(0).prefetch
    t = 0.0
    for i in range(16):
        t += pf.issue(t, 1, 8 + i * 8)
    for _ in range(16):
        cycles, _ = pf.pop(t)
        t += cycles
    per_op = t / 16
    assert 26.0 <= per_op <= 33.0


def test_pop_returns_values_in_fifo_order(machine):
    mem = machine.node(1).memsys.memory
    for i in range(4):
        mem.store(i * 8, f"w{i}")
    pf = machine.node(0).prefetch
    t = 0.0
    for i in range(4):
        t += pf.issue(t, 1, i * 8)
    got = []
    for _ in range(4):
        cycles, value = pf.pop(t)
        t += cycles
        got.append(value)
    assert got == ["w0", "w1", "w2", "w3"]


def test_queue_depth_enforced(machine):
    pf = machine.node(0).prefetch
    t = 0.0
    for i in range(16):
        t += pf.issue(t, 1, i * 8)
    with pytest.raises(QueueFullError):
        pf.issue(t, 1, 999 * 8)


def test_pop_empty_queue_raises(machine):
    with pytest.raises(RuntimeError):
        machine.node(0).prefetch.pop(0.0)


def test_small_group_needs_barrier(machine):
    pf = machine.node(0).prefetch
    t = pf.issue(0.0, 1, 8)
    assert pf.needs_barrier_before_pop()
    for i in range(1, 4):
        t += pf.issue(t, 1, 8 + i * 8)
    assert not pf.needs_barrier_before_pop()


def test_remote_off_page_delays_ready(machine):
    warm(machine, 0)
    pf = machine.node(0).prefetch
    t = pf.issue(0.0, 1, 16 * 1024)      # new DRAM row at the target
    cycles, _ = pf.pop(t)
    assert t + cycles == pytest.approx(4.0 + 80.0 + 15.0 + 23.0)


def test_extra_hops_extend_round_trip():
    machine = Machine(t3d_machine_params((4, 1, 1)))
    machine.node(2).memsys.dram.access(8)
    pf = machine.node(0).prefetch
    t = pf.issue(0.0, 2, 8)              # two hops instead of one
    cycles, _ = pf.pop(t)
    assert t + cycles == pytest.approx(4.0 + 80.0 + 2 * 2.5 + 23.0)


@pytest.mark.parametrize("off_page", [15.0, 30.0])
def test_prefetch_pays_the_machines_remote_off_page_penalty(off_page):
    """A word in a new row of the open bank costs a prefetch what it
    costs an uncached read: the machine's ``remote_off_page_cycles``
    plus the same-bank penalty, on the issue path and in a planned
    read alike."""
    params = t3d_machine_params((2, 1, 1))
    params = replace(params, shell=replace(params.shell, remote=replace(
        params.shell.remote, remote_off_page_cycles=off_page)))
    penalty = off_page + params.node.dram.same_bank_cycles
    far = 64 * 1024                      # same bank, new row

    def fresh():
        machine = Machine(params)
        warm(machine, 0)
        return machine

    unit = fresh().node(0).remote
    near, _ = unit.uncached_read(0.0, 1, 8)
    cycles, _ = unit.uncached_read(1_000.0, 1, far)
    assert cycles - near == penalty

    pf = fresh().node(0).prefetch
    t = pf.issue(0.0, 1, far)
    cycles, _ = pf.pop(t)
    assert t + cycles == 4.0 + 80.0 + penalty + 23.0

    pf = fresh().node(0).prefetch
    words = range(far, far + 16 * WORD_BYTES, WORD_BYTES)
    _clock, source, _plan = pf.plan_read(0.0, 1, words, 0.0)
    assert source.latency[:2].tolist() == [4.0 + 80.0 + penalty, 4.0 + 80.0]
