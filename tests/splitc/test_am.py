"""Integration tests for software Active Messages (paper section 7.4)."""

from dataclasses import replace

import pytest

from repro.machine.machine import Machine
from repro.params import AmParams, WORD_BYTES, cycles_to_us, t3d_machine_params
from repro.splitc.am import ActiveMessages
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import run_splitc


@pytest.fixture
def machine():
    return Machine(t3d_machine_params((2, 1, 1)))


def test_deposit_cost_near_2_9_us(machine):
    def program(sc):
        am = ActiveMessages(sc)
        h = am.register_handler(lambda am_, src, x: x)
        am.attach()
        yield from sc.barrier()
        if sc.my_pe == 0:
            before = sc.ctx.clock
            am.send(1, h, 42)
            return cycles_to_us(sc.ctx.clock - before)
        yield from am.wait_and_dispatch()
        return None

    results, _ = run_splitc(machine, program)
    assert results[0] == pytest.approx(2.9, abs=0.3)


def test_dispatch_cost_near_1_5_us(machine):
    def program2(sc):
        am = ActiveMessages(sc)
        h = am.register_handler(lambda am_, src, x: x)
        am.attach()
        yield from sc.barrier()
        if sc.my_pe == 0:
            am.send(1, h, 7)
        yield from sc.barrier()        # ensure message arrived
        if sc.my_pe == 0:
            return None
        before = sc.ctx.clock
        dispatch = am.poll()
        elapsed = cycles_to_us(sc.ctx.clock - before)
        return (dispatch.result, elapsed)

    results, _ = run_splitc(machine, program2)
    value, elapsed = results[1]
    assert value == 7
    assert elapsed == pytest.approx(1.5, abs=0.3)


def test_handler_runs_on_owner_with_args(machine):
    def program(sc):
        am = ActiveMessages(sc)
        log = []
        h = am.register_handler(
            lambda am_, src, a, b: log.append((src, a + b)))
        am.attach()
        yield from sc.barrier()
        if sc.my_pe == 0:
            am.send(1, h, 3, 4)
            return None
        yield from am.wait_and_dispatch()
        return log

    results, _ = run_splitc(machine, program)
    assert results[1] == [(0, 7)]


def test_fetch_inc_tickets_order_slots(machine):
    def program(sc):
        am = ActiveMessages(sc)
        h = am.register_handler(lambda am_, src, x: x)
        am.attach()
        yield from sc.barrier()
        if sc.my_pe == 0:
            for i in range(5):
                am.send(1, h, i)
            return None
        got = []
        for _ in range(5):
            got.append((yield from am.wait_and_dispatch()))
        # Tickets drew 5 distinct slots at the receiver.
        return (got, sc.ctx.node.atomics.register_value(0))

    results, _ = run_splitc(machine, program)
    got, counter = results[1]
    assert sorted(got) == [0, 1, 2, 3, 4]
    assert counter == 5


def test_poll_on_empty_queue_is_cheap_and_returns_none(machine):
    def program(sc):
        am = ActiveMessages(sc)
        am.attach()
        before = sc.ctx.clock
        result = am.poll()
        return (result, sc.ctx.clock - before)
        yield  # pragma: no cover

    results, _ = run_splitc(machine, program)
    assert results[0] == (None, 23.0)


def test_am_byte_write_is_correct_under_concurrency(machine):
    """The repaired byte store: both processors' bytes survive."""

    def program(sc):
        am = ActiveMessages(sc)
        am.attach()
        base = sc.all_alloc(8)
        target = GlobalPtr(0, base)
        yield from sc.barrier()
        # Both PEs update different bytes of one word on PE 0.
        am.write_byte(target, sc.my_pe, 0xA0 + sc.my_pe)
        yield from sc.barrier()
        if sc.my_pe == 0:
            # Drain the remote request (PE 1's byte): barrier exit time
            # exceeds all pre-barrier arrival times.
            while am.poll() is not None:
                pass
            sc.ctx.memory_barrier()
            return sc.ctx.local_read(base)
        return None

    results, _ = run_splitc(machine, program)
    word = int(results[0])
    assert word & 0xFF == 0xA0          # PE 0's byte
    assert (word >> 8) & 0xFF == 0xA1   # PE 1's byte survived too


def test_send_requires_attach_and_registration(machine):
    def program(sc):
        am = ActiveMessages(sc)
        errors = []
        try:
            am.send(1, 0, 1, 2, 3)
        except RuntimeError:
            errors.append("unattached")
        am.attach()
        try:
            am.send(1, 99, 1)
        except ValueError:
            errors.append("unregistered")
        try:
            am.send(1, 0, 1, 2, 3, 4, 5)
        except ValueError:
            errors.append("oversize")
        return errors
        yield  # pragma: no cover

    results, _ = run_splitc(machine, program)
    assert results[0] == ["unattached", "unregistered", "oversize"]


def test_wide_deposits_keep_to_their_slots():
    """A slot holds the handler id, ``data_words`` data words and the
    sequence flag, so with six data words the second deposit leaves the
    first one's words as they were."""
    params = t3d_machine_params((2, 1, 1))
    machine = Machine(replace(params, shell=replace(
        params.shell, am=AmParams(data_words=6))))

    def program(sc):
        am = ActiveMessages(sc)
        h = am.register_handler(lambda am_, src, *args: args)
        am.attach()
        yield from sc.barrier()
        if sc.my_pe == 0:
            am.send(1, h, 1, 2, 3, 4, 5, 6)
            am.send(1, h, 7, 8, 9, 10, 11, 12)
            sc.ctx.memory_barrier()
        yield from sc.barrier()
        return h, am._queue_base

    results, _ = run_splitc(machine, program)
    h, base = results[1]
    memory = machine.node(1).memsys.memory
    slot_words = 6 + 2
    slots = [[memory.load(base + (s * slot_words + i) * WORD_BYTES)
              for i in range(slot_words)] for s in range(2)]
    assert slots == [[h, 1, 2, 3, 4, 5, 6, 1], [h, 7, 8, 9, 10, 11, 12, 2]]
