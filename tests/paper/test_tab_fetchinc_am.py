"""T6 (section 7.4): software Active Messages.

Depositing a 4+1-word request into a remote queue ~2.9 us; dispatching
and accessing it ~1.5 us — cheaper than one interrupt-driven hardware
receive (~25 us).  The ~1 us fetch&increment is pinned by
``tests/shell/test_atomics.py``.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import cycles_to_us, t3d_machine_params
from repro.splitc.am import ActiveMessages
from repro.splitc.runtime import run_splitc
from tests.paper import paperdata as paper


def test_tab_fetchinc_am():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    timings = {}

    def program(sc):
        am = ActiveMessages(sc)
        handler = am.register_handler(lambda am_, src, x: x)
        am.attach()
        yield from sc.barrier()
        if sc.my_pe == 0:
            before = sc.ctx.clock
            am.send(1, handler, 42)
            timings["deposit"] = cycles_to_us(sc.ctx.clock - before)
        yield from sc.barrier()
        if sc.my_pe == 1:
            before = sc.ctx.clock
            dispatch = am.poll()
            timings["dispatch"] = cycles_to_us(sc.ctx.clock - before)
            timings["value"] = dispatch.result
        return None

    run_splitc(machine, program)

    assert timings["deposit"] == pytest.approx(paper.AM_DEPOSIT_US, abs=0.2)
    assert timings["dispatch"] == pytest.approx(paper.AM_DISPATCH_US,
                                                abs=0.2)
    assert timings["value"] == 42
    # Poll-based AM receive beats the interrupt path by an order of
    # magnitude (1.5 us vs 25 us).
    assert timings["dispatch"] < paper.MESSAGE_INTERRUPT_US / 10
