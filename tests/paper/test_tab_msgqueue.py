"""T5 (section 7.3): hardware message queue costs.

Send ~813 ns; receive interrupt ~25 us; handler dispatch another
~33 us — the numbers that drive the paper to software Active Messages.
The send and interrupt costs on their own are pinned by
``tests/shell/test_msgqueue.py``.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import cycles_to_us, t3d_machine_params
from tests.paper import paperdata as paper


def test_tab_msgqueue():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    send = machine.node(0).msgq.send(0.0, 1, (1, 2, 3, 4))
    interrupt, _ = machine.node(1).msgq.receive(100_000.0)
    machine.node(0).msgq.send(0.0, 1, (1,))
    handler, _ = machine.node(1).msgq.receive(200_000.0, via_handler=True)

    assert cycles_to_us(handler - interrupt) == pytest.approx(
        paper.MESSAGE_HANDLER_EXTRA_US, rel=0.01)
    # The imbalance that kills the mechanism: receive is ~30x send.
    assert interrupt / send > 25.0
