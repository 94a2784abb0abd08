"""Extension: incast congestion at one node's network interface.

The paper measures with a single active processor; the model adds a
target-interface service occupancy matched to the injection rate, so
one sender's stream is unaffected (every calibrated latency is
unchanged) while converging senders serialize.  This test shows the
effect: seven senders each storing K words to one victim deliver the
last byte ~7x later than the same traffic spread pairwise.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import t3d_machine_params
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import run_splitc

WORDS_PER_SENDER = 16


def _run(pattern: str) -> float:
    """Returns the time the last byte arrived at its receiver."""
    machine = Machine(t3d_machine_params((2, 2, 2)))
    num_pes = machine.num_nodes

    def program(sc):
        base = sc.all_alloc(num_pes * WORDS_PER_SENDER * 8)
        if pattern == "incast":
            dest = 0 if sc.my_pe != 0 else None
        else:
            dest = (sc.my_pe + 1) % num_pes
        if dest is not None:
            for i in range(WORDS_PER_SENDER):
                offset = base + (sc.my_pe * WORDS_PER_SENDER + i) * 8
                # Distinct lines: no merging, one packet per word.
                sc.store(GlobalPtr(dest, offset), i)
            sc.ctx.memory_barrier()
        yield from sc.barrier()
        return sc.ctx.node.bytes_arrived_total()

    results, _ = run_splitc(machine, program)
    receiver = 0 if pattern == "incast" else 1
    node = machine.node(receiver)
    total = node.bytes_arrived_total()
    return node.time_when_bytes_arrived(total)


def run_comparison():
    return _run("incast"), _run("pairwise")


def test_ext_incast():
    incast_done, pairwise_done = run_comparison()

    # Seven converging senders serialize at the victim's interface:
    # the last byte lands several times later than under pairwise
    # traffic carrying the same per-receiver volume.
    assert incast_done > 3.0 * pairwise_done
    # Lower bound: serializing 7 x 16 packets at 17 cycles each.
    assert incast_done > 7 * WORDS_PER_SENDER * 17.0
