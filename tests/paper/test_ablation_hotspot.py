"""Extension: hot-spot behavior at one node's memory controller.

The paper measures with "only one processor active" (section 4.2);
the model's shared target-DRAM state lets us ask what several active
requesters do to each other.  Readers interleaving over one node's
memory thrash its open DRAM rows: each reader's stream keeps evicting
the rows the others opened, so everyone pays the remote off-page
penalty far more often than a lone reader would.  Spreading the same
accesses over distinct target nodes restores per-stream page locality.

This is emergent from the row-state model — no contention constant is
involved.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import t3d_machine_params

KB = 1024
READS_PER_PE = 64


def _run(shape, targets_fn):
    """Interleaved remote read streams; returns mean cycles/read."""
    machine = Machine(t3d_machine_params(shape))
    readers = [pe for pe in range(machine.num_nodes) if pe != 0][:4]
    total = 0.0
    count = 0
    # Interleave round-robin, as concurrent readers would.  Each
    # reader walks a *sequential* stream (high page locality on its
    # own) placed in a distinct row of the same DRAM bank, so on a hot
    # target the interleaving forces a row re-open on every access.
    for i in range(READS_PER_PE):
        for k, reader in enumerate(readers):
            target = targets_fn(reader)
            offset = k * 64 * KB + i * 32
            cycles, _ = machine.node(reader).remote.uncached_read(
                float(i), target, offset)
            total += cycles
            count += 1
    return total / count


def run_ablation():
    hot = _run((2, 2, 2), targets_fn=lambda reader: 0)
    spread = _run((2, 2, 2), targets_fn=lambda reader: reader)
    return hot, spread


def test_ablation_hotspot():
    hot, spread = run_ablation()

    # Self-target streams keep page locality only via their own bank
    # pattern; the hot spot forces cross-stream row evictions on top.
    assert hot > spread
    # The penalty is bounded by the off-page + same-bank costs.
    assert hot - spread < 30.0
