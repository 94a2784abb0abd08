"""Ablation: the Annex-scheduling compiler pass (section 3.4's
"if the compiler can determine successive accesses are to the same
processor" — made true by reordering).

Split-phase accesses between syncs are unordered by the language, so
the pass may group them by target processor; with the grouping proven,
the runtime skips redundant Annex reloads.  On an EM3D-like interleaved
put pattern this removes nearly all of the 23-cycle reloads.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import t3d_machine_params
from repro.splitc.access_pass import GlobalAccess, execute_accesses
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC

N_PER_PE = 24
TARGETS = (1, 2, 3, 4, 5)


def interleaved_puts():
    """Round-robin puts over five processors — the worst case for the
    conservative reload-always policy."""
    accesses = []
    for i in range(N_PER_PE):
        for pe in TARGETS:
            accesses.append(GlobalAccess(
                "put", GlobalPtr(pe, 0x1000 + i * 32), value=i))
    return accesses


def run_ablation():
    def cost(scheduled):
        machine = Machine(t3d_machine_params((2, 2, 2)))
        sc = SplitC(machine.make_contexts()[0])
        sc.ctx.clock = 1e6
        total = execute_accesses(sc, interleaved_puts(),
                                 scheduled=scheduled)
        return total / (N_PER_PE * len(TARGETS))

    return cost(False), cost(True)


def test_ablation_access_pass():
    conservative, scheduled = run_ablation()

    # The pass removes the per-access reload: ~23 cycles per put.
    assert conservative - scheduled == pytest.approx(23.0, abs=3.0)
    # Scheduled puts approach the reload-free put cost (~22 cycles
    # issue + checks, plus drain backpressure).
    assert scheduled < 30.0
