"""Ablation (section 6.3): what if the bulk dispatch were wrong?

Compares the measured Split-C dispatch against two straw men — BLT
everywhere, and prefetch everywhere — across the size range.  The
dispatch should never lose to either by more than a rounding margin,
and each straw man should lose badly somewhere (BLT at small sizes,
prefetch at large ones).
"""

import dataclasses

from repro.machine.machine import Machine
from repro.params import mb_per_s, t3d_machine_params
from repro.splitc.codegen import CodegenPlan, default_plan
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC

KB = 1024
SIZES = [64, 1 * KB, 8 * KB, 64 * KB, 256 * KB]


def read_bandwidth(plan, nbytes: int) -> float:
    machine = Machine(t3d_machine_params((2, 1, 1)))
    sc = SplitC(machine.make_contexts()[0], plan=plan)
    before = sc.ctx.clock
    sc.bulk_read(0x400000, GlobalPtr(1, 0), nbytes)
    return mb_per_s(nbytes, sc.ctx.clock - before)


def run_ablation():
    measured = default_plan()
    blt_everywhere = dataclasses.replace(
        measured, bulk_read_blt_threshold=1, bulk_read_single_limit=0)
    prefetch_everywhere = dataclasses.replace(
        measured, bulk_read_blt_threshold=1 << 62)
    table = {}
    for name, plan in [("dispatch", measured),
                       ("blt-everywhere", blt_everywhere),
                       ("prefetch-everywhere", prefetch_everywhere)]:
        for nbytes in SIZES:
            table[(name, nbytes)] = read_bandwidth(plan, nbytes)
    return table


def test_ablation_bulk_policy():
    table = run_ablation()

    for nbytes in SIZES:
        best = max(table[(name, nbytes)]
                   for name in ("dispatch", "blt-everywhere",
                                "prefetch-everywhere"))
        assert table[("dispatch", nbytes)] >= 0.95 * best, nbytes
    # Each straw man loses badly somewhere.
    assert (table[("blt-everywhere", 1 * KB)]
            < 0.2 * table[("dispatch", 1 * KB)])
    assert (table[("prefetch-everywhere", 256 * KB)]
            < 0.5 * table[("dispatch", 256 * KB)])
