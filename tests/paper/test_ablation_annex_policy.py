"""Ablation (section 3.4): Annex management policies under different
access patterns.

The paper's argument quantified: on a same-processor access stream the
compiler-optimized single register wins outright; on an alternating
stream the runtime table's hit saving (23-10 cycles) is all it ever
gets, and it pays the lookup on every access — so the conservative
single-register reload loses at most ~13 cycles/access while being
synonym-free.

Also included: the OS-managed alternative of section 3.2's footnote 2
(truly global virtual addresses, faulting on unmapped processors) —
free in steady state, but one ~25 microsecond fault per eviction makes
it catastrophic whenever the live processor set exceeds its registers.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import t3d_machine_params
from repro.splitc.annex_policy import MultiAnnexPolicy, OsManagedAnnexPolicy
from repro.splitc.codegen import CodegenPlan
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC

# Long enough streams that the OS-managed policy's one-time mapping
# fault (3,750 cycles) can amortize against the 23-cycle reload it
# avoids (break-even near 165 accesses).
ACCESSES = 256


def run_pattern(plan, targets):
    machine = Machine(t3d_machine_params((2, 2, 2)))
    for pe in set(targets):
        machine.node(pe).memsys.dram.access(0)
    sc = SplitC(machine.make_contexts()[0], plan=plan)
    sc.ctx.clock = 1e6
    before = sc.ctx.clock
    for i, pe in enumerate(targets):
        sc.read(GlobalPtr(pe, (i % 8) * 8))
    return (sc.ctx.clock - before) / len(targets)


def run_ablation():
    plans = {
        "single (reload each)": CodegenPlan(),
        "single (skip unchanged)": CodegenPlan(annex_skip_when_unchanged=True),
        "multi (4-entry table)": CodegenPlan(
            annex_policy_factory=lambda **kw: MultiAnnexPolicy(4)),
        "os-managed (faulting)": CodegenPlan(
            annex_policy_factory=lambda **kw: OsManagedAnnexPolicy(4)),
    }
    patterns = {
        "same PE": [1] * ACCESSES,
        "alternating 2 PEs": [1 + (i % 2) for i in range(ACCESSES)],
        "cycling 6 PEs": [1 + (i % 6) for i in range(ACCESSES)],
    }
    return {
        (plan_name, pat_name): run_pattern(plan, targets)
        for plan_name, plan in plans.items()
        for pat_name, targets in patterns.items()
    }


def test_ablation_annex_policy():
    costs = run_ablation()

    # Compiler-known same-PE streams: skipping the reload saves the
    # full 23 cycles per access.
    assert (costs[("single (skip unchanged)", "same PE")]
            < costs[("single (reload each)", "same PE")] - 20.0)
    # Alternating streams: the table saves only ~13 cycles/access over
    # the conservative reload...
    saving = (costs[("single (reload each)", "alternating 2 PEs")]
              - costs[("multi (4-entry table)", "alternating 2 PEs")])
    assert saving == pytest.approx(13.0, abs=1.0)
    # ...and with more live processors than table registers it degrades
    # to lookup + reload, *worse* than the plain single register.
    assert (costs[("multi (4-entry table)", "cycling 6 PEs")]
            > costs[("single (reload each)", "cycling 6 PEs")])
    # The OS-managed alternative (section 3.2, footnote 2): free once
    # mapped, catastrophic when the live set exceeds its registers.
    assert (costs[("os-managed (faulting)", "same PE")]
            < costs[("single (reload each)", "same PE")])
    assert (costs[("os-managed (faulting)", "cycling 6 PEs")]
            > 10 * costs[("single (reload each)", "cycling 6 PEs")])
