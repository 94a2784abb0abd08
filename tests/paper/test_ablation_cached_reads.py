"""Ablation (section 4.4): the rejected cached-read code generation.

What if the Split-C read had been compiled to cached remote reads
(with the coherence flush a C-like language cannot avoid)?  Scalar
reads get strictly worse — the paper's reason for choosing uncached —
and the EM3D ghost-fill built on flushed cached reads loses to the
uncached bundle version despite moving four words per fetch.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import t3d_machine_params
from repro.splitc.codegen import CodegenPlan
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC

READS = 32


def scalar_read_cost(plan, stride: int) -> float:
    machine = Machine(t3d_machine_params((2, 1, 1)))
    machine.node(1).memsys.dram.access(0)
    sc = SplitC(machine.make_contexts()[0], plan=plan)
    sc.ctx.clock = 1e6
    before = sc.ctx.clock
    for i in range(READS):
        sc.read(GlobalPtr(1, i * stride))
    return (sc.ctx.clock - before) / READS


def run_ablation():
    uncached = CodegenPlan(read_mechanism="uncached")
    cached = CodegenPlan(read_mechanism="cached")
    return {
        ("uncached", "scattered"): scalar_read_cost(uncached, 256),
        ("cached", "scattered"): scalar_read_cost(cached, 256),
        ("uncached", "sequential"): scalar_read_cost(uncached, 8),
        ("cached", "sequential"): scalar_read_cost(cached, 8),
    }


def test_ablation_cached_reads():
    costs = run_ablation()

    # Scattered scalar reads: cached + flush is strictly worse.
    assert (costs[("cached", "scattered")]
            > costs[("uncached", "scattered")] + 30.0)
    # Even on a sequential stream — the best case for cached reads —
    # the mandatory flush erases the line-reuse advantage: each line is
    # flushed right after the read that fetched it, so the "prefetched"
    # neighbors are gone (the flush costs 23 cycles per *access*, not
    # per line, under scalar code generation).
    assert (costs[("cached", "sequential")]
            > costs[("uncached", "sequential")])
