"""Ablation (section 5.2): is a 16-entry prefetch queue the right size?

The paper concludes "the choice of 16 for the size of the prefetch
queue seems to be a reasonable one" because remote latency is almost
entirely hidden as the group size approaches 16.  Sweeping the depth
confirms it: a 4-entry FIFO leaves most of the round trip exposed, 8
leaves some, and doubling beyond 16 buys almost nothing (the pop rate,
not the queue, is then the bottleneck).
"""

import dataclasses

import pytest

from repro.machine.machine import Machine
from repro.params import WORD_BYTES, t3d_machine_params


def machine_with_depth(depth: int) -> Machine:
    base = t3d_machine_params((2, 1, 1))
    shell = dataclasses.replace(
        base.shell,
        prefetch=dataclasses.replace(base.shell.prefetch, queue_depth=depth))
    return Machine(dataclasses.replace(base, shell=shell))


def per_element_cost(depth: int, nwords: int = 128) -> float:
    """Group-issue pattern (Figure 6): fill the queue, then pop it.

    This is how compiled split-phase code uses the queue — a burst of
    gets followed by a sync — so the queue depth bounds how much of
    the 80-cycle round trip each burst can hide.
    """
    machine = machine_with_depth(depth)
    machine.node(1).memsys.dram.access(0)
    pf = machine.node(0).prefetch
    alpha = machine.node(0).alpha
    now = 1e6
    start = now
    done = 0
    while done < nwords:
        group = min(depth, nwords - done)
        for i in range(group):
            now += pf.issue(now, 1, (done + i) * WORD_BYTES)
        if pf.needs_barrier_before_pop():
            now += alpha.memory_barrier()
        for _ in range(group):
            cycles, _ = pf.pop(now)
            now += cycles
        done += group
    return (now - start) / nwords


def run_sweep():
    return {depth: per_element_cost(depth) for depth in (2, 4, 8, 16, 32)}


def test_ablation_prefetch_depth():
    costs = run_sweep()

    # Shallow queues leave the round trip exposed.
    assert costs[2] > costs[4] > costs[8] > costs[16]
    # 16 is deep enough: doubling saves under 5%.
    assert (costs[16] - costs[32]) / costs[16] < 0.05
    # ...whereas going from 4 to 16 saves a lot.
    assert (costs[4] - costs[16]) / costs[4] > 0.25
    # At depth >= 16 the cost approaches issue+pop (fully hidden).
    assert costs[16] == pytest.approx(4.0 + 23.0, abs=6.0)
