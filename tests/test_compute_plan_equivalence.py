"""Golden full-state equivalence: the planned EM3D compute phase and
ghost fill ARE the reference loops.

``repro.apps.em3d.kernels.compute_rows`` runs blocks of rows through
``MemorySystem.plan_block`` (one batched L1/DRAM plan, then one
closed-form write-buffer run of the row stores), with the "simple"
version's remote edges planned by ``SplitC.plan_reads``; the
bundle/unroll ghost fill is ``plan_reads`` then a load-free
``plan_block``.  Under ``repro.tiers.reference()`` both run the
per-access reference loops.  Both must leave *every* observable
identical after *every* compute phase and ghost fill, not just the
final answer: the processor clock, the op stats, the L1 tags, the DRAM
open rows, last bank and counters, the pending write-buffer entries
(retire times and forwarded words), and the memory words; and on every
node (the read targets) the DRAM open rows, last bank and counters,
the remote unit's read count, and the Annex entries and update count.
The ``msg`` version is the one whose stores are still pending when the
next half-step reads them.  The get version's ghost fill is one
``SplitC.get_scatter``: its drained groups run as one planned prefetch
stream, and its state — including the prefetch queue's entries, issue
and pop counters and Split-C's get-target table — is also compared
right after the scatter, while the last group is still in the queue.

Nodes outside the plan's envelope — the workstation (L2, a TLB that can
miss) and a 2-way set-associative L1 — must make the plan decline on
every block and every fill, and still match.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro import tiers
from repro.apps.em3d import kernels
from repro.apps.em3d.graph import make_graph
from repro.machine.machine import Machine
from repro.node.memsys import MemorySystem
from repro.splitc import runtime
from repro.splitc.runtime import SplitC
from repro.params import (
    CacheParams,
    t3d_machine_params,
    workstation_node_params,
)

SHAPE = (2, 2, 1)
#: Large enough that each processor's fields and adjacency (~13 KB)
#: overflow the 8 KB L1, so blocks start from conflict-laden tags.
NODES, DEGREE = 64, 6


def _node_state(ctx, sc):
    """Everything the compute phase can touch on one node."""
    ms = ctx.node.memsys
    wb = ms.write_buffer
    l1 = ms.l1
    tags = (sorted(l1._tags.items()) if l1._assoc == 1
            else sorted((k, list(v)) for k, v in l1._ways.items()))
    pf = ctx.node.prefetch
    return (
        ctx.pe, ctx.clock,
        sorted((op, rec.count, rec.cycles) for op, rec in sc.stats.ops.items()),
        tags, ms.counters(),
        list(ms.dram._open_row), ms.dram._last_bank,
        [(e.line_addr, e.enqueue_time, e.retire_time, sorted(e.words.items()))
         for e in wb._pending],
        wb._last_retire,
        sorted(ms.memory.items()),
        [(e.ready_time, e.value) for e in pf._fifo], pf._issued_since_pop,
        pf.issues, pf.pops, list(sc._get_targets),
    )


def _peer_state(machine):
    """What a planned remote read can touch on every node."""
    state = []
    for pe in range(machine.num_nodes):
        node = machine.node(pe)
        dram = node.memsys.dram
        annex = node.annex
        state.append((
            list(dram._open_row), dram._last_bank,
            (dram.accesses, dram.row_misses, dram.same_bank_conflicts),
            node.remote.reads,
            [annex.entry(i) for i in range(annex.params.entries)],
            annex.updates))
    return state


def _run(machine_params, version, frac, seed, monkeypatch, fast):
    """Run one EM3D configuration; return the state after every compute
    phase, ghost fill and get scatter, the final result, the plan's
    accept/decline counts, and the number of ghost fills, of plans they
    accepted and of streamed get scatters."""
    snapshots = []
    plans = {"accepted": 0, "declined": 0}
    fills = {"fills": 0, "accepted": 0, "streamed_gets": 0}
    real_rows = kernels.compute_rows
    real_fill = kernels._ghost_fill_reads
    real_plan = MemorySystem.plan_block
    real_scatter = SplitC.get_scatter
    real_stream_gets = SplitC._stream_gets
    machine = Machine(machine_params)
    in_fill = []

    def spy_rows(ctx, *args):
        real_rows(ctx, *args)
        simple_sc = args[-1]
        sc = simple_sc if simple_sc is not None else spy_rows.runtimes[ctx.pe]
        snapshots.append((_node_state(ctx, sc), _peer_state(machine)))

    def spy_fill(sc, *args, **kwargs):
        in_fill.append(True)
        real_fill(sc, *args, **kwargs)
        in_fill.pop()
        fills["fills"] += 1
        snapshots.append((_node_state(sc.ctx, sc), _peer_state(machine)))

    def spy_scatter(sc, *args):
        real_scatter(sc, *args)
        snapshots.append((_node_state(sc.ctx, sc), _peer_state(machine)))

    def spy_stream_gets(sc, *args):
        done = real_stream_gets(sc, *args)
        fills["streamed_gets"] += bool(done)
        return done

    def spy_plan(self, *args, **kwargs):
        plan = real_plan(self, *args, **kwargs)
        plans["accepted" if plan is not None else "declined"] += 1
        fills["accepted"] += bool(in_fill and plan is not None)
        return plan

    real_run_splitc = kernels.run_splitc

    def spy_run_splitc(machine, program):
        def wrapped(sc):
            spy_rows.runtimes[sc.my_pe] = sc
            return (yield from program(sc))
        return real_run_splitc(machine, wrapped)

    spy_rows.runtimes = {}
    monkeypatch.setattr(kernels, "compute_rows", spy_rows)
    monkeypatch.setattr(kernels, "_ghost_fill_reads", spy_fill)
    monkeypatch.setattr(kernels, "run_splitc", spy_run_splitc)
    monkeypatch.setattr(MemorySystem, "plan_block", spy_plan)
    monkeypatch.setattr(SplitC, "get_scatter", spy_scatter)
    monkeypatch.setattr(SplitC, "_stream_gets", spy_stream_gets)
    # The graphs are small: stream every scatter with a drained group.
    monkeypatch.setattr(runtime, "_MIN_STREAMED_GETS", 0)
    try:
        graph = make_graph(num_pes=4, nodes_per_pe=NODES, degree=DEGREE,
                           remote_fraction=frac, seed=seed)
        with nullcontext() if fast else tiers.reference():
            result = kernels.run_em3d(machine, graph,
                                      version, steps=1, warmup_steps=1)
    finally:
        monkeypatch.undo()
    final = (result.us_per_edge, result.per_pe_cycles_per_edge,
             result.e_values, result.h_values,
             sorted((op, rec.count, rec.cycles)
                    for op, rec in result.stats.ops.items()))
    return snapshots, final, plans, fills


@pytest.mark.parametrize("seed", [1995, 2718])
@pytest.mark.parametrize("frac", [0.0, 0.2, 0.5])
@pytest.mark.parametrize("version", kernels.VERSIONS)
def test_planned_phase_matches_reference_state(version, frac, seed,
                                               monkeypatch):
    params = t3d_machine_params(SHAPE)
    fast = _run(params, version, frac, seed, monkeypatch, fast=True)
    ref = _run(params, version, frac, seed, monkeypatch, fast=False)
    assert fast[2]["declined"] == 0 and fast[2]["accepted"] > 0
    assert ref[2] == {"accepted": 0, "declined": 0}
    assert len(fast[0]) == len(ref[0])
    for phase, (got, want) in enumerate(zip(fast[0], ref[0])):
        assert got == want, f"state diverged after compute phase {phase}"
    assert fast[1] == ref[1]
    reads = frac > 0 and version in ("bundle", "unroll")
    assert (fast[3]["fills"] > 0) == (version in ("bundle", "unroll", "get"))
    assert (fast[3]["accepted"] > 0) == reads
    assert (fast[3]["streamed_gets"] > 0) == (frac > 0 and version == "get")
    assert ref[3]["streamed_gets"] == 0


def _two_way_l1():
    params = t3d_machine_params(SHAPE)
    return replace(params, node=replace(
        params.node, l1=CacheParams(associativity=2)))


@pytest.mark.parametrize("make_params", [
    lambda: replace(t3d_machine_params(SHAPE),
                    node=workstation_node_params()),
    _two_way_l1,
], ids=["workstation-l2", "two-way-l1"])
@pytest.mark.parametrize("version", ["simple", "unroll", "msg", "bundle",
                                     "get"])
def test_plan_declines_outside_envelope(make_params, version, monkeypatch):
    fast = _run(make_params(), version, 0.2, 1995, monkeypatch, fast=True)
    ref = _run(make_params(), version, 0.2, 1995, monkeypatch, fast=False)
    assert fast[2]["accepted"] == 0 and fast[2]["declined"] > 0
    assert fast[0] == ref[0]
    assert fast[1] == ref[1]
    assert (fast[3]["fills"] > 0) == (version in ("unroll", "bundle", "get"))
    assert fast[3]["accepted"] == 0
    assert fast[3]["streamed_gets"] == 0
