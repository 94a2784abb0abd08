"""Golden equivalence: the cohort tier IS the reference.

The cohort-batched scheduler (``repro.machine.cohort``) and the
streamed runs of scattered puts (``SplitC.put_scatter``) are pure
performance tiers: they must produce bit-identical simulations to the
event-at-a-time reference scheduler with the generic per-element put
loop.  Every scenario below runs twice on fresh machines —

* **reference** — under :func:`repro.tiers.reference`: the
  event-at-a-time scheduler, and every fast path falls back to its
  generic loop;
* **cohort+flat** — the default: the cohort scheduler with the
  streamed put runs;

and the full observable state (results, per-processor clocks, op
stats, unit counters, raw memory words) must compare equal — same
floats, not merely close.  Any divergence means a tier changed the
model, which is a correctness bug regardless of which side is right.

The subjects cover all five application families plus the named SPMD
workloads (uneven barriers, incast, idle processors) — the
synchronization-horizon shapes the cohort scheduler batches between.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import tiers
from repro.apps import spmd_workloads
from repro.machine.machine import Machine
from repro.params import t3d_machine_params, workstation_node_params
from repro.shell.remote import RemoteAccessUnit
from repro.splitc.annex_policy import (
    MultiAnnexPolicy,
    OsManagedAnnexPolicy,
    SingleAnnexPolicy,
)
from repro.splitc.codegen import default_plan


def _machine_fingerprint(machine):
    """Every observable of a finished run: unit counters and the raw
    memory words of every node."""
    out = []
    for pe in range(machine.num_nodes):
        node = machine.node(pe)
        ms = node.memsys
        out.append((pe, ms.l1.hits, ms.l1.misses,
                    ms.dram.accesses, ms.dram.row_misses,
                    ms.dram.same_bank_conflicts,
                    ms.write_buffer.merged_writes,
                    ms.write_buffer.drained_entries,
                    node.remote.reads, node.remote.stores,
                    node.annex.updates,
                    sorted(ms.memory.items())))
    return out


def _runtime_fingerprint(runtimes):
    """Per-processor clocks and exact op-stats aggregates."""
    return [
        (sc.my_pe, sc.ctx.clock,
         sorted((op, rec.count, rec.cycles)
                for op, rec in sc.stats.ops.items()))
        for sc in runtimes
    ]


def _two_way(scenario):
    """Run ``scenario()`` on the reference and the fast paths; return
    the two fingerprints keyed by configuration name."""
    with tiers.reference():
        reference = scenario()
    return {"reference": reference, "cohort+flat": scenario()}


def _assert_identical(prints):
    assert prints["reference"] == prints["cohort+flat"], \
        "cohort scheduler or streamed put runs diverged from the reference"


def _machine(shape=(2, 2, 1)):
    return Machine(t3d_machine_params(shape))


# ----------------------------------------------------------------------
# Named SPMD workloads (uneven barriers, incast, idle processors)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(spmd_workloads.WORKLOADS))
def test_workload_three_way_identical(name):
    def scenario():
        machine = _machine()
        results = spmd_workloads.run_workload(machine, name)
        return results, _machine_fingerprint(machine)

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# Message-driven workloads: the cohort message wake groups must time
# exactly like reference every-round polling
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(spmd_workloads.MESSAGE_WORKLOADS))
def test_message_workload_three_way_identical(name):
    def scenario():
        machine = _machine()
        results = spmd_workloads.run_message_workload(machine, name)
        return results, _machine_fingerprint(machine)

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# EM3D: the full optimization ladder
# ----------------------------------------------------------------------

def test_em3d_sweep_three_way_identical():
    from repro.apps.em3d import driver

    def scenario():
        return driver.sweep(fractions=(0.2, 0.5), nodes_per_pe=20,
                            degree=4, shape=(2, 2, 1))

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# Stencil: both synchronization styles (barrier and message horizons)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("style", ["bulk_synchronous", "message_driven"])
def test_stencil_three_way_identical(style):
    from repro.apps.stencil import run_stencil

    def scenario():
        machine = _machine()
        result = run_stencil(machine, cells_per_pe=16, steps=3,
                             sync_style=style)
        return (result.total_cycles, result.values,
                _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# Transpose: every strategy, including the scattered-put all-to-all
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["reads", "bulk", "blt", "puts"])
def test_transpose_three_way_identical(strategy):
    from repro.apps.transpose import run_transpose

    def scenario():
        machine = _machine()
        result = run_transpose(machine, 8, strategy)
        return (result.total_cycles, result.matrix,
                _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# FFT: bulk and scattered-put pairwise exchanges
# ----------------------------------------------------------------------

@pytest.mark.parametrize("exchange", ["bulk", "puts"])
def test_fft_three_way_identical(exchange):
    from repro.apps.fft import run_fft

    def scenario():
        machine = _machine()
        result = run_fft(machine, points_per_pe=8, exchange=exchange)
        return (result.total_cycles, result.output,
                _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# CG, sample sort, histogram: reductions, permutation, contention
# ----------------------------------------------------------------------

def test_cg_three_way_identical():
    from repro.apps.cg import run_cg

    def scenario():
        machine = _machine()
        result = run_cg(machine, rows_per_pe=8, max_iters=6)
        return (result.total_cycles, result.residual,
                _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))


def test_samplesort_three_way_identical():
    from repro.apps.samplesort import run_sample_sort

    def scenario():
        machine = _machine()
        result = run_sample_sort(machine, keys_per_pe=32)
        return (result.total_cycles, result.sorted_keys,
                result.per_pe_counts, _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))


def test_histogram_three_way_identical():
    from repro.apps.histogram import run_histogram

    def scenario():
        machine = _machine()
        result = run_histogram(machine, num_bins=16)
        return (result.total_cycles, result.bins,
                _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# Op stats and clocks: the aggregated "put (issue)" record is exact
# ----------------------------------------------------------------------

def test_put_scatter_stats_and_clocks_identical():
    from repro.splitc.runtime import run_splitc

    def scenario():
        machine = _machine()
        base_holder = {}

        def program(sc):
            base = sc.all_alloc(64 * 8)
            base_holder[sc.my_pe] = base
            for i in range(16):
                sc.ctx.local_write(base + i * 8, float(sc.my_pe * 100 + i))
            sc.ctx.memory_barrier()
            yield from sc.barrier()
            # Scatter to every other processor, groups of mixed size
            # (singletons included) plus a local group.
            groups = []
            for dest in range(sc.num_pes):
                count = 1 + (dest + sc.my_pe) % 3
                pairs = [(base + i * 8, base + (32 + sc.my_pe * 4 + i) * 8)
                         for i in range(count)]
                groups.append((dest, pairs))
            sc.put_scatter(groups)
            yield from sc.all_store_sync()
            return sc.ctx.clock

        results, runtimes = run_splitc(machine, program)
        return (results, _runtime_fingerprint(runtimes),
                _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))


# ----------------------------------------------------------------------
# put_scatter's streamed runs against the put_to loop, in full state
# ----------------------------------------------------------------------

_POLICIES = {
    "single": (SingleAnnexPolicy, False),
    "single-skip": (SingleAnnexPolicy, True),
    "multi": (MultiAnnexPolicy, False),
    "os-managed": (OsManagedAnnexPolicy, False),
}


#: Bytes between two rows of one T3D DRAM bank (4 banks of 16 KB).
_SAME_BANK = 64 * 1024


def _scatter_program(nputs):
    """Two runs of ``nputs`` remote puts over three targets, split by a
    local group.  Destinations share lines (merges) and alternate
    between two rows of one target DRAM bank (drain peeks that see
    retiring stores); a pending local store to a source word of the
    first run, and the local group's stores to source words of the
    second, must be forwarded; the second run's other sources hold
    ints, which the planned reads load word by word."""
    def program(sc):
        me, n = sc.my_pe, sc.num_pes
        src = sc.all_alloc(2 * nputs * 8)
        dst = sc.all_alloc(2 * _SAME_BANK)
        for i in range(2 * nputs):     # the second run's sources: ints
            sc.ctx.local_write(src + i * 8, me * 1000 + i
                               if i >= nputs else float(me * 1000 + i))
        sc.ctx.memory_barrier()
        yield from sc.barrier()
        sc.ctx.local_write(src + 8, -1.0 - me)

        def run(first):
            targets = [(me + d) % n for d in range(1, 4)]
            words = range(first, first + nputs)
            return [(pe, [(src + w * 8, dst + w % 2 * _SAME_BANK
                           + (me * 2 * nputs + w) * 8)
                          for w in words[k::3]])
                    for k, pe in enumerate(targets)]

        local = (me, [(src + 8 * k, src + (nputs + k) * 8)
                      for k in range(2)])
        sc.put_scatter(run(0) + [local] + run(nputs))
        wb = sc.ctx.node.memsys.write_buffer
        after = (sc.ctx.clock, wb in wb.settle_queue, [
            (e.line_addr, e.enqueue_time, e.retire_time,
             sorted(e.words.items()), e.apply_words, e.meta and e.meta[0])
            for e in wb._pending])
        yield from sc.all_store_sync()
        return after, vars(sc.annex_policy)

    return program


@pytest.mark.parametrize("node, policy", [
    ("t3d", "single"), ("t3d", "single-skip"), ("t3d", "multi"),
    ("t3d", "os-managed"), ("workstation", "single")])
@pytest.mark.parametrize("short", [True, False], ids=["short", "long"])
def test_put_scatter_runs_identical_in_full_state(monkeypatch, node,
                                                  policy, short):
    from repro.splitc.runtime import _MIN_STREAMED_PUTS, run_splitc

    streamed = []
    real = RemoteAccessUnit.stream_stores

    def spy(*args):
        clock = real(*args)
        streamed.append(clock is not None)
        return clock

    monkeypatch.setattr(RemoteAccessUnit, "stream_stores", spy)
    factory, skip = _POLICIES[policy]
    plan = dataclasses.replace(default_plan(), annex_policy_factory=factory,
                               annex_skip_when_unchanged=skip)
    params = t3d_machine_params((2, 2, 1))
    if node == "workstation":
        params = dataclasses.replace(params, node=workstation_node_params())

    def scenario():
        machine = Machine(params)
        results, runtimes = run_splitc(
            machine, _scatter_program(_MIN_STREAMED_PUTS - short),
            plan=plan)
        annex = [(n.annex.updates,
                  [n.annex.entry(i) for i in range(n.annex.params.entries)])
                 for n in machine.nodes]
        counters = [(n.memsys.counters(), n.remote.counters(),
                     n.inbound_busy_until, n._arrivals)
                    for n in machine.nodes]
        return (results, _runtime_fingerprint(runtimes), annex, counters,
                [wb.owner_pe for wb in machine._dirty_buffers],
                _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))
    expect = factory is SingleAnnexPolicy and not short
    assert streamed == ([True] * 2 * params.num_nodes if expect else [])


def test_multi_target_put_scatter_declines_closed_form_unplanned(
        monkeypatch):
    """A streamed put run over three targets, long enough to try the
    closed-form remote stream, declines it before planning anything
    (no target DRAM plan or peek) and still streams through the loop."""
    from repro.node import memsys
    from repro.node.dram import Dram
    from repro.splitc.runtime import run_splitc

    inside, planned, closed, streamed = [], [], [], []
    stream_closed = RemoteAccessUnit._stream_closed
    stream_stores = RemoteAccessUnit.stream_stores

    def closed_spy(*args):
        inside.append(True)
        try:
            got = stream_closed(*args)
        finally:
            inside.pop()
        closed.append(got)
        return got

    def stores_spy(*args):
        clock = stream_stores(*args)
        streamed.append(clock is not None)
        return clock

    for name in ("plan_access", "peek_after"):
        real = getattr(Dram, name)

        def spy(self, *args, real=real, name=name):
            if inside:
                planned.append(name)
            return real(self, *args)

        monkeypatch.setattr(Dram, name, spy)
    monkeypatch.setattr(RemoteAccessUnit, "_stream_closed", closed_spy)
    monkeypatch.setattr(RemoteAccessUnit, "stream_stores", stores_spy)
    run_splitc(Machine(t3d_machine_params((2, 2, 1))),
               _scatter_program(memsys._MIN_CLOSED_STORES))
    assert closed and all(got is None for got in closed)
    assert planned == []
    assert streamed and all(streamed)


# ----------------------------------------------------------------------
# get_scatter's streamed drains against the get_from loop, in full state
# ----------------------------------------------------------------------

def _get_program(ngets):
    """``ngets`` gets from the three other processors, in runs of one
    target, from words that alternate between two rows of one DRAM bank
    (remote off-page and same-bank penalties) into ghost words one line
    apart.  A pending local store to a ghost line is in the write buffer
    when the scatter starts.  The state right after the scatter — with
    the last group still in the prefetch queue — and after ``sync``
    (the small-group barrier when the last group is short) is
    returned."""
    def program(sc):
        me, n = sc.my_pe, sc.num_pes
        src = sc.all_alloc_segment(2 * _SAME_BANK // 8, "f8")
        ghosts = sc.all_alloc(ngets * 32 + 32)
        for w in range(64):
            for row in (0, _SAME_BANK):
                sc.ctx.local_write(src + row + w * 8, float(me * 1000 + w))
        sc.ctx.memory_barrier()
        yield from sc.barrier()
        sc.ctx.local_write(ghosts + 8, -1.0 - me)
        k = np.arange(ngets)
        pes = (me + 1 + (k // 5) % (n - 1)) % n
        addrs = src + (k * 7) % 64 * 8 + k % 2 * _SAME_BANK
        sc.get_scatter(pes, addrs, ghosts + k * 32)
        pf = sc.ctx.node.prefetch
        wb = sc.ctx.node.memsys.write_buffer
        after = (sc.ctx.clock, [(e.ready_time, e.value) for e in pf._fifo],
                 pf._issued_since_pop, pf.issues, pf.pops,
                 list(sc._get_targets), [
                     (e.line_addr, e.enqueue_time, e.retire_time,
                      sorted(e.words.items())) for e in wb._pending])
        sc.sync()
        yield from sc.barrier()
        return after, sc.ctx.clock, vars(sc.annex_policy)

    return program


@pytest.mark.parametrize("node, policy, spans", [
    ("t3d", "single", False), ("t3d", "single-skip", False),
    ("t3d", "multi", False), ("t3d", "os-managed", False),
    ("t3d", "single", True), ("workstation", "single", False)],
    ids=["t3d-single", "t3d-single-skip", "t3d-multi", "t3d-os-managed",
         "t3d-spans", "workstation"])
@pytest.mark.parametrize("ngets", [1, 15, 16, 17, 33, 16 * 6 + 2])
def test_get_scatter_identical_in_full_state(monkeypatch, node, policy,
                                             spans, ngets):
    from repro.splitc import runtime
    from repro.splitc.runtime import SplitC, run_splitc

    streamed = []
    real = SplitC._stream_gets

    def spy(*args):
        done = real(*args)
        if tiers.fast():
            streamed.append(done)
        return done

    monkeypatch.setattr(SplitC, "_stream_gets", spy)
    monkeypatch.setattr(runtime, "_MIN_STREAMED_GETS", 0)
    factory, skip = _POLICIES[policy]
    plan = dataclasses.replace(default_plan(), annex_policy_factory=factory,
                               annex_skip_when_unchanged=skip)
    params = t3d_machine_params((2, 2, 1))
    if node == "workstation":
        params = dataclasses.replace(params, node=workstation_node_params())

    def scenario():
        machine = Machine(params)
        results, runtimes = run_splitc(machine, _get_program(ngets),
                                       plan=plan, trace=spans)
        annex = [(n.annex.updates,
                  [n.annex.entry(i) for i in range(n.annex.params.entries)])
                 for n in machine.nodes]
        counters = [(n.memsys.counters(), n.prefetch.counters(),
                     list(n.memsys.dram._open_row), n.memsys.dram._last_bank)
                    for n in machine.nodes]
        spans_out = [sc.trace.spans if spans else None for sc in runtimes]
        return (results, _runtime_fingerprint(runtimes), annex, counters,
                spans_out, _machine_fingerprint(machine))

    _assert_identical(_two_way(scenario))
    expect = (node == "t3d" and factory is SingleAnnexPolicy and not spans
              and ngets > 16)
    count = (ngets - 1) // 16 * 16
    assert streamed == ([count] * params.num_nodes if expect
                        else [0] * params.num_nodes)


def test_get_scatter_minimum_size(monkeypatch):
    """Below the measured minimum the loop runs; at it, the stream."""
    from repro.splitc.runtime import _MIN_STREAMED_GETS, SplitC, run_splitc

    streamed = []
    real = SplitC._stream_gets

    def spy(*args):
        streamed.append(real(*args))
        return streamed[-1]

    monkeypatch.setattr(SplitC, "_stream_gets", spy)
    for ngets in (_MIN_STREAMED_GETS - 1, _MIN_STREAMED_GETS):
        streamed.clear()
        run_splitc(_machine(), _get_program(ngets))
        assert all(streamed) == (ngets >= _MIN_STREAMED_GETS)


# ----------------------------------------------------------------------
# Traced runs take the generic paths but must still time identically
# ----------------------------------------------------------------------

def test_traced_run_times_match_untraced():
    from repro.trace import tracer as trace
    from repro.apps.stencil import run_stencil

    def run_once():
        return run_stencil(_machine(), cells_per_pe=8,
                           steps=2).total_cycles

    untraced = run_once()
    with trace.tracing():
        traced = run_once()
    assert traced == untraced
