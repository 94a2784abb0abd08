"""Golden equivalence: the cohort tier IS the reference.

The cohort-batched scheduler (``repro.machine.cohort``) and the
flattened scattered-put kernel (``SplitC.put_scatter``) are pure
performance tiers: they must produce bit-identical simulations to the
event-at-a-time reference scheduler with the generic per-element put
loop.  Every scenario below runs twice on fresh machines —

* **reference** — under :func:`repro.tiers.reference`: the
  event-at-a-time scheduler, and every fast path falls back to its
  generic loop;
* **cohort+flat** — the default: the cohort scheduler with the
  flattened put group;

and the full observable state (results, per-processor clocks, op
stats, unit counters, raw memory words) must compare equal — same
floats, not merely close.  Any divergence means a tier changed the
model, which is a correctness bug regardless of which side is right.

The subjects cover all five application families plus the named SPMD
workloads (uneven barriers, incast, idle processors) — the
synchronization-horizon shapes the cohort scheduler batches between.
"""

from __future__ import annotations

import pytest

from repro import tiers
from repro.apps import spmd_workloads
from repro.machine.machine import Machine
from repro.params import t3d_machine_params


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
        "cohort scheduler or flattened put group diverged from the reference"


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
