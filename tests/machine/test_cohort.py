"""Cohort-scheduler horizon edge cases.

The wake-gated cohort scheduler batches runnable threads between
synchronization horizons; these tests pin the edges where batching
could plausibly go wrong — a partial barrier must hold its cohort, a
wakeup landing exactly on the horizon must not be missed, mixed
blocking conditions must split a cohort correctly, and the one-
processor machine must degenerate to the serial reference path.  Each
scenario is checked against the event-at-a-time scheduler for *exact*
clock and result equality.
"""

import pytest

from repro import tiers
from repro.machine.cohort import CohortScheduler, cohort_enabled
from repro.machine.machine import Machine
from repro.params import t3d_machine_params
from repro.simkernel.scheduler import DeadlockError


@pytest.fixture(autouse=True)
def _fast_paths_on(monkeypatch):
    monkeypatch.delenv(tiers.ENV, raising=False)


def _machine(shape=(2, 2, 1)):
    return Machine(t3d_machine_params(shape))


def _run_both(program, shape=(2, 2, 1)):
    """Run ``program`` under the cohort and the reference scheduler on
    fresh machines; return ((results, clocks), (results, clocks))."""
    results_c, contexts_c = _machine(shape).run_spmd(program)
    with tiers.reference():
        results_r, contexts_r = _machine(shape).run_spmd(program)
    return ((results_c, [c.clock for c in contexts_c]),
            (results_r, [c.clock for c in contexts_r]))


# ----------------------------------------------------------------------
# Partial barrier: a straggler must hold the whole epoch's cohort
# ----------------------------------------------------------------------

def test_partial_barrier_holds_cohort():
    def program(ctx):
        # PE 3 straggles by 50k cycles; 0-2 arrive almost together and
        # must block until the last arrival completes the epoch.
        ctx.charge(50_000.0 if ctx.pe == 3 else 10.0 * ctx.pe)
        yield from ctx.barrier()
        return ctx.clock

    cohort, reference = _run_both(program)
    assert cohort == reference
    results, _clocks = cohort
    assert min(results) > 50_000.0        # nobody exited early


def test_repeated_partial_barriers():
    def program(ctx):
        marks = []
        for step in range(4):
            # A different straggler each epoch.
            ctx.charge(5_000.0 if ctx.pe == step else float(ctx.pe))
            yield from ctx.barrier()
            marks.append(ctx.clock)
        return marks

    assert _run_both(program)[0] == _run_both(program)[1]


# ----------------------------------------------------------------------
# Wakeup exactly on the horizon: bytes landing at the waiter's clock
# ----------------------------------------------------------------------

def test_store_wakeup_via_in_run_flush():
    """The producer's memory barrier drains the store while other
    threads still run: the wake event fires mid-round."""

    def program(ctx):
        if ctx.pe == 0:
            yield from ctx.wait_for_bytes(8)
            return ctx.node.bytes_arrived_total()
        if ctx.pe == 1:
            full = ctx.node.annex.compose_address(1, 0x100)
            ctx.node.annex.set_entry(1, 0)
            ctx.charge(23.0)
            ctx.charge(ctx.node.remote.store(ctx.clock, 0, 0x100,
                                             7.0, full))
            ctx.memory_barrier()          # forces the drain now
            return "flushed"
        ctx.charge(100_000.0)             # keep the machine busy
        return None
        yield  # pragma: no cover

    cohort, reference = _run_both(program)
    assert cohort == reference
    assert cohort[0][0] >= 8


def test_store_wakeup_via_settle_when_heap_empties():
    """No thread ever flushes: the bytes land only when the scheduler
    runs out of runnable threads and settles the write buffers — the
    wakeup arrives exactly on the deadlock-check horizon."""

    def program(ctx):
        if ctx.pe == 0:
            yield from ctx.wait_for_bytes(8)
            return ctx.node.bytes_arrived_total()
        if ctx.pe == 1:
            full = ctx.node.annex.compose_address(1, 0x100)
            ctx.node.annex.set_entry(1, 0)
            ctx.charge(ctx.node.remote.store(ctx.clock, 0, 0x100,
                                             9.0, full))
            # No memory barrier: the packet sits in the write buffer
            # until the machine settles.
            return "pending"
        return None
        yield  # pragma: no cover

    cohort, reference = _run_both(program)
    assert cohort == reference
    assert cohort[0][0] >= 8


# ----------------------------------------------------------------------
# Mixed conditions: one wake event must not wake the other groups
# ----------------------------------------------------------------------

def test_mixed_conditions_split_cohort():
    """Barrier waiters, a bytes waiter, and a message waiter coexist;
    each horizon releases exactly its own group."""

    def program(ctx):
        if ctx.pe == 0:
            # Waits on bytes first, then joins the barrier.
            yield from ctx.wait_for_bytes(8)
            yield from ctx.barrier()
            return ("bytes", ctx.node.bytes_arrived_total())
        if ctx.pe == 1:
            # Waits on a hardware message, then joins the barrier.
            yield from ctx.wait_message()
            cycles, msg = ctx.node.msgq.receive(ctx.clock)
            ctx.charge(cycles)
            yield from ctx.barrier()
            return ("msg", msg.payload)
        if ctx.pe == 2:
            # Feeds both waiters late, then joins the barrier.
            ctx.charge(20_000.0)
            full = ctx.node.annex.compose_address(1, 0x200)
            ctx.node.annex.set_entry(1, 0)
            ctx.charge(23.0)
            ctx.charge(ctx.node.remote.store(ctx.clock, 0, 0x200,
                                             1.0, full))
            ctx.memory_barrier()
            ctx.charge(ctx.node.msgq.send(ctx.clock, 1, ("hi", 2)))
            yield from ctx.barrier()
            return ("fed", None)
        yield from ctx.barrier()
        return ("idle", None)

    cohort, reference = _run_both(program)
    assert cohort == reference
    assert cohort[0][0] == ("bytes", 8)
    assert cohort[0][1] == ("msg", ("hi", 2))


def test_annex_conflict_inside_cohort():
    """Threads of one cohort hammer conflicting Annex registers (the
    same register renamed between targets every put): the per-thread
    Annex reload costs must split the cohort's clocks exactly as the
    reference interleaving does."""
    from repro.splitc.runtime import run_splitc

    def program(sc):
        base = sc.all_alloc(16 * 8)
        sc.ctx.local_write(base, float(sc.my_pe))
        sc.ctx.memory_barrier()
        yield from sc.barrier()
        # Alternate targets put-by-put: every put reloads the single
        # conservatively-managed Annex register (a conflict), unlike
        # the steady same-target streams of the exchange phases.
        for i in range(6):
            target = (sc.my_pe + 1 + i % 2) % sc.num_pes
            if target != sc.my_pe:
                sc.put_to(target, base + (8 + i) * 8, float(i))
        yield from sc.all_store_sync()
        return sc.ctx.clock

    def scenario():
        machine = _machine()
        results, runtimes = run_splitc(machine, program)
        return results, [sc.stats.ops["put (issue)"].count
                         for sc in runtimes]

    cohort = scenario()
    with tiers.reference():
        reference = scenario()
    assert cohort == reference


# ----------------------------------------------------------------------
# Degenerate and failure shapes
# ----------------------------------------------------------------------

def test_single_pe_degenerates_to_serial():
    def program(ctx):
        ctx.charge(10.0)
        yield from ctx.barrier()
        return ctx.pe

    results, contexts = _machine((1, 1, 1)).run_spmd(program)
    assert results == [0]
    with tiers.reference():
        ref_results, ref_contexts = _machine((1, 1, 1)).run_spmd(program)
    assert results == ref_results
    assert [c.clock for c in contexts] == [c.clock for c in ref_contexts]


def test_deadlock_message_matches_reference(monkeypatch):
    def program(ctx):
        if ctx.pe == 0:
            return "skipped the barrier"
        yield from ctx.barrier()

    messages = {}
    for env in ("1", "0"):
        monkeypatch.setenv(tiers.ENV, env)
        with pytest.raises(DeadlockError) as excinfo:
            _machine().run_spmd(program)
        messages[env] = str(excinfo.value)
    assert messages["1"] == messages["0"]
    assert "already finished" in messages["1"]


def test_wake_sinks_restored_after_run():
    machine = _machine()

    def program(ctx):
        yield from ctx.barrier()
        return ctx.pe

    machine.run_spmd(program)
    assert machine.barrier.wake_sink is None
    for node in machine.nodes:
        assert node.wake_sink is None
    # And the machine is reusable (fresh run on the same fabric).
    assert machine.run_spmd(program)[0] == [0, 1, 2, 3]


@pytest.mark.parametrize("value,expected", [
    ("0", False), ("false", False), ("no", False), ("off", False),
    (" OFF ", False), ("1", True), ("yes", True), ("", True),
])
def test_cohort_enabled_parsing(monkeypatch, value, expected):
    monkeypatch.setenv(tiers.ENV, value)
    assert cohort_enabled() is expected


def test_cohort_enabled_defaults_on(monkeypatch):
    monkeypatch.delenv(tiers.ENV, raising=False)
    assert cohort_enabled() is True


def test_dispatch_honours_env(monkeypatch):
    """run_spmd picks the cohort scheduler exactly when enabled and
    more than one context exists."""
    recorded = []
    original = CohortScheduler._run

    def spying_run(self, threads, wake):
        recorded.append(len(threads))
        return original(self, threads, wake)

    monkeypatch.setattr(CohortScheduler, "_run", spying_run)

    def program(ctx):
        yield from ctx.barrier()
        return ctx.pe

    monkeypatch.setenv(tiers.ENV, "1")
    _machine().run_spmd(program)
    assert recorded == [4]
    monkeypatch.setenv(tiers.ENV, "0")
    _machine().run_spmd(program)
    assert recorded == [4]          # reference path: no cohort run
    monkeypatch.setenv(tiers.ENV, "1")
    _machine((1, 1, 1)).run_spmd(program)
    assert recorded == [4]          # 1 PE: serial degenerate path


def test_cohort_round_events_traced():
    """Traced cohort runs emit schema-valid ``cohort_round`` events."""
    from repro.trace import tracer as trace
    from repro.trace.events import validate_record

    def program(ctx):
        ctx.charge(100.0 * ctx.pe)
        yield from ctx.barrier()
        return ctx.pe

    with trace.tracing() as tracer:
        _machine().run_spmd(program)
        rounds = [dict(r) for r in tracer.ring
                  if r.get("ev") == "cohort_round"]
    assert rounds, "no cohort_round events in a traced cohort run"
    for record in rounds:
        validate_record(record)
        assert record["woken"] >= 1
        assert record["t"] is None and record["pe"] is None
