"""Integration tests for the Split-C runtime (paper sections 4, 5, 7).

Headline calibrations asserted: remote read ~128 cycles, remote write
~147 cycles, put ~45 cycles, and the functional semantics of get/put/
sync, signaling stores, and byte writes.
"""

import pytest

from repro.machine.machine import Machine
from repro.params import t3d_machine_params
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC, run_splitc


@pytest.fixture
def machine():
    return Machine(t3d_machine_params((2, 1, 1)))


def single_thread(machine, pe=0):
    """A SplitC runtime outside the scheduler, for cost probes."""
    ctx = machine.make_contexts()[pe]
    return SplitC(ctx)


def warm_remote(machine, pe=1, offset=0x9000):
    machine.node(pe).memsys.dram.access(offset)


def test_remote_read_costs_128_cycles(machine):
    sc = single_thread(machine)
    warm_remote(machine, 1, 0x2000)
    machine.node(1).memsys.memory.store(0x2008, 99)
    sc.ctx.clock = 10_000.0
    before = sc.ctx.clock
    value = sc.read(GlobalPtr(1, 0x2008))
    assert value == 99
    assert sc.ctx.clock - before == pytest.approx(128.0)


def test_local_read_through_global_pointer_is_cheap(machine):
    sc = single_thread(machine)
    sc.ctx.node.memsys.memory.store(0x100, 5)
    before = sc.ctx.clock
    assert sc.read(GlobalPtr(0, 0x100)) == 5
    assert sc.ctx.clock - before < 40.0


def test_remote_write_costs_147_cycles(machine):
    sc = single_thread(machine)
    warm_remote(machine, 1, 0x3000)
    sc.ctx.clock = 10_000.0
    before = sc.ctx.clock
    sc.write(GlobalPtr(1, 0x3008), "w")
    assert sc.ctx.clock - before == pytest.approx(147.0, abs=2.0)
    assert machine.node(1).memsys.memory.load(0x3008) == "w"


def test_put_steady_state_45_cycles(machine):
    sc = single_thread(machine)
    warm_remote(machine)
    now = sc.ctx.clock
    costs = []
    for i in range(32):
        before = sc.ctx.clock
        sc.put(GlobalPtr(1, 0x4000 + i * 32), i)
        costs.append(sc.ctx.clock - before)
    steady = sum(costs[8:]) / len(costs[8:])
    assert steady == pytest.approx(45.0, abs=1.0)


def test_put_then_sync_delivers(machine):
    sc = single_thread(machine)
    for i in range(4):
        sc.put(GlobalPtr(1, 0x5000 + i * 8), 10 + i)
    sc.sync()
    mem = machine.node(1).memsys.memory
    assert mem.load_range(0x5000, 4) == [10, 11, 12, 13]
    # After sync, no writes are outstanding.
    assert sc.ctx.node.remote.status_says_complete(sc.ctx.clock)


def test_get_then_sync_fills_targets(machine):
    sc = single_thread(machine)
    mem1 = machine.node(1).memsys.memory
    for i in range(8):
        mem1.store(0x6000 + i * 8, 100 + i)
    dst = sc.ctx.node.heap.alloc(64)
    for i in range(8):
        sc.get(GlobalPtr(1, 0x6000 + i * 8), dst + i * 8)
    assert sc.pending_gets == 8
    sc.sync()
    assert sc.pending_gets == 0
    sc.ctx.memory_barrier()        # commit the local stores
    assert sc.ctx.node.memsys.memory.load_range(dst, 8) == list(range(100, 108))


def test_get_pipelines_cheaper_than_reads(machine):
    warm_remote(machine, 1, 0x7000)
    # 16 gets + sync vs 16 blocking reads.
    sc1 = single_thread(machine)
    sc1.ctx.clock = 10_000.0
    before = sc1.ctx.clock
    dst = sc1.ctx.node.heap.alloc(16 * 8)
    for i in range(16):
        sc1.get(GlobalPtr(1, 0x7000 + i * 8), dst + i * 8)
    sc1.sync()
    get_cost = sc1.ctx.clock - before

    machine2 = Machine(t3d_machine_params((2, 1, 1)))
    warm_remote(machine2, 1, 0x7000)
    sc2 = single_thread(machine2)
    sc2.ctx.clock = 10_000.0
    before = sc2.ctx.clock
    for i in range(16):
        sc2.read(GlobalPtr(1, 0x7000 + i * 8))
    read_cost = sc2.ctx.clock - before

    assert get_cost < 0.75 * read_cost


def test_get_queue_overflow_auto_drains(machine):
    sc = single_thread(machine)
    dst = sc.ctx.node.heap.alloc(32 * 8)
    for i in range(32):                    # twice the queue depth
        sc.get(GlobalPtr(1, 0x8000 + i * 8), dst + i * 8)
    sc.sync()
    assert sc.pending_gets == 0


def test_gets_of_local_pointers_copy_immediately(machine):
    sc = single_thread(machine)
    sc.ctx.node.memsys.memory.store(0x900, "local")
    dst = sc.ctx.node.heap.alloc(8)
    sc.get(GlobalPtr(0, 0x900), dst)
    assert sc.pending_gets == 0
    sc.ctx.memory_barrier()
    assert sc.ctx.node.memsys.memory.load(dst) == "local"


def test_spmd_store_and_all_store_sync(machine):
    """Bulk-synchronous neighbor exchange: PE i stores to PE (i+1)%P."""

    def program(sc):
        base = sc.all_alloc(8)
        neighbor = (sc.my_pe + 1) % sc.num_pes
        sc.store(GlobalPtr(neighbor, base), 1000 + sc.my_pe)
        yield from sc.all_store_sync()
        return sc.ctx.local_read(base)

    results, _ = run_splitc(machine, program)
    assert results == [1001, 1000]


def test_spmd_store_sync_message_driven(machine):
    """PE 1 proceeds as soon as its boundary data (2 words) arrives."""

    def program(sc):
        base = sc.all_alloc(16)
        if sc.my_pe == 0:
            sc.store(GlobalPtr(1, base), "a")
            sc.store(GlobalPtr(1, base + 8), "b")
            return None
        yield from sc.store_sync(16)
        return (sc.ctx.local_read(base), sc.ctx.local_read(base + 8))

    results, _ = run_splitc(machine, program)
    assert results[1] == ("a", "b")


def test_read_byte_and_racy_write_byte(machine):
    sc = single_thread(machine)
    gp = GlobalPtr(1, 0xA00)
    sc.write(gp, 0)
    sc.write_byte_racy(gp, 2, 0xAB)
    assert sc.read_byte(gp, 2) == 0xAB
    assert sc.read_byte(gp, 0) == 0


def test_racy_byte_writes_clobber_each_other(machine):
    """The section 4.5 hazard: two PEs read-modify-write one word."""

    def program(sc):
        base = sc.all_alloc(8)
        target = GlobalPtr(0, base)
        if sc.my_pe == 0:
            sc.ctx.local_write(base, 0)
            sc.ctx.memory_barrier()
        yield from sc.barrier()
        # Both PEs read the word (both see 0), then merge their byte.
        word = sc.read(target)
        from repro.node.alpha import merge_byte_into_word
        merged = merge_byte_into_word(int(word), 0xAA if sc.my_pe == 0
                                      else 0xBB, sc.my_pe)
        yield from sc.barrier()            # both hold stale words now
        sc.write(target, merged)
        yield from sc.barrier()
        return sc.read(target)

    results, _ = run_splitc(machine, program)
    final = int(results[0])
    # One byte survived, the other was clobbered: never both.
    both = (final & 0xFF == 0xAA) and ((final >> 8) & 0xFF == 0xBB)
    assert not both


def test_read_mechanism_cached_ablation(machine):
    """The rejected cached-read implementation still returns correct
    values (flush keeps it coherent) but costs more per scalar read."""
    from repro.splitc.codegen import CodegenPlan

    plan = CodegenPlan(read_mechanism="cached")
    ctx = machine.make_contexts()[0]
    sc = SplitC(ctx, plan=plan)
    warm_remote(machine, 1, 0xB00)
    machine.node(1).memsys.memory.store(0xB08, 7)
    sc.ctx.clock = 10_000.0
    before = sc.ctx.clock
    assert sc.read(GlobalPtr(1, 0xB08)) == 7
    cached_cost = sc.ctx.clock - before
    assert cached_cost > 128.0             # worse than uncached
    # Coherence: owner writes, reader still sees the new value.
    machine.node(1).memsys.memory.store(0xB08, 8)
    assert sc.read(GlobalPtr(1, 0xB08)) == 8


def test_alloc_and_gptr_helpers(machine):
    sc = single_thread(machine)
    gp = sc.alloc(64)
    assert gp.pe == 0
    assert gp.addr >= 0x1000
    gp2 = sc.gptr(1, 0x500)
    assert gp2 == GlobalPtr(1, 0x500)


def test_run_splitc_propagates_plan(machine):
    from repro.splitc.codegen import CodegenPlan

    plan = CodegenPlan(annex_skip_when_unchanged=True)

    def program(sc):
        return sc.plan.annex_skip_when_unchanged
        yield  # pragma: no cover

    results, runtimes = run_splitc(machine, program, plan=plan)
    assert all(results)
    assert all(sc.annex_policy.skip_when_unchanged for sc in runtimes)


def test_planned_reads_return_words_of_any_type(machine):
    """``plan_reads`` times reads of words that are not floats too,
    and returns exactly what the per-read loop reads."""
    import numpy as np

    memory = machine.node(1).memsys.memory
    memory.store(0x100, 2.5)
    memory.store(0x108, "w")
    memory.store(0x110, 7)          # 0x118 is never written
    addrs = np.array([0x108, 0x100, 0x118, 0x110, 0x108], dtype=np.int64)
    want = [single_thread(machine).read_from(1, a) for a in addrs.tolist()]
    plan = single_thread(machine).plan_reads(
        np.ones(len(addrs), dtype=np.int64), addrs)
    assert plan is not None
    assert [(type(v), v) for v in plan.values] == \
        [(type(v), v) for v in want]
