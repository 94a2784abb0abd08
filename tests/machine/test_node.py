"""Unit tests for Node internals: heap, arrival log, reset."""

import pytest

from repro.machine.machine import Machine
from repro.machine.node import HeapAllocator
from repro.params import t3d_machine_params


@pytest.fixture
def node():
    return Machine(t3d_machine_params((2, 1, 1))).node(0)


def test_heap_never_returns_null():
    heap = HeapAllocator()
    assert heap.alloc(8) >= 0x1000


def test_heap_alignment():
    heap = HeapAllocator()
    heap.alloc(3)
    addr = heap.alloc(8, align=64)
    assert addr % 64 == 0


def test_heap_rejects_bad_args():
    heap = HeapAllocator()
    with pytest.raises(ValueError):
        heap.alloc(0)
    with pytest.raises(ValueError):
        heap.alloc(8, align=3)


def test_arrival_log_cumulative(node):
    node.record_store_arrival(8, arrival_time=100.0)
    node.record_store_arrival(16, arrival_time=50.0)   # out of order
    node.record_store_arrival(8, arrival_time=200.0)
    assert node.bytes_arrived_total() == 32
    assert node.time_when_bytes_arrived(8) == 50.0
    assert node.time_when_bytes_arrived(16) == 50.0
    assert node.time_when_bytes_arrived(24) == 100.0
    assert node.time_when_bytes_arrived(32) == 200.0
    assert node.time_when_bytes_arrived(0) == 0.0


def test_region_totals_match_a_full_scan(node):
    """Running per-region totals equal a scan of the log, with arrivals
    logged out of order and into two overlapping regions, before and
    after each region is first asked for, and across a reset."""
    import random

    rng = random.Random(3)
    regions = [(0x100, 0x300), (0x200, 0x400)]

    def scan(region):
        lo, hi = region
        return sum(nbytes for _t, nbytes, addr in node._arrivals
                   if lo <= addr < hi)

    for step in range(2):
        for k in range(60):
            node.record_store_arrival(rng.choice([8, 16]),
                                      rng.uniform(0.0, 500.0),
                                      rng.randrange(0, 0x500, 8))
            if k == 20 + step:
                assert node.bytes_arrived_total(regions[0]) == \
                    scan(regions[0])
            if k % 7 == 0:
                for region in regions[:1 + (k > 30)]:
                    assert node.bytes_arrived_total(region) == scan(region)
        for region in regions:
            total = node.bytes_arrived_total(region)
            assert total == scan(region) > 0
            assert node.time_when_bytes_arrived(total, region) == max(
                t for t, _n, addr in node._arrivals
                if region[0] <= addr < region[1])
        node.reset()
        assert all(node.bytes_arrived_total(r) == 0 for r in regions)


@pytest.mark.parametrize("seed", range(12))
def test_batched_arrivals_equal_one_at_a_time(seed):
    """``record_store_arrivals`` leaves the log, the running totals and
    a cohort wake-event list as a loop of ``record_store_arrival`` does:
    batches in order, out of order, with times equal to each other and
    to logged ones, before and after the log's end, with regions asked
    for before the batch and after it."""
    import random

    import numpy as np

    rng = random.Random(seed)
    times = [float(rng.choice([10, 20, 20, 30, 45, 60])) for _ in range(8)]
    batch = [(rng.choice([8, 16, 32]),
              rng.choice([*times, 5.0, 20.0, 70.0, rng.uniform(0, 80)]),
              rng.randrange(0, 0x400, 8))
             for _ in range(rng.randint(1, 30))]
    if seed % 3 == 0:
        batch.sort(key=lambda a: a[1])
    if seed % 4 == 1:
        batch = [(n, t + 100.0, a) for n, t, a in batch]
    asked, later = [(0x100, 0x300)], [(0x200, 0x400), (0, 1 << 40)]
    nodes = Machine(t3d_machine_params((2, 1, 1))).nodes
    for node in nodes:
        node.wake_sink = [] if seed % 2 else None
        for t in times:
            node.record_store_arrival(8, t, 0x180)
        for region in asked:
            node.bytes_arrived_total(region)
    loop, batched = nodes
    for nbytes, t, addr in batch:
        loop.record_store_arrival(nbytes, t, addr)
    nbytes, when, addrs = map(np.array, zip(*batch))
    batched.record_store_arrivals(nbytes, when, addrs)

    def state(node):
        sink = node.wake_sink
        return (node._arrivals, node._region_totals,
                sink and [(kind, pe == node.pe) for kind, pe in sink],
                [node.bytes_arrived_total(r) for r in [None, *asked,
                                                       *later]],
                [node.time_when_bytes_arrived(8 * k) for k in range(9)])

    assert state(batched) == state(loop)
    assert all(type(x) is float and type(n) is int and type(a) is int
               for x, n, a in batched._arrivals)


def test_arrival_log_insufficient_bytes_raises(node):
    node.record_store_arrival(8, 10.0)
    with pytest.raises(RuntimeError):
        node.time_when_bytes_arrived(9)


def test_node_reset_clears_log_and_state(node):
    node.record_store_arrival(8, 10.0)
    node.memsys.l1.fill(0)
    node.reset()
    assert node.bytes_arrived_total() == 0
    assert node.memsys.l1.resident_lines == 0


def test_release_forgets_stored_words_logs_and_acks():
    """A released machine keeps no stored word, arrival or pending
    acknowledgement (the cyclic-garbage machine holds nothing large),
    and stays usable."""
    machine = Machine(t3d_machine_params((2, 1, 1)))
    src, dst = machine.nodes
    dst.memsys.memory.alloc_segment(0x2000, 8, "f8")
    dst.memsys.memory.store_range(0x2000, [1.0] * 8)
    dst.memsys.memory.store(0x9000, 2.0)
    src.annex.set_entry(1, 1)
    full = src.annex.compose_address(1, 0x3000)
    src.remote.store(0.0, 1, 0x3000, 3.0, full)
    src.memsys.memory_barrier(10.0)
    assert dst._arrivals and src.remote._acks
    machine.release()
    for node in machine.nodes:
        assert list(node.memsys.memory.items()) == []
        assert node._arrivals == [] and node.remote._acks == []
        assert node.memsys.write_buffer._pending == []
    dst.memsys.memory.store(0x2000, 4.0)
    assert dst.memsys.memory.load(0x2000) == 4.0
    assert dst.memsys.memory.load(0x9000) == 0


def test_symmetric_alloc_agrees_across_nodes():
    machine = Machine(t3d_machine_params((2, 2, 1)))
    a = machine.symmetric_alloc(64)
    b = machine.symmetric_alloc(128)
    assert b >= a + 64


def test_symmetric_alloc_detects_divergence():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    machine.node(0).heap.alloc(8)        # diverge one node's heap
    with pytest.raises(RuntimeError):
        machine.symmetric_alloc(64)


def test_machine_node_bounds():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    with pytest.raises(ValueError):
        machine.node(2)
