"""``MemorySystem.plan_read_cycles`` against per-access ``read_cycles``.

From a random *warm* state — TLB entries in LRU order, L1 and L2 tags,
open DRAM rows and a last bank, left by a random mix of reads and
stores — a stream of reads runs two ways on identical copies:

* **scalar** — ``read_cycles`` per access, the loop the plan batches;
* **planned** — ``plan_read_cycles`` of the whole stream, then
  ``commit()``.

The cycles must be equal, the planned copy untouched until the commit,
and every unit's state and counters equal after it.  Streams include
sawtooth passes that straddle pages and span the TLB's capacity minus
one, at, and plus one, on the workstation (8 KB pages, a finite TLB and
an L2) and on the T3D.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.node.memsys import MemorySystem
from repro.params import (
    ANNEX_BIT_SHIFT,
    CacheParams,
    TlbParams,
    WORD_BYTES,
    t3d_node_params,
    workstation_node_params,
)

KB = 1024
PAGE = 8 * KB

SHAPES = {
    "t3d": t3d_node_params,
    "workstation": workstation_node_params,
    # A 4-entry TLB, so short streams cross its capacity.
    "workstation-tlb-4": lambda: replace(
        workstation_node_params(),
        tlb=replace(workstation_node_params().tlb, entries=4)),
}

#: Regions apart by the L1 size, a DRAM bank's interleave, the L2 size
#: and an Annex bit: reads there collide in the caches and the DRAM.
REGIONS = (0, 8 * KB, 64 * KB, 512 * KB, 1 << ANNEX_BIT_SHIFT)

addresses = st.builds(lambda region, word: REGIONS[region] + word * WORD_BYTES,
                      st.integers(0, len(REGIONS) - 1),
                      st.integers(0, 8 * PAGE // WORD_BYTES))

#: Warm-up operations: (is_store, address).
warm_ops = st.lists(st.tuples(st.booleans(), addresses), max_size=40)

sawtooth = st.builds(
    lambda base, stride, count, passes: np.tile(
        base + stride * np.arange(count, dtype=np.int64), passes),
    addresses,
    st.sampled_from([8, 32, 256, 4 * KB, PAGE, 16 * KB, 64 * KB]),
    st.integers(1, 40), st.integers(1, 3))

streams = st.one_of(
    sawtooth,
    st.lists(addresses, min_size=1, max_size=60).map(
        lambda a: np.array(a, dtype=np.int64)))


def _warm(shape, ops):
    ms = MemorySystem(SHAPES[shape]())
    now = 0.0
    for is_store, addr in ops:
        now += (ms.write_cycles(now, addr) if is_store
                else ms.read_cycles(now, addr))
    return ms


def _tags(cache):
    if cache._assoc == 1:
        return sorted(cache._tags.items())
    return sorted((index, list(ways)) for index, ways in cache._ways.items())


def _state(ms):
    caches = [ms.l1] + ([ms.l2] if ms.l2 is not None else [])
    return (list(ms.tlb._entries), [_tags(c) for c in caches],
            list(ms.dram._open_row), ms.dram._last_bank, ms.counters())


def _scalar(ms, addrs):
    now = 0.0
    cycles = []
    for addr in addrs:
        cycles.append(ms.read_cycles(now, addr))
        now += cycles[-1]
    return cycles


def _assert_plan_equals_loop(shape, ops, addrs):
    scalar_ms, planned_ms = _warm(shape, ops), _warm(shape, ops)
    before = _state(planned_ms)
    cycles, commit = planned_ms.plan_read_cycles(addrs)
    assert _state(planned_ms) == before
    want = _scalar(scalar_ms, addrs.tolist() if isinstance(addrs, np.ndarray)
                   else addrs)
    assert cycles.tolist() == want
    commit()
    assert _state(planned_ms) == _state(scalar_ms)


@given(shape=st.sampled_from(list(SHAPES)), ops=warm_ops, addrs=streams)
@settings(max_examples=300, deadline=None)
def test_plan_equals_scalar_loop_from_warm_state(shape, ops, addrs):
    _assert_plan_equals_loop(shape, ops, addrs)


@pytest.mark.parametrize("shape", ["workstation", "workstation-tlb-4"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("base", [0, PAGE - WORD_BYTES, 3 * PAGE + 40])
def test_tlb_capacity_edges(shape, extra, base):
    """Two passes over one page more, as many, or one fewer than the
    TLB holds, from a base at, just before, or inside a page, after a
    warm-up that leaves other pages resident."""
    pages = SHAPES[shape]().tlb.entries + extra
    one_pass = base + PAGE * np.arange(pages, dtype=np.int64)
    ops = [(False, 100 * PAGE + k * PAGE) for k in range(3)]
    _assert_plan_equals_loop(shape, ops, np.tile(one_pass, 2))
    # Word strides straddling a page boundary, as a range.
    _assert_plan_equals_loop(
        shape, ops, range(base, base + 2 * PAGE + 64, WORD_BYTES))


@pytest.mark.parametrize("shape", list(SHAPES))
def test_long_streams_chain_across_pieces(shape):
    """A stream longer than ``chunks``' pieces: each unit's state at the
    end of one piece is the next piece's start."""
    ops = [(False, k * 3 * PAGE + 8) for k in range(40)]
    nwords = 3 * 16384 + 5
    _assert_plan_equals_loop(shape, ops, range(0, nwords * WORD_BYTES,
                                               WORD_BYTES))
    _assert_plan_equals_loop(shape, ops, np.tile(
        np.arange(0, 2 * 16384 * 32, 32, dtype=np.int64), 2))


@given(ops=warm_ops.map(lambda ops: [(False, a) for _, a in ops]),
       start=st.integers(0, 4 * PAGE // WORD_BYTES),
       nwords=st.integers(1, 3 * PAGE // WORD_BYTES))
@settings(max_examples=50, deadline=None)
def test_plan_reads_on_a_workstation_node(ops, start, nwords):
    """``plan_reads`` times a workstation node's reads (TLB, L1, L2,
    DRAM) as the ``read`` loop does, and returns its values.  The warm
    state is left by reads: the write-buffer hazards are
    ``test_write_stream.py``'s."""
    scalar_ms, planned_ms = _warm("workstation", ops), _warm("workstation",
                                                             ops)
    for ms in (scalar_ms, planned_ms):
        for k in range(8):
            ms.memory.store(k * 1024, float(k) + 0.5)
    addrs = range(start * WORD_BYTES, (start + nwords) * WORD_BYTES,
                  WORD_BYTES)
    plan = planned_ms.plan_reads(addrs)
    assert plan is not None
    now = 0.0
    want = []
    for addr in addrs:
        want.append(scalar_ms.read(now, addr))
        now += want[-1][0]
    assert list(zip(plan.cycles.tolist(), plan.values)) == want
    plan.commit()
    assert _state(planned_ms) == _state(scalar_ms)


def test_set_associative_caches_decline_untouched():
    for params in (
            replace(t3d_node_params(), l1=CacheParams(associativity=2)),
            replace(workstation_node_params(),
                    l2=replace(workstation_node_params().l2,
                               associativity=2))):
        ms = MemorySystem(params)
        ms.read_cycles(0.0, 64)
        before = _state(ms)
        assert ms.plan_read_cycles(range(0, 4096, WORD_BYTES)) is None
        assert ms.plan_reads(range(0, 4096, WORD_BYTES)) is None
        assert _state(ms) == before


@pytest.mark.parametrize("unit, changes", [
    ("l1", {"hit_cycles": 2.1}),
    ("l2", {"hit_cycles": 5.3}),
    ("tlb", {"miss_cycles": 7.3}),
    ("dram", {"access_cycles": 22.3}),
])
def test_off_grid_costs_decline(unit, changes):
    p = workstation_node_params()
    ms = MemorySystem(replace(p, **{unit: replace(getattr(p, unit),
                                                  **changes)}))
    assert ms.plan_read_cycles(range(0, 4096, WORD_BYTES)) is None
    assert ms.counters() == MemorySystem(p).counters()


def test_never_missing_tlb_is_not_touched():
    ms = MemorySystem(replace(t3d_node_params(),
                              tlb=TlbParams(never_misses=True)))
    cycles, commit = ms.plan_read_cycles(range(0, 64 * KB, 4 * KB))
    commit()
    assert ms.tlb.hits == ms.tlb.misses == 0 and not ms.tlb._entries
