"""``WriteBuffer.stream`` against the per-store loops it batches.

From a random *warm* buffer — pending entries, some retired but not yet
flushed when the stream starts — a random run of stores issues two
ways on identical copies:

* **per store** — per the clock input, ``write_cycles`` (local form) or
  ``RemoteAccessUnit.store`` (remote form), with the source read's
  flush where the clock input has one;
* **streamed** — ``MemorySystem.stream_writes`` /
  ``RemoteAccessUnit.stream_stores``.

Gaps lie on the 2**-8 grid except where a draw deliberately leaves it.
Either both end with byte-identical units and the same clock, or the
stream declined and left every unit untouched.  The local form tries
the closed form (``WriteBuffer.stream_closed``) at every length here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.machine import Machine
from repro.node import memsys
from repro.node.memsys import t3d_memory_system, workstation_memory_system
from repro.node.write_buffer import BlockingSource, PrefetchSource
from repro.params import WORD_BYTES, t3d_machine_params
from repro.trace import tracer as trace

#: Lines that share DRAM banks and rows in different ways, so repeated
#: lines merge, retire, and re-open entries.
LINES = (0x1000, 0x1020, 0x5000, 0x11000, 0x11020)

@pytest.fixture(autouse=True, scope="module")
def _closed_form_at_every_length():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memsys, "_MIN_CLOSED_STORES", 0)
        yield


grid_gaps = st.sampled_from([0.0, 0.25, 1.0, 3.0, 6.5, 23.0, 140.0])
any_gaps = st.one_of(grid_gaps, st.sampled_from([0.1, 1 / 3, 2.0 ** 45]))


def word_addrs():
    return st.builds(lambda line, word: LINES[line] + word * WORD_BYTES,
                     st.integers(0, len(LINES) - 1), st.integers(0, 3))


#: (gap before it, address) per warm-up store; then a gap to the start.
warm = st.tuples(st.lists(st.tuples(grid_gaps, word_addrs()), max_size=10),
                 grid_gaps)


def _warm_memsys(ops, then):
    ms = t3d_memory_system()
    clock = 0.0
    for k, (gap, addr) in enumerate(ops):
        clock += gap
        clock += ms.write_cycles(clock, addr, float(k))
    return ms, clock + then


def _memsys_state(ms, clock):
    wb = ms.write_buffer
    return (clock, list(ms.dram._open_row), ms.dram._last_bank,
            ms.dram.accesses, ms.dram.row_misses,
            ms.dram.same_bank_conflicts, wb.merged_writes,
            wb.drained_entries, wb._last_retire,
            [(e.line_addr, e.enqueue_time, e.retire_time,
              list(e.words.items())) for e in wb._pending],
            sorted(ms.memory.items()))


@settings(max_examples=150, deadline=None)
@given(warm, st.lists(st.tuples(any_gaps, word_addrs()), min_size=1,
                      max_size=40))
def test_local_stream_matches_write_cycles(warm_state, stores):
    ops, then = warm_state
    gaps = [g for g, _a in stores]
    addrs = [a for _g, a in stores]
    values = [1000.0 + k for k in range(len(stores))]

    ref, clock = _warm_memsys(ops, then)
    for gap, addr, value in zip(gaps, addrs, values):
        clock += gap
        clock += ref.write_cycles(clock, addr, value)

    ms, start = _warm_memsys(ops, then)
    before = _memsys_state(ms, start)
    end = ms.stream_writes(start, addrs, values,
                           BlockingSource(np.array(gaps)))
    if end is None:
        assert not all(g in (0.0, 0.25, 1.0, 3.0, 6.5, 23.0, 140.0)
                       for g in gaps)
        assert _memsys_state(ms, start) == before
    else:
        assert _memsys_state(ms, end) == _memsys_state(ref, clock)


@pytest.mark.parametrize("warm_at, start", [
    (0.0, 0.1),                 # start clock off the grid
    (0.0, 2.0 ** 44),           # start clock at the ceiling
    (0.1, 1000.0),              # a pending retire time off the grid
])
def test_local_stream_declines_off_the_envelope(warm_at, start):
    ms = t3d_memory_system()
    ms.write_cycles(warm_at, 0x1000, 1.0)
    before = _memsys_state(ms, start)
    assert ms.stream_writes(start, [0x1008, 0x5000], [2.0, 3.0],
                            BlockingSource(np.array([1.0, 1.0]))) is None
    assert _memsys_state(ms, start) == before


def test_local_stream_declines_outside_fast_read_shape():
    ms = workstation_memory_system()
    assert ms.stream_writes(0.0, [0x1000], [1.0],
                            BlockingSource(np.array([1.0]))) is None
    assert ms.write_buffer._pending == []


def test_local_stream_declines_while_tracing():
    ms, start = _warm_memsys([(0.0, 0x1000)], 0.0)
    before = _memsys_state(ms, start)
    with trace.tracing():
        assert ms.stream_writes(start, [0x1008], [1.0],
                                BlockingSource(np.array([1.0]))) is None
    assert _memsys_state(ms, start) == before


def test_prefetch_source_matches_pop_loop():
    """The FIFO clock input: store k waits for read k's reply, and read
    k + D issues after store k."""
    latency = np.array([84.0, 99.0, 84.0, 108.0, 84.0, 84.0, 99.0, 84.0])
    depth, pop, loop, fetch = 3, 23.0, 2.0, 4.0
    addrs = [0x1000 + 8 * k for k in range(len(latency))]
    ref, clock = _warm_memsys([(0.0, 0x1000), (5.0, 0x5000)], 1.0)
    ready = [clock + i * fetch + latency[i] for i in range(depth)]
    start = clock + depth * fetch
    clock = start
    for k, addr in enumerate(addrs):
        clock = max(clock, ready[k]) + pop
        clock += ref.write_cycles(clock, addr, float(k))
        clock += loop
        if k + depth < len(addrs):
            ready.append(clock + latency[k + depth])
            clock += fetch

    ms, _ = _warm_memsys([(0.0, 0x1000), (5.0, 0x5000)], 1.0)
    end = ms.stream_writes(start, addrs, [float(k) for k in range(8)],
                           PrefetchSource(ready[:depth], latency, pop, loop,
                                          fetch))
    assert _memsys_state(ms, end) == _memsys_state(ref, clock)


@pytest.mark.parametrize("pre", [None, [23.0, 0.0, 23.0, 23.0, 0.0, 23.0,
                                         23.0, 0.0, 0.0]])
def test_grouped_prefetch_source_matches_drain_refill_loop(pre):
    """Group D: store k waits for read k's reply; after every D-th store
    the next D reads issue, each after its pre-issue charge."""
    latency = np.array([84.0, 99.0, 84.0, 108.0, 84.0, 84.0, 99.0, 84.0,
                        93.0])
    depth, pop, loop, fetch = 3, 25.0, 0.0, 6.0
    charge = [0.0] * len(latency) if pre is None else pre
    addrs = [0x1000 + 32 * k for k in range(len(latency))]
    ref, clock = _warm_memsys([(0.0, 0x1000), (5.0, 0x5000)], 1.0)
    start = clock
    ready = []

    def issue(j):
        nonlocal clock
        clock += charge[j]
        ready.append(clock + latency[j])
        clock += fetch

    for j in range(depth):
        issue(j)
    first = clock
    for k, addr in enumerate(addrs):
        clock = max(clock, ready[k]) + pop
        clock += ref.write_cycles(clock, addr, float(k))
        clock += loop
        if (k + 1) % depth == 0:
            for j in range(k + 1, min(len(addrs), k + 1 + depth)):
                issue(j)

    ms, _ = _warm_memsys([(0.0, 0x1000), (5.0, 0x5000)], 1.0)
    source = PrefetchSource(ready[:depth], latency, pop, loop, fetch, depth,
                            None if pre is None else np.array(pre))
    assert start < first
    end = ms.stream_writes(first, addrs, [float(k) for k in range(9)],
                           source)
    assert _memsys_state(ms, end) == _memsys_state(ref, clock)


def test_prefetch_source_declines_a_group_beyond_the_window():
    ms = t3d_memory_system()
    source = PrefetchSource([90.0], np.array([84.0, 84.0]), 23.0, 0.0, 4.0,
                            group=2)
    assert ms.stream_writes(0.0, [0x1000, 0x1020], [1.0, 2.0],
                            source) is None
    assert ms.write_buffer._pending == []


# ----------------------------------------------------------------------
# The remote form, against RemoteAccessUnit.store
# ----------------------------------------------------------------------

def _machine_state(machine, clock):
    out = [clock, [wb.owner_pe for wb in machine._dirty_buffers]]
    for node in machine.nodes:
        ms = node.memsys
        out.append((_memsys_state(ms, None), sorted(ms.l1._tags.items()),
                    [(e.apply_words, e.meta and e.meta[0])
                     for e in ms.write_buffer._pending],
                    node.remote.stores,
                    [(a.drain_time, a.ack_time, a.nbytes)
                     for a in node.remote._acks],
                    node.inbound_busy_until, list(node._arrivals)))
    return out


#: Warm-up: (gap, is_remote, word offset) per store.
remote_warm = st.lists(
    st.tuples(grid_gaps, st.booleans(), st.integers(0, 40)), max_size=10)


def _warm_machine(ops, index):
    machine = Machine(t3d_machine_params((4, 1, 1)))
    node = machine.node(0)
    unit = node.remote
    clock = 0.0
    for k, (gap, remote, word) in enumerate(ops):
        clock += gap
        offset = 0x4000 + word * WORD_BYTES
        if remote:
            full = node.annex.compose_address(index, offset)
            clock += unit.store(clock, 1, offset, float(k), full)
        else:
            clock += node.memsys.write_cycles(clock, offset, float(k))
    return machine, clock


@settings(max_examples=120, deadline=None)
@given(remote_warm, grid_gaps, st.integers(0, 40), st.booleans(),
       st.lists(st.tuples(any_gaps, st.integers(1, 3)), min_size=1,
                max_size=30), st.booleans())
def test_remote_stream_matches_store(ops, then, first_word, read_flush,
                                     stores, one_target):
    index = 1
    offset = 0x4000 + first_word * WORD_BYTES
    lead = 2.0
    gaps = [gap for gap, _pe in stores]
    pes = [1 if one_target else pe for _gap, pe in stores]
    values = [500.0 + k for k in range(len(gaps))]

    def setup():
        machine, clock = _warm_machine(ops, index)
        node = machine.node(0)
        node.annex.set_entry(index, 1)
        return machine, node, clock + then

    machine, node, clock = setup()
    full = node.annex.compose_address(index, offset)
    wb = node.memsys.write_buffer
    for k, gap in enumerate(gaps):
        if read_flush and wb._pending:
            wb.flush_retired(clock)
        clock += gap
        clock += node.remote.store(clock, pes[k], offset + k * WORD_BYTES,
                                   values[k], full + k * WORD_BYTES)
        clock += lead
    ref = _machine_state(machine, clock)

    machine, node, start = setup()
    before = _machine_state(machine, start)
    span = len(values) * WORD_BYTES
    end = node.remote.stream_stores(
        start, 1 if one_target else np.array(pes),
        range(offset, offset + span, WORD_BYTES),
        range(full, full + span, WORD_BYTES), values,
        BlockingSource(np.array(gaps), lead, read_flush))
    if end is None:
        assert any(g not in (0.0, 0.25, 1.0, 3.0, 6.5, 23.0, 140.0)
                   for g in gaps)
        assert _machine_state(machine, start) == before
    else:
        assert _machine_state(machine, end) == ref
