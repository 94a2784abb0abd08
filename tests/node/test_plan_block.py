"""``MemorySystem.plan_block`` against the scalar access loop.

From a random *warm* state — resident L1 tags, open DRAM rows, a last
bank, pending write-buffer entries (some at Annex synonyms of plain
words) and memory words in a segment and the sparse dict — a random
block of rows runs two ways on identical copies:

* **scalar** — ``read`` per load, the row charges, ``write_cycles`` per
  store: the sequence the plan claims to batch;
* **planned** — ``gather`` the load values, then ``plan_block``, which
  issues the stores itself (``WriteBuffer.settle``).

Either the two end in byte-identical units with identical cycles and
values, or the plan declined and left every unit untouched.

``WriteBuffer.settle``, the closed-form stage the plan shares with the
store stream, is also held on its own to the ``push_new`` loop, from
random warm buffers and with gaps short enough to stall.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.node.memsys import MemorySystem
from repro.node.write_buffer import BlockingSource
from repro.params import (
    ANNEX_BIT_SHIFT,
    CacheParams,
    TlbParams,
    WORD_BYTES,
    WriteBufferParams,
    t3d_node_params,
)
from repro.trace import tracer as trace

SEGMENT_BASE = 0x1000
SEGMENT_WORDS = 64
#: Regions that collide with the segment in the 8 KB L1 (+8 KB), in a
#: DRAM bank (+64 KB), and a dict-backed region.
REGIONS = (SEGMENT_BASE, SEGMENT_BASE + 0x2000, SEGMENT_BASE + 0x10000,
           0x9000)
OUTPUT_BASE = 0x21000


def addresses(max_annex=0):
    return st.builds(
        lambda region, word, annex: (REGIONS[region] + word * WORD_BYTES
                                     + (annex << ANNEX_BIT_SHIFT)),
        st.integers(0, len(REGIONS) - 1), st.integers(0, SEGMENT_WORDS - 1),
        st.integers(0, max_annex))


#: Warm-up operations: (is_store, address, gap before it in cycles).
warm_ops = st.lists(
    st.tuples(st.booleans(), addresses(max_annex=2),
              st.sampled_from([0.0, 1.0, 2.5, 6.0])),
    max_size=24)

#: Row outputs: mostly one word per line in a region of their own,
#: sometimes anywhere (a hazard the plan must see).
outputs = st.one_of(
    st.integers(0, SEGMENT_WORDS - 1).map(lambda i: OUTPUT_BASE + i * 32),
    st.integers(0, SEGMENT_WORDS - 1).map(lambda i: OUTPUT_BASE + i * 32),
    addresses())

rows = st.lists(
    st.tuples(st.lists(addresses(max_annex=1), max_size=5), outputs),
    min_size=1, max_size=8)

shapes = st.sampled_from(["t3d"] * 8 + ["no-merge", "depth-3", "two-way",
                                        "tlb-miss"])


def _params(shape):
    p = t3d_node_params()
    if shape == "no-merge":
        return replace(p, write_buffer=WriteBufferParams(merging=False))
    if shape == "depth-3":
        return replace(p, write_buffer=WriteBufferParams(entries=3))
    if shape == "two-way":
        return replace(p, l1=CacheParams(associativity=2))
    if shape == "tlb-miss":
        return replace(p, tlb=TlbParams(never_misses=False))
    return p


def _warm(shape, ops, last_bank):
    """A memory system in the warm state the drawn operations leave."""
    ms = MemorySystem(_params(shape))
    seg = ms.memory.alloc_segment(SEGMENT_BASE, SEGMENT_WORDS, "f8")
    seg.fill(0, [float(i) + 0.25 for i in range(SEGMENT_WORDS // 2)])
    ms.memory.store(REGIONS[3], 7.5)
    now = 0.0
    for k, (is_store, addr, gap) in enumerate(ops):
        now += gap
        if is_store:
            now += ms.write_cycles(now, addr, 100.0 + k)
        else:
            now += ms.read(now, addr)[0]
    if last_bank is not None:
        ms.dram._last_bank = last_bank
    return ms, now


def _state(ms):
    wb = ms.write_buffer
    l1 = ms.l1
    tags = (sorted(l1._tags.items()) if l1._assoc == 1
            else sorted((k, list(v)) for k, v in l1._ways.items()))
    return (tags, ms.counters(), list(ms.dram._open_row), ms.dram._last_bank,
            [(e.line_addr, e.enqueue_time, e.retire_time,
              sorted(e.words.items())) for e in wb._pending],
            wb._last_retire, sorted(ms.memory.items()))


def _scalar(ms, now, block, charges):
    clock = now
    cycles, values = [], []
    for r, (loads, store) in enumerate(block):
        for addr in loads:
            c, value = ms.read(clock, addr)
            clock += c
            cycles.append(c)
            values.append(value)
        for charge in charges:
            clock += charge
        clock += ms.write_cycles(clock, store, 0.5 + r)
    return clock, cycles, values


def _planned(ms, now, block, charges, per_row):
    loads = np.array([a for loads, _ in block for a in loads],
                     dtype=np.int64)
    stores = np.array([store for _, store in block], dtype=np.int64)
    counts = [len(loads_r) for loads_r, _ in block]
    values = ms.gather(loads)
    plan = ms.plan_block(now, loads, stores, counts if per_row else
                         counts[0], charges,
                         values=[0.5 + r for r in range(len(block))])
    if plan is None:
        return None
    return plan.end_clock, plan.load_cycles.tolist(), values.tolist()


def _stalls(ms, now, block, charges):
    """Whether a store of the scalar loop waits for a buffer slot."""
    clock = now
    issue = ms.params.write_buffer.issue_cycles
    for r, (loads, store) in enumerate(block):
        for addr in loads:
            clock += ms.read(clock, addr)[0]
        clock += sum(charges)
        cycles = ms.write_cycles(clock, store, 0.5 + r)
        if cycles > issue:
            return True
        clock += cycles
    return False


@given(shape=shapes, ops=warm_ops, last_bank=st.sampled_from([None, -1, 0, 3]),
       block=rows,
       charges=st.sampled_from([(), (1.0, 0.5), (2.0,), (0.3,)]),
       idle=st.sampled_from([0.0, 0.0, 4.0, 0.1]))
@settings(max_examples=400, deadline=None)
def test_plan_equals_scalar_loop_or_declines_untouched(
        shape, ops, last_bank, block, charges, idle):
    counts = {len(loads) for loads, _ in block}
    per_row = len(counts) > 1
    scalar_ms, now = _warm(shape, ops, last_bank)
    planned_ms, _ = _warm(shape, ops, last_bank)
    now += idle
    before = _state(planned_ms)
    got = _planned(planned_ms, now, block, charges, per_row)
    if got is None:
        assert _state(planned_ms) == before
        assert shape != "t3d" or charges == (0.3,) or idle == 0.1 \
            or _hazard(block, planned_ms) \
            or _stalls(scalar_ms, now, block, charges)
        return
    assert shape in ("t3d", "no-merge")
    want = _scalar(scalar_ms, now, block, charges)
    assert got == want
    assert _state(planned_ms) == _state(scalar_ms)


def _hazard(block, ms):
    """Whether the block trips a write-buffer or aliasing hazard."""
    mask = (1 << ANNEX_BIT_SHIFT) - 1
    loads = [a - a % WORD_BYTES for loads, _ in block for a in loads]
    stores = [s - s % WORD_BYTES for _, s in block]
    lines = [s - s % 32 for s in stores]
    pending = ms.write_buffer._pending
    pending_words = {w for e in pending for w in e.words}
    synonym = any(w & mask == a & mask and w != a
                  for w in pending_words for a in loads)
    return (len(set(lines)) < len(lines)
            or any(e.line_addr in lines for e in pending)
            or {a & mask for a in loads} & {s & mask for s in stores}
            or synonym)


def test_plan_declines_while_tracing():
    ms, now = _warm("t3d", [], None)
    trace.enable()
    try:
        assert ms.plan_block(now, [SEGMENT_BASE], [REGIONS[3]], 1,
                             values=[1.0]) is None
    finally:
        trace.disable()
        trace.TRACER.reset()
    assert ms.plan_block(now, [SEGMENT_BASE], [REGIONS[3]], 1,
                         values=[1.0]) is not None


def test_plan_rejects_mismatched_load_counts():
    ms, now = _warm("t3d", [], None)
    with pytest.raises(ValueError, match="loads_per_store"):
        ms.plan_block(now, [SEGMENT_BASE], [REGIONS[3]], 2, values=[1.0])


# ----------------------------------------------------------------------
# WriteBuffer.settle against the push_new loop
# ----------------------------------------------------------------------

#: On-grid cycle values: DRAM drains (one store's entry drains in a
#: quarter of these at depth 4) and gaps, some below a quarter drain,
#: so a run of them fills the buffer and stalls.
drain_cycles = st.sampled_from([22.0, 31.0, 40.0, 0.0, 5.5])
gap_cycles = st.sampled_from([0.0, 1.0, 2.5, 6.0, 30.0, 95.25])


def _buffer(depth, warm, settle_peer):
    """A memory system whose buffer holds the plain local entries the
    ``warm`` ``(gap, drain)`` stores leave, and a settle queue shared
    with another buffer."""
    ms = MemorySystem(replace(t3d_node_params(),
                              write_buffer=WriteBufferParams(entries=depth)))
    ms.memory.alloc_segment(OUTPUT_BASE, SEGMENT_WORDS, "f8", 32)
    wb = ms.write_buffer
    wb.settle_queue = {}
    clock = 0.0
    for k, (gap, drain) in enumerate(warm):
        clock += gap
        clock += wb.push_new(clock, 0x9000 + 32 * k, 10.0 + k, drain)
    if settle_peer:
        wb.settle_queue["another buffer"] = None
    return ms, clock


def _wb_state(ms):
    wb = ms.write_buffer
    return ([(e.line_addr, e.enqueue_time, e.retire_time,
              sorted(e.words.items())) for e in wb._pending],
            wb._last_retire, wb.drained_entries, wb.merged_writes,
            ["self" if x is wb else x for x in wb.settle_queue],
            sorted(ms.memory.items()))


@given(depth=st.sampled_from([4, 4, 2, 8, 3]),
       warm=st.lists(st.tuples(gap_cycles, drain_cycles), max_size=6),
       run=st.lists(st.tuples(gap_cycles, drain_cycles,
                              st.integers(0, SEGMENT_WORDS - 1)),
                    min_size=1, max_size=12, unique_by=lambda r: r[2]),
       idle=st.sampled_from([0.0, 3.0, 50.0, 0.1]),
       settle_peer=st.booleans())
@settings(max_examples=400, deadline=None)
def test_settle_equals_push_new_loop_or_declines_untouched(
        depth, warm, run, idle, settle_peer):
    scalar_ms, now = _buffer(depth, warm, settle_peer)
    run_ms, _ = _buffer(depth, warm, settle_peer)
    now += idle
    addrs = np.array([OUTPUT_BASE + 32 * slot for _g, _d, slot in run],
                     dtype=np.int64)
    values = [0.25 + k for k in range(len(run))]
    gaps = np.array([g for g, _d, _s in run])
    drains = np.array([d for _g, d, _s in run])
    before = _wb_state(run_ms)
    head = BlockingSource(gaps).head(now, len(run),
                                     run_ms.write_buffer.params.issue_cycles)
    got = head is not None and run_ms.write_buffer.settle(
        head[0], drains, addrs & -WORD_BYTES, values)
    clock = now
    stalled = False
    wb = scalar_ms.write_buffer
    for addr, value, gap, drain in zip(addrs.tolist(), values,
                                       gaps.tolist(), drains.tolist()):
        clock += gap
        cycles = wb.push_new(clock, addr, value, drain)
        stalled |= cycles > wb.params.issue_cycles
        clock += cycles
    if not got:
        assert _wb_state(run_ms) == before
        assert stalled or depth == 3 or idle == 0.1
        return
    assert not stalled
    assert type(head[2]) is float and head[2] == clock
    assert _wb_state(run_ms) == _wb_state(scalar_ms)
    assert all(type(e.retire_time) is float and type(e.enqueue_time) is float
               for e in run_ms.write_buffer._pending)
