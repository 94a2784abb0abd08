"""``MemorySystem.plan_block`` against the scalar access loop.

From a random *warm* state — resident L1 tags, open DRAM rows, a last
bank, pending write-buffer entries (some at Annex synonyms of plain
words) and memory words in a segment and the sparse dict — a random
block of rows runs two ways on identical copies:

* **scalar** — ``read`` per load, the row charges, ``write_cycles`` per
  store: the sequence the plan claims to batch;
* **planned** — ``gather`` the load values, ``plan_block``, then per
  row add ``row_cycles`` and issue the store with
  ``write_buffer.push_new``.

Either the two end in byte-identical units with identical cycles and
values, or the plan declined and left every unit untouched.
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
                         counts[0], charges)
    if plan is None:
        return None
    clock = now
    push = ms.write_buffer.push_new
    for r, (store, row, drain) in enumerate(zip(
            stores.tolist(), plan.row_cycles.tolist(),
            plan.drains.tolist())):
        clock += row
        clock += push(clock, store, 0.5 + r, drain)
    return clock, plan.load_cycles.tolist(), values.tolist()


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
            or _hazard(block, planned_ms)
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
        assert ms.plan_block(now, [SEGMENT_BASE], [REGIONS[3]], 1) is None
    finally:
        trace.disable()
        trace.TRACER.reset()
    assert ms.plan_block(now, [SEGMENT_BASE], [REGIONS[3]], 1) is not None


def test_plan_rejects_mismatched_load_counts():
    ms, now = _warm("t3d", [], None)
    with pytest.raises(ValueError, match="loads_per_store"):
        ms.plan_block(now, [SEGMENT_BASE], [REGIONS[3]], 2)
