"""``WriteBuffer.stream_closed`` against the per-store loops it solves.

From a random *warm* buffer (pending entries, some retired but not yet
flushed when the stream starts) a run of 1-300 local stores issues two
ways on identical copies:

* **per store** — ``write_cycles`` at the clock the source gives: a
  blocking read's gap (with its flush, where it has one) and lead, or
  the prefetch FIFO's pop loop, which issues read ``k + D`` after
  store ``k``;
* **closed** — ``stream_closed``, a chunk at a time, with
  ``WriteBuffer.stream``'s loop issuing whatever it leaves.

Stores are contiguous words, a few repeated words, or random words over
lines that share DRAM banks and rows; the gap pool makes merges,
zero-drain entries and DRAM entries.  Either both end in byte-identical
units, settle-queue order and clock, or the closed form declined and
left every unit untouched.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.node import memsys, write_buffer
from repro.node.memsys import t3d_memory_system
from repro.node.write_buffer import BlockingSource, PrefetchSource
from repro.params import WORD_BYTES

#: Line bases: a float segment, a bank-conflicting and a row-conflicting
#: region, and the sparse dict.
LINES = (0x1000, 0x1020, 0x5000, 0x11000, 0x11020, 0x40000)
GAPS = (0.0, 0.0, 0.25, 1.0, 3.0, 6.5, 23.0, 140.0)
LATENCIES = (84.0, 84.0, 99.0, 108.0, 150.0)


def _draw(rng: random.Random) -> dict:
    n = rng.randint(1, 300)
    pattern = rng.choice(["contiguous", "repeated", "random"])
    if pattern == "contiguous":
        base = rng.choice(LINES) + WORD_BYTES * rng.randrange(0, 8)
        addrs = list(range(base, base + n * WORD_BYTES, WORD_BYTES))
    else:
        pool = [rng.choice(LINES) + WORD_BYTES * rng.randrange(0, 4)
                for _ in range(rng.randint(1, 3 if pattern == "repeated"
                                            else 12))]
        addrs = [rng.choice(pool) for _ in range(n)]
    gaps = rng.sample(GAPS, rng.randint(1, len(GAPS)))
    draw = {
        "warm": [(rng.choice(GAPS), rng.choice(LINES)
                  + WORD_BYTES * rng.randrange(0, 4))
                 for _ in range(rng.randint(0, 8))],
        "idle": rng.choice([0.0, 1.0, 3.0, 6.5, 30.0]),
        "addrs": addrs,
        "chunk": rng.choice([2048, 2048, 1, 7, 64]),
    }
    if rng.random() < 0.6:
        draw["source"] = ("blocking", [rng.choice(gaps) for _ in range(n)],
                          rng.choice([0.0, 0.0, 2.0, 6.0]),
                          rng.random() < 0.5)
    else:
        depth = min(n, rng.choice([1, 2, 4, 16]))
        steady = rng.random() < 0.7
        draw["source"] = (
            "prefetch", depth,
            [84.0 if steady else rng.choice(LATENCIES) for _ in range(n)],
            rng.choice([2.0, 23.0]), rng.choice([0.0, 2.0, 9.0]),
            rng.choice([4.0, 0.25]), rng.choice([0.0, 5.0, 200.0]))
    return draw


def _warm(draw):
    ms = t3d_memory_system()
    ms.memory.alloc_segment(0x1000, 64, "f8")
    wb = ms.write_buffer
    wb.settle_queue = {}
    clock = 0.0
    for k, (gap, addr) in enumerate(draw["warm"]):
        clock += gap
        clock += ms.write_cycles(clock, addr, float(k))
    wb.settle_queue["another buffer"] = None
    return ms, clock + draw["idle"]


def _state(ms, clock):
    wb = ms.write_buffer
    return (clock, list(ms.dram._open_row), ms.dram._last_bank,
            ms.dram.accesses, ms.dram.row_misses,
            ms.dram.same_bank_conflicts, wb.merged_writes,
            wb.drained_entries, wb._last_retire,
            [(e.line_addr, e.enqueue_time, e.retire_time,
              list(e.words.items())) for e in wb._pending],
            ["self" if x is wb else x for x in wb.settle_queue],
            sorted(ms.memory.items()))


def _source(draw, ms, now):
    """The stream's start clock and source, and the per-store loop."""
    addrs = draw["addrs"]
    values = [1000.0 + k for k in range(len(addrs))]
    issue = ms.write_buffer.params.issue_cycles
    if draw["source"][0] == "blocking":
        _kind, gaps, lead, flush = draw["source"]

        def loop(ref, clock):
            wb = ref.write_buffer
            for k, addr in enumerate(addrs):
                if flush and wb._pending:
                    wb.flush_retired(clock)
                clock += gaps[k]
                clock += ref.write_cycles(clock, addr, values[k])
                clock += lead
            return clock

        return now, BlockingSource(np.array(gaps), lead, flush), loop
    _kind, depth, latency, pop, loop_cycles, fetch, late = draw["source"]
    ready = [now + late + j * fetch + latency[j] for j in range(depth)]
    start = now + depth * fetch
    assert issue > 0

    def loop(ref, clock):
        replies = list(ready)
        for k, addr in enumerate(addrs):
            clock = max(clock, replies[k]) + pop
            clock += ref.write_cycles(clock, addr, values[k])
            clock += loop_cycles
            if k + depth < len(addrs):
                replies.append(clock + latency[k + depth])
                clock += fetch
        return clock

    return start, PrefetchSource(ready, np.array(latency), pop, loop_cycles,
                                 fetch), loop


def _check(draw) -> bool:
    """Both ways from the same warm state; True if the closed form took
    at least one chunk."""
    ref, now = _warm(draw)
    start, source, loop = _source(draw, ref, now)
    clock = loop(ref, start)

    ms, _ = _warm(draw)
    before = _state(ms, start)
    addrs = draw["addrs"]
    values = [1000.0 + k for k in range(len(addrs))]
    chunk = write_buffer._CLOSED_CHUNK
    write_buffer._CLOSED_CHUNK = draw["chunk"]
    try:
        got = ms.write_buffer.stream_closed(start, addrs, values,
                                            ms._plan_dram, source)
    finally:
        write_buffer._CLOSED_CHUNK = chunk
    if got is None:
        assert _state(ms, start) == before
        return False
    done, end, rest = got
    if done < len(addrs):
        least = memsys._MIN_CLOSED_STORES
        memsys._MIN_CLOSED_STORES = len(addrs) + 1
        try:
            end = ms.stream_writes(end, addrs[done:], values[done:], rest)
        finally:
            memsys._MIN_CLOSED_STORES = least
    assert type(end) is float
    assert _state(ms, end) == _state(ref, clock)
    return True


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_closed_stream_matches_loop_or_declines_untouched(rng):
    _check(_draw(rng))


def test_most_draws_are_taken():
    taken = sum(_check(_draw(random.Random(seed))) for seed in range(200))
    assert taken >= 150


@pytest.mark.parametrize("pattern", ["contiguous", "repeated", "random"])
def test_every_class_occurs(pattern):
    """The gap pool reaches merges, zero-drain and DRAM entries."""
    seen = {"merge": 0, "zero": 0, "dram": 0}
    classify = write_buffer.WriteBuffer._classify

    def spy(self, t, flushes, lines, plan_drains):
        out = classify(self, t, flushes, lines, plan_drains)
        if out is not None:
            make, _into, drains, _commit = out
            seen["merge"] += int((~make).sum())
            seen["zero"] += int((drains == 0).sum())
            seen["dram"] += int((drains > 0).sum())
        return out

    write_buffer.WriteBuffer._classify = spy
    try:
        for seed in range(60):
            draw = _draw(random.Random(seed))
            if pattern == "contiguous":
                base = LINES[seed % len(LINES)]
                draw["addrs"] = list(range(base, base + 40 * WORD_BYTES,
                                           WORD_BYTES))
                draw["source"] = ("blocking",
                                  [GAPS[(seed + k) % len(GAPS)]
                                   for k in range(40)], 0.0, seed % 2 == 0)
            elif pattern == "repeated":
                draw["addrs"] = [LINES[0] + 8 * (k % 2) for k in range(40)]
                draw["source"] = ("blocking", [GAPS[k % len(GAPS)]
                                               for k in range(40)], 2.0,
                                  False)
            _check(draw)
    finally:
        write_buffer.WriteBuffer._classify = classify
    assert all(seen.values()), seen


@pytest.mark.parametrize("offsets", [(0, 16, 8, 24), (8, 0, 16, 24),
                                     (0, 8, 8, 16, 24), (0, 8, 16, 24)])
def test_retired_words_out_of_order_commit_each_to_its_word(offsets):
    """Retired stores whose first and last words span their count, but
    not in order, still land word by word."""
    base = 0x1000
    draw = {"warm": [], "idle": 0.0, "chunk": 2048,
            "addrs": [base + o for o in offsets] + [0x40000],
            "source": ("blocking", [140.0] * (len(offsets) + 1), 0.0,
                       False)}
    assert _check(draw)


@pytest.mark.parametrize("addrs", [(0x1000, 0x1008), (0x1000, 0x5000, 0x1008),
                                   (0x1000, 0x1008, 0x5000, 0x1010)])
def test_ties_between_a_retire_time_and_a_clock(addrs):
    """Gaps on a fine grid put a store exactly at an entry's retire time
    (not a merge) and an entry's retire time exactly at a flush (not
    visible), as well as either side of each."""
    steps = [0.25 * i for i in range(41)]
    for first in steps:
        for second in steps[::3]:
            gaps = [0.0, first, second, first][:len(addrs)]
            draw = {"warm": [], "idle": 0.0, "chunk": 2048,
                    "addrs": list(addrs),
                    "source": ("blocking", gaps, 0.0, False)}
            assert _check(draw)
