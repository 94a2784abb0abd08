"""``RemoteAccessUnit.stream_stores``'s closed form against the per-store
``RemoteAccessUnit.store`` loop it solves.

From a random *warm* 4-PE T3D — pending remote entries to the target
(some retired but not yet flushed), a target DRAM with rows already
open, target L1 lines holding words the stream writes, a busy inbound
interface, logged arrivals later than the stream's, running region
totals and, in some draws, a cohort ``wake_sink`` — processor 0 stores
1-300 words to processor 1 two ways on identical copies:

* **per store** — ``store`` at the clock a blocking source gives: a
  read's gap (with its flush, where it has one), then the lead;
* **closed** — ``_stream_closed`` (``WriteBuffer.stream_closed`` with
  the target's ``RemoteTarget``), a chunk at a time, with
  ``stream_stores``'s loop issuing whatever it leaves.

Offsets are contiguous words, 16 KB strides (a new DRAM page and bank
each store), 64 KB strides (a new page in the same bank) or random words
over a pool of lines.  Either both end in identical machines (every
unit the stream can touch, on both nodes) and clocks, or the closed form
declined and left every unit untouched.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.machine import Machine
from repro.node import memsys, write_buffer
from repro.node.write_buffer import BlockingSource
from repro.params import WORD_BYTES, t3d_machine_params
from repro.shell.remote import RemoteAccessUnit

#: The target words live from here; a segment covers part of the range.
BASE = 0x40000
GAPS = (0.0, 0.25, 1.0, 3.0, 6.5, 23.0, 140.0)
PAGE, BANK_ROUND = 16 * 1024, 64 * 1024
INDEX = 1


def _offsets(rng: random.Random, n: int) -> list:
    pattern = rng.choice(["contiguous", "page", "bank", "random"])
    start = BASE + WORD_BYTES * rng.randrange(0, 8)
    if pattern == "contiguous":
        return list(range(start, start + n * WORD_BYTES, WORD_BYTES))
    if pattern in ("page", "bank"):
        step = PAGE if pattern == "page" else BANK_ROUND
        return [start + step * (k // rng.choice([1, 1, 4])) + WORD_BYTES
                * (k % 4) for k in range(n)]
    pool = [BASE + rng.choice([0, 32, 64, PAGE, BANK_ROUND, 2 * PAGE + 32])
            + WORD_BYTES * rng.randrange(0, 4)
            for _ in range(rng.randint(1, 10))]
    return [rng.choice(pool) for _ in range(n)]


def _draw(rng: random.Random) -> dict:
    n = rng.randint(1, 300)
    offsets = _offsets(rng, n)
    foreign = rng.random() < 0.1
    gaps = rng.sample(GAPS, rng.randint(1, len(GAPS)))
    return {
        "offsets": offsets,
        # (gap before it, kind, word offset) per warm-up store: kind 1 is
        # a remote store to the target, 0 a local store, 2 a remote
        # store to another processor (the last two make it decline).
        "warm": [(rng.choice(GAPS), rng.choice([0, 2]) if foreign else 1,
                  rng.choice(offsets) + WORD_BYTES * rng.randrange(-4, 4))
                 for _ in range(rng.randint(0, 6))],
        "idle": rng.choice([0.0, 1.0, 3.0, 6.5, 30.0]),
        "rows": [rng.choice(offsets) for _ in range(rng.randint(0, 3))],
        "cached": [rng.choice(offsets) for _ in range(rng.randint(0, 4))],
        "busy": rng.choice([0.0, 0.0, 250.0, 4000.0]),
        "late": rng.choice([0, 0, 2]),
        "regions": rng.choice([[], [(BASE, BASE + 64)],
                               [(BASE, BASE + PAGE), (0, 1 << 30)]]),
        "sink": rng.random() < 0.3,
        "segment": rng.random() < 0.4,
        "gaps": [rng.choice(gaps) for _ in range(n)],
        "lead": rng.choice([0.0, 0.0, 2.0, 6.0]),
        "flush": rng.random() < 0.5,
        "chunk": rng.choice([2048, 2048, 1, 7]),
    }


def _warm(draw):
    """A machine in the draw's warm state, and the stream's start."""
    machine = Machine(t3d_machine_params((4, 1, 1)))
    src, dst = machine.node(0), machine.node(1)
    src.annex.set_entry(INDEX, 1)
    src.annex.set_entry(INDEX + 1, 2)
    if draw["segment"]:
        dst.memsys.memory.alloc_segment(BASE, 64, "f8")
    for k, addr in enumerate(draw["rows"]):
        dst.memsys.dram.access(addr + 3 * BANK_ROUND * (k % 2))
    for addr in draw["cached"]:
        dst.memsys.read(0.0, addr)
    for k in range(draw["late"]):
        dst.record_store_arrival(8, 1e6 + k, BASE + 8 * k)
    for region in draw["regions"]:
        dst.bytes_arrived_total(region)
    dst.inbound_busy_until = draw["busy"]
    if draw["sink"]:
        dst.wake_sink = []
    clock = 0.0
    for k, (gap, kind, offset) in enumerate(draw["warm"]):
        clock += gap
        if kind == 0:
            clock += src.memsys.write_cycles(clock, offset, -1.0 - k)
        else:
            full = src.annex.compose_address(INDEX + (kind == 2), offset)
            clock += src.remote.store(clock, kind, offset, -1.0 - k, full)
    return machine, clock + draw["idle"]


def _state(machine, clock, regions):
    out = [clock, [wb.owner_pe for wb in machine._dirty_buffers]]
    for node in machine.nodes[:3]:
        ms = node.memsys
        wb = ms.write_buffer
        out.append((
            list(ms.dram._open_row), ms.dram._last_bank, ms.dram.accesses,
            ms.dram.row_misses, ms.dram.same_bank_conflicts,
            wb.merged_writes, wb.drained_entries, wb._last_retire,
            [(e.line_addr, e.enqueue_time, e.retire_time,
              list(e.words.items()), e.apply_words,
              e.on_retire and e.on_retire is node.remote.inbound(1),
              e.meta and (e.meta[0], e.meta[1].my_pe))
             for e in wb._pending],
            sorted(ms.memory.items()), sorted(ms.l1._tags.items()),
            ms.l1.hits, ms.l1.misses, node.remote.stores,
            [(a.drain_time, a.ack_time, a.nbytes)
             for a in node.remote._acks],
            node.inbound_busy_until, list(node._arrivals),
            node.bytes_arrived_total(),
            [node.bytes_arrived_total(r) for r in regions],
            dict(node._region_totals), node.wake_sink))
    return out


def _stores(draw, src):
    offsets = draw["offsets"]
    fulls = [src.annex.compose_address(INDEX, o) for o in offsets]
    values = [1000.0 + k for k in range(len(offsets))]
    return offsets, fulls, values


def _check(draw) -> bool:
    """Both ways from the same warm state; True if the closed form took
    at least one chunk."""
    regions = draw["regions"]
    ref, now = _warm(draw)
    src = ref.node(0)
    offsets, fulls, values = _stores(draw, src)
    clock = now
    wb = src.memsys.write_buffer
    for k, offset in enumerate(offsets):
        if draw["flush"] and wb._pending:
            wb.flush_retired(clock)
        clock += draw["gaps"][k]
        clock += src.remote.store(clock, 1, offset, values[k], fulls[k])
        clock += draw["lead"]

    machine, start = _warm(draw)
    unit = machine.node(0).remote
    before = _state(machine, start, regions)
    source = BlockingSource(np.array(draw["gaps"]), draw["lead"],
                            draw["flush"])
    chunk = write_buffer._CLOSED_CHUNK
    write_buffer._CLOSED_CHUNK = draw["chunk"]
    try:
        got = unit._stream_closed(start, 1, offsets, fulls, values, source)
    finally:
        write_buffer._CLOSED_CHUNK = chunk
    if got is None:
        assert _state(machine, start, regions) == before
        return False
    done, end, rest = got
    unit.stores += done
    if done < len(offsets):
        least = memsys._MIN_CLOSED_STORES
        memsys._MIN_CLOSED_STORES = len(offsets) + 1
        try:
            end = unit.stream_stores(end, 1, offsets[done:], fulls[done:],
                                     values[done:], rest)
        finally:
            memsys._MIN_CLOSED_STORES = least
    assert type(end) is float
    assert _state(machine, end, regions) == _state(ref, clock, regions)
    return True


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_closed_remote_stream_matches_store_loop_or_declines_untouched(rng):
    _check(_draw(rng))


def test_most_draws_are_taken():
    taken = sum(_check(_draw(random.Random(seed))) for seed in range(200))
    assert taken >= 110


def test_every_drain_and_merge_occurs(monkeypatch):
    """The taken draws reach merges (into pending entries too), and
    drains with no penalty, the remote off-page one and the same-bank
    one on top."""
    seen = {"merge": 0, "warm merge": 0}
    classify = write_buffer.WriteBuffer._classify_remote

    def spy(self, t, flushes, lines, remote):
        out = classify(self, t, flushes, lines, remote)
        if out is not None:
            make, into, drains, _commit = out
            seen["merge"] += int((~make).sum())
            seen["warm merge"] += int((into < len(self._pending)).sum())
            for d in drains.tolist():
                seen[d] = seen.get(d, 0) + 1
        return out

    monkeypatch.setattr(write_buffer.WriteBuffer, "_classify_remote", spy)
    for seed in range(60):
        _check(_draw(random.Random(seed)))
    assert seen["merge"] and seen["warm merge"], seen
    assert {68.0, 68.0 + 15.0, 68.0 + 15.0 + 9.0} <= set(seen), seen


@pytest.mark.parametrize("pattern", ["contiguous", "page", "bank"])
def test_page_and_bank_changes_take_the_closed_form(pattern):
    """Stores slow enough not to stall, each pattern's DRAM penalties
    in the drains: the closed form takes the whole stream."""
    step = {"contiguous": WORD_BYTES, "page": PAGE,
            "bank": BANK_ROUND}[pattern]
    for n, chunk in ((300, 2048), (300, 7), (40, 1)):
        draw = _draw(random.Random(n))
        draw.update(offsets=[BASE + step * k for k in range(n)], warm=[],
                    gaps=[23.0] * n, chunk=chunk, busy=250.0)
        assert _check(draw)


def test_arrivals_out_of_time_order_merge_like_bisect():
    """Entries back to back through a busy interface, alternating a
    same-bank row change with a row hit, land out of time order, and
    before arrivals already logged."""
    n = 64
    draw = _draw(random.Random(7))
    draw.update(offsets=[BASE + BANK_ROUND * (k // 2) + 32 * (k % 2)
                         for k in range(n)], warm=[], gaps=[23.0] * n,
                lead=0.0, busy=4000.0, late=2, chunk=2048, flush=False)
    assert _check(draw)
    machine, start = _warm(draw)
    unit = machine.node(0).remote
    offsets, fulls, values = _stores(draw, machine.node(0))
    done, _end, _rest = unit._stream_closed(
        start, 1, offsets, fulls, values,
        BlockingSource(np.array(draw["gaps"])))
    assert done == n
    acks = [a.ack_time for a in unit._acks]
    assert acks != sorted(acks)
    times = [t for t, _n, _a in machine.node(1)._arrivals]
    assert times == sorted(times) and times[-1] == 1e6 + 1


def test_declines_untouched_for_a_pending_store_elsewhere():
    for kind in (0, 2):
        draw = _draw(random.Random(3))
        draw.update(offsets=[BASE + 8 * k for k in range(50)],
                    warm=[(0.0, kind, BASE + 4096)], gaps=[23.0] * 50)
        assert not _check(draw)


def test_short_streams_stay_on_the_loop(monkeypatch):
    calls = []
    monkeypatch.setattr(RemoteAccessUnit, "_stream_closed",
                        lambda self, *args: calls.append(args))
    machine = Machine(t3d_machine_params((2, 1, 1)))
    node = machine.node(0)
    node.annex.set_entry(INDEX, 1)
    n = memsys._MIN_CLOSED_STORES - 1
    full = node.annex.compose_address(INDEX, BASE)
    assert node.remote.stream_stores(
        0.0, 1, range(BASE, BASE + 8 * n, 8), range(full, full + 8 * n, 8),
        [0.0] * n, BlockingSource(np.full(n, 23.0))) is not None
    assert calls == []
