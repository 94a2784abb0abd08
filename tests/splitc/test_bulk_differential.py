"""Seeded differential test: batched bulk transfers vs the word loops.

Each seed runs a random sequence of every word-loop mechanism
(uncached, cached and prefetch reads, bulk_get, stores, puts, local
copies) with warm-up in between: local stores that leave entries in the
write buffer (some over the next transfer's source), single cached reads
that leave stale line snapshots, remote stores that make them stale,
charges that let entries retire unflushed, and an occasional sync.
Transfers start off line boundaries and many cross a 16 KB DRAM page.
The sequence runs once batched and once under ``tiers.reference()``;
the full machine fingerprint must match after every step.  Sizes reach
past the closed-form stream's minimum length and across one of its
chunk boundaries (``WriteBuffer.stream_closed``, local and remote).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import tiers
from repro.node.write_buffer import WriteBuffer
from repro.shell.remote import RemoteAccessUnit
from repro.shell.annex import ReadMode
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from tests.test_fastpath_equivalence import _fresh_sc, _machine_fingerprint

PAGE = 16 * 1024
SEEDS = range(40)


def _transfer(rng):
    """A word-aligned (line-unaligned) range, often crossing a page."""
    nwords = rng.choice([1, 2, 3, 5, 7, 17, 40, 130, 256, 300, 2100])
    if rng.random() < 0.6:
        start = rng.randrange(1, 4) * PAGE - 8 * rng.randrange(
            1, min(nwords + 2, PAGE // 8))
    else:
        start = 8 * rng.randrange(0, 6000)
    return start, 8 * nwords


def _script(seed):
    rng = random.Random(seed)
    steps = []
    for _ in range(rng.randrange(4, 9)):
        kind = rng.choice(["uncached", "cached", "prefetch", "get", "stores",
                           "put", "local_copy", "warm_store", "warm_cached",
                           "remote_store", "charge", "sync"])
        src, nbytes = _transfer(rng)
        dst, _ = _transfer(rng)
        steps.append((kind, src, dst, nbytes, rng.choice([0.25, 3.0, 40.0,
                                                          500.0])))
    return steps


def _run_step(sc, step):
    kind, src, dst, nbytes, charge = step
    ctx = sc.ctx
    if kind == "uncached":
        bulk.bulk_read_uncached(sc, dst, GlobalPtr(1, src), nbytes)
    elif kind == "cached":
        bulk.bulk_read_cached(sc, dst, GlobalPtr(1, src), nbytes)
    elif kind == "prefetch":
        bulk.bulk_read_prefetch(sc, dst, GlobalPtr(1, src), nbytes)
    elif kind == "get":
        sc.bulk_get(dst, GlobalPtr(1, src), nbytes)
    elif kind == "stores":
        bulk.bulk_write_stores(sc, GlobalPtr(1, dst), src, nbytes)
    elif kind == "put":
        sc.bulk_put(GlobalPtr(1, dst), src, nbytes)
    elif kind == "local_copy":
        bulk._local_copy(sc, dst, src, nbytes)
    elif kind == "warm_store":
        for i in range(0, min(nbytes, 64), 8):
            ctx.local_write(src + i, float(src + i))
    elif kind == "warm_cached":
        index = sc._setup_annex(1, ReadMode.CACHED)
        cycles, _value = ctx.node.remote.cached_read(
            ctx.clock, 1, src, sc._full_addr(index, src))
        ctx.charge(cycles)
    elif kind == "remote_store":
        sc.put(GlobalPtr(1, src), -1.5)
    elif kind == "charge":
        ctx.charge(charge)
    else:
        sc.sync()


def _trajectory(seed, steps=None, run_step=_run_step):
    machine, sc = _fresh_sc()
    for pe in range(machine.num_nodes):
        memory = machine.node(pe).memsys.memory
        rng = random.Random(seed * 7 + pe)
        for _ in range(300):
            memory.store(8 * rng.randrange(0, 8000), rng.random())
    out = []
    for step in _script(seed) if steps is None else steps:
        run_step(sc, step)
        out.append(_machine_fingerprint(machine, sc))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_bulk_matches_word_loops(seed):
    fast = _trajectory(seed)
    with tiers.reference():
        ref = _trajectory(seed)
    assert fast == ref


def test_each_read_mechanism_runs_closed_form(monkeypatch):
    """Uncached, cached and prefetch reads of 2,100 words (across a
    chunk boundary), over warm buffers, each store every word through
    the closed-form stream, and still match the word loops."""
    closed = []
    stream_closed = WriteBuffer.stream_closed

    def spy(self, now, addrs, values, plan_drains, source):
        got = stream_closed(self, now, addrs, values, plan_drains, source)
        if got is not None and got[0] == len(addrs):
            closed.append(len(addrs))
        return got

    monkeypatch.setattr(WriteBuffer, "stream_closed", spy)
    ran = set()

    def run_step(sc, step):
        closed.clear()
        _run_step(sc, step)
        if closed:
            ran.add(step[0])

    big = 8 * 2100
    steps = [(kind, src, dst, nbytes, 3.0) for kind, src, dst, nbytes in [
        ("warm_store", 0x8000, 0, 64),
        ("uncached", PAGE - 40, 0x8000 - 16, big),
        ("warm_store", 0x30000, 0, 64),
        ("cached", 2 * PAGE - 8, 0x30000, big),
        ("charge", 0, 0, 8),
        ("prefetch", 24, 0x52008, big),
        ("get", 0x9000, 0x60010, 8 * 300)]]
    fast = _trajectory(5, steps, run_step)
    with tiers.reference():
        ref = _trajectory(5, steps, run_step)
    assert fast == ref
    assert {"uncached", "cached", "prefetch", "get"} <= ran


@pytest.mark.parametrize("nwords", [256, 2100])
def test_each_write_mechanism_runs_closed_form(monkeypatch, nwords):
    """Bulk stores and puts of 256 and 2,100 words (the second across a
    chunk boundary), over warm buffers holding a pending store to the
    target, each issue every store through the closed-form remote stream,
    and still match the word loops.  The plan's BLT threshold is raised
    so the long put stays on stores."""
    closed = []
    stream_closed = RemoteAccessUnit._stream_closed

    def spy(self, now, pes, offsets, full_addrs, values, source):
        got = stream_closed(self, now, pes, offsets, full_addrs, values,
                            source)
        if got is not None and got[0] == len(values):
            closed.append(len(values))
        return got

    monkeypatch.setattr(RemoteAccessUnit, "_stream_closed", spy)
    ran = []

    def run_step(sc, step):
        closed.clear()
        sc.plan = dataclasses.replace(sc.plan, bulk_get_blt_threshold=1 << 30)
        _run_step(sc, step)
        if closed:
            ran.append(step[0])

    big = 8 * nwords
    steps = [(kind, src, dst, nbytes, 3.0) for kind, src, dst, nbytes in [
        ("remote_store", 0x70000, 0, 8),
        ("stores", PAGE - 40, 2 * PAGE - 16, big),
        ("charge", 0, 0, 8),
        ("remote_store", 0x70020, 0, 8),
        ("put", 0x9000, 3 * PAGE + 8, big),
        ("sync", 0, 0, 8)]]
    fast = _trajectory(11, steps, run_step)
    with tiers.reference():
        ref = _trajectory(11, steps, run_step)
    assert fast == ref
    assert ran == ["stores", "put"]
