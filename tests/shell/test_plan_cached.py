"""``RemoteAccessUnit.plan_cached`` against the per-word loop it times.

From a random *warm* 2-PE T3D — processor 0's L1 holding remotely
fetched lines (some snapshots stale because the owner wrote since),
snapshot-less resident lines, stale snapshots of lines that were evicted
by local reads, a target DRAM with rows already open, and target words
that are floats, other Python values or never written — processor 0
reads 1-60 of processor 1's words two ways on identical copies:

* **per word** — ``cached_read`` of each word, then
  ``invalidate_cached_line`` after every ``flush_every``-th word and the
  last (never, for None), each invalidation charged to the next read;
* **planned** — one ``plan_cached`` over the same offsets and full
  addresses (two ``range``s for consecutive words, else two int64
  arrays), then its ``commit()``.

The reads go through Annex entries 1 and 2, so one offset has two full
line addresses in the same L1 set.  Both must give the same cycles,
values and tail, and leave identical L1 tags and counters, snapshots,
fill counts and target DRAM state.
"""

from __future__ import annotations

import random

import numpy as np

from repro.machine.machine import Machine
from repro.params import WORD_BYTES, t3d_machine_params

DRAWS = 400
#: Target words the draws read, and the segment covering part of them.
BASE = 0x10000
L1_BYTES = 8 * 1024
SEGMENT_WORDS = 256


def _pool(rng: random.Random) -> list:
    """Word offsets a draw's reads and warm-up choose from: a few lines
    of a few L1 sets, some a cache size apart (so they conflict)."""
    lines = {BASE + L1_BYTES * rng.randrange(0, 4) + 32 * rng.randrange(0, 6)
             for _ in range(rng.randint(1, 8))}
    return [line + WORD_BYTES * w for line in sorted(lines)
            for w in range(4)]


def _machine(seed: int, pool: list) -> Machine:
    """The warm machine of draw ``seed`` (deterministic, so two calls
    give identical copies)."""
    rng = random.Random(seed)
    machine = Machine(t3d_machine_params((2, 1, 1)))
    node0, node1 = machine.node(0), machine.node(1)
    memory = node1.memsys.memory
    if rng.random() < 0.5:
        segment = memory.alloc_segment(BASE, SEGMENT_WORDS)
        segment.fill(0, np.arange(1.0, SEGMENT_WORDS + 1))
    for offset in pool:
        kind = rng.random()
        if kind < 0.5:
            memory.store(offset, float(rng.randrange(1000)))
        elif kind < 0.7:
            memory.store(offset, rng.choice(["w", 7, None, (1, 2)]))
    unit = node0.remote
    for _ in range(rng.randint(0, 12)):
        offset = rng.choice(pool)
        full = node0.annex.compose_address(rng.choice([1, 2]), offset)
        action = rng.random()
        if action < 0.5:
            unit.cached_read(0.0, 1, offset, full)
        elif action < 0.6:
            node0.memsys.l1.fill(full)             # no snapshot
        elif action < 0.7:
            node0.memsys.read_cycles(0.0, offset)  # evicts, keeps snapshot
        elif action < 0.8:
            unit.invalidate_cached_line(full)
        else:
            memory.store(offset, float(rng.randrange(1000)))  # now stale
    for _ in range(rng.randint(0, 3)):
        node1.memsys.dram.access(rng.choice(pool))
    return machine


def _stream(rng: random.Random, pool: list):
    """Offsets and full addresses: ranges of consecutive words, or
    arrays drawn from the pool."""
    n = rng.randint(1, 60)
    index = rng.choice([1, 2])
    annex = index << 32
    if rng.random() < 0.3:
        start = rng.choice(pool)
        return (range(start, start + n * WORD_BYTES, WORD_BYTES),
                range(annex | start, (annex | start) + n * WORD_BYTES,
                      WORD_BYTES))
    offsets = np.array([rng.choice(pool) for _ in range(n)], dtype=np.int64)
    annexes = np.array([rng.choice([1, 2]) << 32 for _ in range(n)],
                       dtype=np.int64)
    return offsets, offsets | annexes


def _per_word(machine, offsets, fulls, flush_every):
    unit = machine.node(0).remote
    cycles, values = [], []
    carry = 0.0
    n = len(offsets)
    for k, (offset, full) in enumerate(zip(list(offsets), list(fulls))):
        cost, value = unit.cached_read(0.0, 1, int(offset), int(full))
        cycles.append(carry + cost)
        values.append(value)
        carry = 0.0
        if flush_every is not None and ((k + 1) % flush_every == 0
                                        or k == n - 1):
            carry = unit.invalidate_cached_line(int(full))
    return cycles, values, carry


def _state(machine) -> tuple:
    node0 = machine.node(0)
    l1 = node0.memsys.l1
    dram = machine.node(1).memsys.dram
    unit = node0.remote
    return (dict(l1._tags), l1.hits, l1.misses, unit._line_snapshots,
            unit.cached_reads, list(dram._open_row), dram._last_bank,
            dram.accesses, dram.row_misses, dram.same_bank_conflicts)


def _typed(values) -> list:
    return [(type(v), v) for v in values]


def test_plan_cached_equals_per_word_loop():
    for seed in range(DRAWS):
        rng = random.Random(seed)
        pool = _pool(rng)
        offsets, fulls = _stream(rng, pool)
        flush_every = rng.choice([None, 1, 3, 4, 5])
        reference = _machine(seed, pool)
        want = _per_word(reference, offsets, fulls, flush_every)
        planned_machine = _machine(seed, pool)
        planned = planned_machine.node(0).remote.plan_cached(
            1, offsets, fulls, flush_every)
        assert planned is not None, seed
        plan, tail = planned
        values = plan.values
        values = values.tolist() if isinstance(values, np.ndarray) \
            else list(values)
        plan.commit()
        assert plan.cycles.tolist() == want[0], seed
        assert _typed(values) == _typed(want[1]), seed
        assert tail == want[2], seed
        assert _state(planned_machine) == _state(reference), seed
