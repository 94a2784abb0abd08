"""Lock-step unit checks for the vectorized tag-arithmetic kernels.

Each kernel in :mod:`repro.vector.kernels` claims to compute, over a
whole address stream at once, exactly what a cold-started stateful unit
model computes one access at a time.  These tests replay the same
streams — seeded random mixes plus the sawtooth shapes the probes
actually generate — through both spellings and require *identical*
output (same booleans, same float bits), never approximate agreement.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.node.cache import Cache
from repro.node.dram import Dram
from repro.node.tlb import Tlb
from repro.params import CacheParams, DramParams, TlbParams
from repro.vector import UnsupportedStimulus
from repro.vector.kernels import (
    direct_mapped_hit_mask,
    dram_cost_stream,
    dram_row_events,
    sawtooth_addresses,
    tlb_cost_stream,
    validate_point,
)

KB = 1024


def _random_stream(rng, n, span, align=8):
    return [rng.randrange(0, span // align) * align for _ in range(n)]


def _sawtooth(base, stride, count, npasses):
    return list(range(base, base + count * stride, stride)) * npasses


STREAMS = [
    ("random-dense", lambda rng: _random_stream(rng, 600, 32 * KB)),
    ("random-sparse", lambda rng: _random_stream(rng, 600, 4096 * KB)),
    ("sawtooth-8", lambda rng: _sawtooth(0, 8, 512, 3)),
    ("sawtooth-4K", lambda rng: _sawtooth(0, 4 * KB, 64, 3)),
    ("sawtooth-64K", lambda rng: _sawtooth(160, 64 * KB, 48, 3)),
]


@pytest.fixture(params=STREAMS, ids=[name for name, _ in STREAMS])
def stream(request):
    name, make = request.param
    return make(random.Random(name))


def test_sawtooth_addresses_matches_reference_loop():
    got = sawtooth_addresses(40, 24, 7, 3)
    assert got.dtype == np.int64
    assert got.tolist() == _sawtooth(40, 24, 7, 3)


def test_direct_mapped_hit_mask_matches_cache(stream):
    params = CacheParams(size_bytes=8 * KB)
    cache = Cache(params)
    expected = [cache.access_fill(addr) for addr in stream]
    got = direct_mapped_hit_mask(np.asarray(stream, dtype=np.int64),
                                 params.line_bytes, params.num_sets)
    assert got.tolist() == expected


def test_dram_cost_stream_matches_dram(stream):
    params = DramParams()
    dram = Dram(params)
    expected = [dram.access(addr) for addr in stream]
    got = dram_cost_stream(
        np.asarray(stream, dtype=np.int64),
        interleave=params.bank_interleave_bytes, banks=params.banks,
        page_bytes=params.page_bytes, access_cycles=params.access_cycles,
        off_page_cycles=params.off_page_cycles,
        same_bank_cycles=params.same_bank_cycles)
    assert got.tolist() == expected


def test_dram_cost_stream_matches_dram_with_remote_penalties(stream):
    params = DramParams(banks=2, bank_interleave_bytes=2048 * KB,
                        page_bytes=2048 * KB)
    dram = Dram(params)
    expected = [dram.access_with(addr, 15.0, 9.0) for addr in stream]
    got = dram_cost_stream(
        np.asarray(stream, dtype=np.int64),
        interleave=params.bank_interleave_bytes, banks=params.banks,
        page_bytes=params.page_bytes, access_cycles=params.access_cycles,
        off_page_cycles=15.0, same_bank_cycles=9.0)
    assert got.tolist() == expected


def _lines_by_set(cache, params):
    lines = np.full(params.num_sets, -1, dtype=np.int64)
    for index, line in cache._tags.items():
        lines[index] = line // params.line_bytes
    return lines


def test_direct_mapped_hit_mask_warm_start_matches_cache(stream):
    params = CacheParams(size_bytes=8 * KB)
    cache = Cache(params)
    for addr in _random_stream(random.Random(7), 300, 64 * KB):
        cache.access_fill(addr)
    resident = _lines_by_set(cache, params)
    expected = [cache.access_fill(addr) for addr in stream]
    got = direct_mapped_hit_mask(np.asarray(stream, dtype=np.int64),
                                 params.line_bytes, params.num_sets,
                                 resident)
    assert got.tolist() == expected
    assert resident.tolist() == _lines_by_set(cache, params).tolist()


@pytest.mark.parametrize("last_bank", [None, -1, 0, 2])
def test_dram_row_events_warm_start_matches_dram(stream, last_bank):
    params = DramParams()
    dram = Dram(params)
    for addr in _random_stream(random.Random(11), 50, 256 * KB):
        dram.access(addr)
    if last_bank is not None:
        dram._last_bank = last_bank
    open_rows = np.array(dram._open_row, dtype=np.int64)
    geometry = dict(interleave=params.bank_interleave_bytes,
                    banks=params.banks, page_bytes=params.page_bytes)
    bank, miss, conflict = dram_row_events(
        np.asarray(stream, dtype=np.int64), **geometry,
        open_rows=open_rows, last_bank=dram._last_bank)
    expected = []
    for addr in stream:
        before = (dram.row_misses, dram.same_bank_conflicts)
        dram.access(addr)
        expected.append((dram._last_bank, dram.row_misses > before[0],
                         dram.same_bank_conflicts > before[1]))
    assert list(zip(bank.tolist(), miss.tolist(),
                    conflict.tolist())) == expected
    assert open_rows.tolist() == dram._open_row


# The three TLB regimes of the analytic kernel: working set below,
# exactly at, and above the TLB reach (P < cap, P == cap, P > cap).
@pytest.mark.parametrize("stride,count", [
    (8 * KB, 8),       # P = 8  < 32
    (8 * KB, 32),      # P = 32 == 32: fits without an eviction
    (8 * KB, 33),      # P = 33  > 32: every first touch misses, always
    (16 * KB, 64),     # P = 64  > 32, page-skipping stride
    (8, 512),          # sub-page stride, P = 1
    (4 * KB, 64),      # two accesses per page, P = 32 == cap
])
@pytest.mark.parametrize("npasses", [1, 3])
def test_tlb_cost_stream_matches_tlb(stride, count, npasses):
    params = TlbParams(entries=32, page_bytes=8 * KB, miss_cycles=35.0,
                       never_misses=False)
    tlb = Tlb(params)
    one_pass = list(range(0, count * stride, stride))
    expected = [tlb.translate(addr) for addr in one_pass * npasses]
    got = tlb_cost_stream(np.asarray(one_pass, dtype=np.int64), npasses,
                          page_bytes=params.page_bytes,
                          capacity=params.entries,
                          miss_cycles=params.miss_cycles)
    assert got.tolist() == expected


@pytest.mark.parametrize("bad", [
    dict(base=0, stride=0, count=8, warmup_passes=1, measure_passes=2),
    dict(base=0, stride=-8, count=8, warmup_passes=1, measure_passes=2),
    dict(base=0, stride=8, count=0, warmup_passes=1, measure_passes=2),
    dict(base=-8, stride=8, count=8, warmup_passes=1, measure_passes=2),
    dict(base=0, stride=8, count=8, warmup_passes=-1, measure_passes=2),
    dict(base=0, stride=8, count=8, warmup_passes=1, measure_passes=0),
])
def test_validate_point_rejects_non_canonical_geometry(bad):
    with pytest.raises(UnsupportedStimulus):
        validate_point(**bad)


def test_validate_point_accepts_canonical_geometry():
    validate_point(base=0, stride=8, count=1, warmup_passes=0,
                   measure_passes=1)
