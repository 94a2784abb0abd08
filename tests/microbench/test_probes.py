"""Integration tests for the probe suite (reduced sweep ranges)."""

import pytest

from repro.microbench import probes
from repro.microbench.harness import default_sizes
from repro.node.memsys import t3d_memory_system
from repro.params import CYCLE_NS

KB = 1024

SMALL_SIZES = default_sizes(4 * KB, 64 * KB)


def test_local_read_probe_shows_cache_and_memory():
    curves = probes.local_read_probe(t3d_memory_system(), sizes=SMALL_SIZES)
    assert curves.at(4 * KB, 8).avg_cycles == pytest.approx(1.0)
    assert curves.at(64 * KB, 32).avg_cycles == pytest.approx(22.0, abs=1.0)


def test_local_write_probe_shows_merging():
    curves = probes.local_write_probe(t3d_memory_system(), sizes=SMALL_SIZES)
    small_stride = curves.at(64 * KB, 8).avg_cycles
    line_stride = curves.at(64 * KB, 32).avg_cycles
    assert small_stride == pytest.approx(3.0, abs=0.5)
    assert line_stride == pytest.approx(5.5, abs=1.0)


def test_remote_read_probe_uncached_level():
    curves = probes.remote_read_probe(mechanism="uncached",
                                      sizes=SMALL_SIZES + [256 * KB])
    assert curves.at(64 * KB, 32).avg_cycles == pytest.approx(91.0, abs=2.0)
    # Off-page at 16 KB strides adds ~15 cycles (needs enough rows per
    # bank that pages cannot all stay open: a 256 KB array).
    assert curves.at(256 * KB, 16 * KB).avg_cycles >= 104.0


def test_remote_read_probe_cached_prefetches_neighbors():
    curves = probes.remote_read_probe(mechanism="cached", sizes=SMALL_SIZES)
    # Stride 8: 3 of 4 accesses hit the fetched line.
    assert curves.at(64 * KB, 8).avg_cycles < 40.0
    assert curves.at(64 * KB, 32).avg_cycles == pytest.approx(114.0, abs=2.0)


def test_remote_read_probe_splitc_level():
    curves = probes.remote_read_probe(mechanism="splitc", sizes=[16 * KB])
    assert curves.at(16 * KB, 32).avg_cycles == pytest.approx(128.0, abs=2.0)


def test_remote_write_probes():
    raw = probes.remote_write_probe(mechanism="blocking", sizes=[16 * KB])
    assert raw.at(16 * KB, 32).avg_cycles == pytest.approx(130.0, abs=2.0)
    splitc = probes.remote_write_probe(mechanism="splitc", sizes=[16 * KB])
    assert splitc.at(16 * KB, 32).avg_cycles == pytest.approx(147.0, abs=2.0)


def test_nonblocking_write_probe():
    curves = probes.nonblocking_write_probe(mechanism="store",
                                            sizes=[32 * KB])
    assert curves.at(32 * KB, 32).avg_cycles == pytest.approx(17.0, abs=1.0)
    assert curves.at(32 * KB, 8).avg_cycles < 7.0       # merging
    put = probes.nonblocking_write_probe(mechanism="splitc",
                                         sizes=[32 * KB])
    assert put.at(32 * KB, 32).avg_cycles == pytest.approx(45.0, abs=2.0)


def test_prefetch_group_probe_amortizes():
    costs = probes.prefetch_group_probe(groups=[1, 4, 16])
    by_group = {c.group: c.cycles_per_element for c in costs}
    assert by_group[1] > 100.0
    assert by_group[16] < 40.0
    assert by_group[1] > by_group[4] > by_group[16]


def test_splitc_get_probe_adds_overhead():
    raw = probes.prefetch_group_probe(groups=[16])[0]
    get = probes.splitc_get_group_probe(groups=[16])[0]
    assert get.cycles_per_element > raw.cycles_per_element


def test_hazard_probes_all_fire():
    assert probes.synonym_hazard_probe().hazard_observed
    assert probes.status_bit_hazard_probe().hazard_observed
    assert probes.stale_cached_read_probe().hazard_observed


def test_network_hop_probe_slope():
    points = probes.network_hop_probe(shape=(8, 1, 1))
    hops = [h for h, _ in points]
    lat = {h: c for h, c in points}
    assert max(hops) >= 3
    per_hop = (lat[max(hops)] - lat[1]) / (max(hops) - 1) / 2
    # 2-3 cycles per hop each way (section 4.2).
    assert 2.0 <= per_hop <= 3.0
    # Latency is monotone in hop count (table T9).
    ordered = [lat[h] for h in sorted(lat)]
    assert ordered == sorted(ordered)


def test_streaming_bandwidth():
    bw = probes.streaming_bandwidth_probe(t3d_memory_system(),
                                          nbytes=64 * KB)
    assert bw > 150.0


def test_measure_headlines_keys_and_levels():
    h = probes.measure_headlines()
    assert h["annex_update"] == pytest.approx(23.0)
    assert h["uncached_read"] == pytest.approx(91.0, abs=2.0)
    assert h["cached_read"] == pytest.approx(114.0, abs=2.0)
    assert h["blocking_write"] == pytest.approx(130.0, abs=2.0)
    assert h["splitc_read"] == pytest.approx(128.0, abs=2.0)
    assert h["splitc_write"] == pytest.approx(147.0, abs=2.0)
    assert h["splitc_put"] == pytest.approx(45.0, abs=2.0)
    # Table T3's Split-C put: ~300 ns within 4%.
    assert h["splitc_put"] * CYCLE_NS == pytest.approx(300.0, rel=0.04)
    assert h["fetch_increment"] == pytest.approx(150.0)
    assert h["message_send"] == pytest.approx(122.0)
    assert h["message_interrupt"] * CYCLE_NS / 1000 == pytest.approx(25.0, rel=0.01)


def test_bulk_probe_shapes():
    reads = probes.bulk_read_bandwidth_probe(
        sizes=[8, 512, 32 * KB],
        mechanisms={k: v for k, v in probes.READ_MECHANISMS.items()
                    if k in ("uncached", "prefetch", "blt")})
    by = {(p.mechanism, p.nbytes): p.mb_per_s for p in reads}
    assert by[("uncached", 8)] > by[("prefetch", 8)]
    assert by[("prefetch", 512)] > by[("blt", 512)]
    assert by[("blt", 32 * KB)] > by[("prefetch", 32 * KB)]


def test_unknown_mechanisms_rejected():
    with pytest.raises(ValueError):
        probes.remote_read_probe(mechanism="nope", sizes=[4 * KB])
    with pytest.raises(ValueError):
        probes.remote_write_probe(mechanism="nope", sizes=[4 * KB])
    with pytest.raises(ValueError):
        probes.nonblocking_write_probe(mechanism="nope", sizes=[4 * KB])


def test_bulk_write_probe_cached_source_is_faster():
    cached = probes.bulk_write_bandwidth_probe(
        sizes=[4 * KB], mechanisms={"stores": probes.WRITE_MECHANISMS["stores"]},
        source_cached=True)[0]
    uncached = probes.bulk_write_bandwidth_probe(
        sizes=[4 * KB], mechanisms={"stores": probes.WRITE_MECHANISMS["stores"]},
        source_cached=False)[0]
    assert cached.mb_per_s > 1.3 * uncached.mb_per_s
