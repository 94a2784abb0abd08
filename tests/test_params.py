"""Unit tests for the calibrated parameter module itself."""

import dataclasses

import pytest

from repro import params as P


def test_cycle_conversions_round_trip():
    assert P.ns_to_cycles(P.cycles_to_ns(91.0)) == pytest.approx(91.0)
    assert P.cycles_to_us(150.0) == pytest.approx(1.0)
    assert P.CYCLE_NS == pytest.approx(6.667, abs=0.01)


def test_mb_per_s():
    # 32 bytes in 22 cycles (one line fill) ~= 218 MB/s.
    assert P.mb_per_s(32, 22.0) == pytest.approx(218.0, rel=0.01)
    with pytest.raises(ValueError):
        P.mb_per_s(8, 0.0)


def test_headline_constants_match_paper():
    r = P.RemoteAccessParams()
    # Uncached read decomposition lands on 91 cycles.
    assert r.read_overhead_cycles + 2 * 2.5 + 22.0 == pytest.approx(91.0)
    # Cached adds the line payload: 114.
    assert (r.read_overhead_cycles + r.cached_line_extra_cycles
            + 2 * 2.5 + 22.0) == pytest.approx(114.0)
    # Non-blocking store steady state: drain / depth = 17.
    assert r.store_drain_cycles / P.WriteBufferParams().entries == \
        pytest.approx(17.0)


def test_cache_geometry_derived_fields():
    c = P.CacheParams()
    assert c.num_lines == 256
    assert c.num_sets == 256
    two_way = P.CacheParams(associativity=2)
    assert two_way.num_sets == 128


def test_machine_params_node_count():
    assert P.t3d_machine_params((2, 2, 2)).num_nodes == 8
    assert P.t3d_machine_params((4, 4, 2)).num_nodes == 32


def test_workstation_differs_where_it_should():
    t3d = P.t3d_node_params()
    ws = P.workstation_node_params()
    assert t3d.l2 is None and ws.l2 is not None
    assert t3d.tlb.never_misses and not ws.tlb.never_misses
    assert ws.dram.access_cycles > t3d.dram.access_cycles
    # Same core and L1 on both machines (same 21064).
    assert t3d.l1 == ws.l1
    assert t3d.alpha == ws.alpha


def test_params_are_frozen():
    node = P.t3d_node_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.l1.size_bytes = 1


def test_with_overrides_replaces_without_mutating():
    base = P.PrefetchParams()
    deeper = P.with_overrides(base, queue_depth=32)
    assert deeper.queue_depth == 32
    assert base.queue_depth == 16
    assert deeper.pop_cycles == base.pop_cycles


def test_annex_address_layout():
    assert P.LOCAL_ADDR_MASK == (1 << 32) - 1
    assert (5 << P.ANNEX_BIT_SHIFT) & P.LOCAL_ADDR_MASK == 0


def test_blt_startup_is_180_us():
    assert P.cycles_to_us(P.BltParams().startup_cycles) == pytest.approx(
        180.0)


def test_am_calibration_reaches_published_totals():
    am = P.AmParams()
    atomics = P.AtomicParams()
    # deposit ~ f&i + annex + ~6 merged store issues + software = 435.
    approx_deposit = (atomics.remote_cycles + 23.0 + 6 * 3.0
                      + am.deposit_software_cycles)
    assert P.cycles_to_us(approx_deposit) == pytest.approx(2.9, abs=0.05)


def test_describe_summarizes_the_machine():
    from repro.params import describe, t3d_machine_params, workstation_node_params
    text = describe(t3d_machine_params((4, 4, 2)))
    assert "32 x t3d-node" in text
    assert "8 KB, 32 B lines, 1-way" in text
    assert "L2: none" in text
    assert "huge pages" in text
    assert "BLT startup 180 us" in text
    ws = dataclasses.replace(t3d_machine_params((2, 1, 1)),
                             node=workstation_node_params())
    ws_text = describe(ws)
    assert "L2: 512 KB" in ws_text
    assert "8 KB pages" in ws_text


@pytest.mark.parametrize("cls, field", [
    (P.CacheParams, "size_bytes"),
    (P.CacheParams, "line_bytes"),
    (P.CacheParams, "associativity"),
    (P.WriteBufferParams, "entries"),
    (P.DramParams, "banks"),
    (P.DramParams, "bank_interleave_bytes"),
    (P.DramParams, "page_bytes"),
    (P.TlbParams, "entries"),
    (P.TlbParams, "page_bytes"),
    (P.PrefetchParams, "queue_depth"),
    (P.MessageQueueParams, "words_per_message"),
    (P.AtomicParams, "registers_per_node"),
    (P.AmParams, "queue_slots"),
])
@pytest.mark.parametrize("value", [0, -1])
def test_impossible_geometry_is_rejected_at_construction(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def test_am_data_words_may_be_zero_but_not_negative():
    with pytest.raises(ValueError, match="data_words"):
        P.AmParams(data_words=-1)
    P.AmParams(data_words=0)


@pytest.mark.parametrize("entries", [1, 0, -1])
def test_annex_without_a_remote_register_is_rejected(entries):
    with pytest.raises(ValueError, match="entries"):
        P.AnnexParams(entries=entries)
    P.AnnexParams(entries=2)


def test_off_grid_but_possible_geometries_stay_accepted():
    P.WriteBufferParams(entries=3)
    P.CacheParams(associativity=2)
    P.DramParams(banks=1, page_bytes=8 * 1024)
    P.t3d_node_params()
    P.workstation_node_params()
