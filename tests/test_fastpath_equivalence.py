"""Golden-equivalence suite: the fast paths ARE the reference model.

Every batched/inlined fast path added for performance has a way back
to the reference per-access implementation:

* probe harness: ``sweep_fn=None`` / ``memo_key=None`` force the
  per-access loop and disable the point memo;
* :func:`repro.tiers.reference` turns every fast path off at once —
  among them the bulk transfers' planned reads and batched
  write-buffer stream (``WriteBuffer.stream``), the range-op BLT data
  movement, the batched EM3D compute phase
  (``MemorySystem.plan_block``) and its ghost fills.

These tests run the same experiment down both paths and assert the
results are *identical* — same floats, same counters, same memory
contents — not merely close.  Any divergence means a fast path changed
the model, which is a correctness bug regardless of which side is
right.
"""

from __future__ import annotations

import pytest

from repro import tiers
from repro.machine.machine import Machine
from repro.microbench import probes
from repro.microbench.harness import clear_probe_memo
from repro.node.memsys import t3d_memory_system, workstation_memory_system
from repro.params import WORD_BYTES, t3d_machine_params
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC

KB = 1024

#: Small but cache-exercising probe geometry: spans the 8 KB L1 so the
#: curves contain hit, miss, and page-crossing regimes.
PROBE_SIZES = [4 * KB, 16 * KB, 64 * KB]


def _points(curves):
    return [(p.size, p.stride, p.avg_cycles, p.accesses)
            for p in curves.points]


# ----------------------------------------------------------------------
# Figure 1 / Figure 2: local read and write sweeps
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
def test_fig1_read_sweep_matches_reference(make_memsys):
    fast = probes.local_read_probe(make_memsys(), sizes=PROBE_SIZES,
                                   memo_key=None)
    ref = probes.local_read_probe(make_memsys(), sizes=PROBE_SIZES,
                                  sweep_fn=None, memo_key=None)
    assert _points(fast) == _points(ref)


@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
def test_fig2_write_sweep_matches_reference(make_memsys):
    fast = probes.local_write_probe(make_memsys(), sizes=PROBE_SIZES,
                                    memo_key=None)
    ref = probes.local_write_probe(make_memsys(), sizes=PROBE_SIZES,
                                   sweep_fn=None, memo_key=None)
    assert _points(fast) == _points(ref)


def test_probe_memo_replays_identical_points():
    clear_probe_memo()
    ms = t3d_memory_system()
    first = probes.local_read_probe(ms, sizes=PROBE_SIZES)
    replay = probes.local_read_probe(ms, sizes=PROBE_SIZES)
    no_memo = probes.local_read_probe(ms, sizes=PROBE_SIZES, memo_key=None)
    assert _points(first) == _points(replay) == _points(no_memo)


# ----------------------------------------------------------------------
# Figure 4: remote read probe (memoized vs direct)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mechanism", ["uncached", "cached", "splitc"])
def test_fig4_remote_read_memo_matches_direct(mechanism):
    clear_probe_memo()
    memo = probes.remote_read_probe(mechanism=mechanism, sizes=PROBE_SIZES)
    direct = probes.remote_read_probe(mechanism=mechanism,
                                      sizes=PROBE_SIZES, memo_key=None)
    assert _points(memo) == _points(direct)


# ----------------------------------------------------------------------
# Figure 8: bulk transfers, batched vs per-word reference
# ----------------------------------------------------------------------

FIG8_SIZES = [8, 32, 512, 2 * KB, 8 * KB, 32 * KB]


def test_fig8_bulk_read_curves_match_reference():
    fast = probes.bulk_read_bandwidth_probe(sizes=FIG8_SIZES)
    with tiers.reference():
        ref = probes.bulk_read_bandwidth_probe(sizes=FIG8_SIZES)
    assert fast == ref


def test_fig8_bulk_write_curves_match_reference():
    fast = probes.bulk_write_bandwidth_probe(sizes=FIG8_SIZES[1:])
    with tiers.reference():
        ref = probes.bulk_write_bandwidth_probe(sizes=FIG8_SIZES[1:])
    assert fast == ref


def _fresh_sc():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    return machine, SplitC(machine.make_contexts()[0])


def _machine_fingerprint(machine, sc):
    """Every observable the word loops touch: clocks, counters, unit
    state, in-flight acknowledgements, pending write-buffer entries and
    the raw memory words of every node."""
    out = [sc.ctx.clock, [wb.owner_pe for wb in machine._dirty_buffers]]
    for pe in range(machine.num_nodes):
        node = machine.node(pe)
        ms = node.memsys
        wb = ms.write_buffer
        remote = node.remote
        out.append((pe, ms.l1.hits, ms.l1.misses, sorted(ms.l1._tags.items()),
                    ms.dram.accesses, ms.dram.row_misses,
                    ms.dram.same_bank_conflicts, list(ms.dram._open_row),
                    ms.dram._last_bank,
                    wb.merged_writes, wb.drained_entries, wb._last_retire,
                    [(e.line_addr, e.enqueue_time, e.retire_time,
                      list(e.words.items()), e.apply_words,
                      e.on_retire is not None, e.meta and e.meta[0])
                     for e in wb._pending],
                    remote.reads, remote.cached_reads, remote.stores,
                    [(a.drain_time, a.ack_time, a.nbytes)
                     for a in remote._acks],
                    sorted(remote._line_snapshots.items()),
                    node.prefetch.issues, node.prefetch.pops,
                    node.prefetch.outstanding(),
                    node.inbound_busy_until, list(node._arrivals),
                    sorted((a, type(v).__name__, v)
                           for a, v in ms.memory.items())))
    return out


def _seed_memories(machine):
    for pe in range(machine.num_nodes):
        memory = machine.node(pe).memsys.memory
        for i in range(64):
            memory.store(i * WORD_BYTES, float(i + 100 * pe))


#: op, source, destination, bytes.  The first four are line-aligned;
#: the store cases with unaligned ends once drained before peeking.
BULK_CASES = {
    "write_stores": ("stores", 0x0, 0x6000, 512),
    "read_uncached": ("uncached", 0x0, 0x6000, 512),
    "local_copy": ("local_copy", 0x0, 0x6000, 512),
    "put": ("put", 0x0, 0x6000, 512),
    "stores_unaligned": ("stores", 94648, 44320, 32),
    "put_unaligned": ("put", 105440, 32760, 64),
    "read_cached": ("cached", 0x8, 0x6010, 512),
    "read_cached_batch": ("cached", 0x3fe8, 0x6000, 9 * KB),
    "read_prefetch": ("prefetch", 0x18, 0x6008, 512),
    "get_page_crossing": ("get", 0x3f00, 0x6000, 2 * KB),
}


@pytest.mark.parametrize("case", list(BULK_CASES))
def test_bulk_word_loops_state_identical(case):
    op, src, dst, nbytes = BULK_CASES[case]

    def drive(sc):
        if op == "stores":
            bulk.bulk_write_stores(sc, GlobalPtr(1, dst), src, nbytes)
        elif op == "uncached":
            bulk.bulk_read_uncached(sc, dst, GlobalPtr(1, src), nbytes)
        elif op == "cached":
            bulk.bulk_read_cached(sc, dst, GlobalPtr(1, src), nbytes)
        elif op == "prefetch":
            bulk.bulk_read_prefetch(sc, dst, GlobalPtr(1, src), nbytes)
        elif op == "local_copy":
            bulk._local_copy(sc, dst, src, nbytes)
        elif op == "get":
            sc.bulk_get(dst, GlobalPtr(1, src), nbytes)
            sc.sync()
        else:
            sc.bulk_put(GlobalPtr(1, dst), src, nbytes)
            sc.sync()

    m_fast, sc_fast = _fresh_sc()
    _seed_memories(m_fast)
    drive(sc_fast)
    fast = _machine_fingerprint(m_fast, sc_fast)
    sc_fast.ctx.memory_barrier()
    sc_fast.ctx.clock = sc_fast.ctx.node.remote.wait_for_acks(
        sc_fast.ctx.clock)

    with tiers.reference():
        m_ref, sc_ref = _fresh_sc()
        _seed_memories(m_ref)
        drive(sc_ref)
        ref = _machine_fingerprint(m_ref, sc_ref)
        sc_ref.ctx.memory_barrier()
        sc_ref.ctx.clock = sc_ref.ctx.node.remote.wait_for_acks(
            sc_ref.ctx.clock)

    assert fast == ref
    assert (_machine_fingerprint(m_fast, sc_fast)
            == _machine_fingerprint(m_ref, sc_ref))


@pytest.mark.parametrize("stride", [None, WORD_BYTES, 64])
def test_blt_batched_copy_identical(stride):
    def drive(sc):
        node = sc.ctx.node
        cycles, xfer = node.blt.start_read(sc.ctx.clock, 1, 0x0, 0x6000,
                                           256, stride)
        sc.ctx.charge(cycles)
        sc.ctx.clock = node.blt.wait(sc.ctx.clock, xfer)
        cycles, xfer = node.blt.start_write(sc.ctx.clock, 1, 0x8000, 0x6000,
                                            256, stride)
        sc.ctx.charge(cycles)
        sc.ctx.clock = node.blt.wait(sc.ctx.clock, xfer)

    m_fast, sc_fast = _fresh_sc()
    src = m_fast.node(1).memsys.memory
    for i in range(64):
        src.store(i * WORD_BYTES, 1000.0 + i)
    drive(sc_fast)

    with tiers.reference():
        m_ref, sc_ref = _fresh_sc()
        src = m_ref.node(1).memsys.memory
        for i in range(64):
            src.store(i * WORD_BYTES, 1000.0 + i)
        drive(sc_ref)

    assert (_machine_fingerprint(m_fast, sc_fast)
            == _machine_fingerprint(m_ref, sc_ref))


# ----------------------------------------------------------------------
# Figure 9: the EM3D compute-phase fast path
# ----------------------------------------------------------------------

def test_fig9_em3d_sweep_matches_reference():
    from repro.apps.em3d import driver

    kw = dict(fractions=(0.0, 0.5), nodes_per_pe=30, degree=4,
              shape=(2, 1, 1))
    fast = driver.sweep(**kw)
    with tiers.reference():
        ref = driver.sweep(**kw)
    assert fast == ref


def test_fig9_ghost_fill_fast_path_matches_reference():
    """The planned blocking-read ghost fill and the streamed put
    exchange must reproduce the generic ``read_from``/``put_to`` paths
    exactly — every version that fills ghosts, at a
    communication-heavy fraction."""
    from repro.apps.em3d import driver

    kw = dict(fractions=(0.2, 0.5),
              versions=("bundle", "unroll", "put", "msg"),
              nodes_per_pe=30, degree=4, shape=(2, 1, 1))
    fast = driver.sweep(**kw)
    with tiers.reference():
        ref = driver.sweep(**kw)
    assert fast == ref
