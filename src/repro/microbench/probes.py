"""The probe suite (paper sections 2, 4, 5, 6, plus hazard probes).

Each probe drives the simulated hardware exactly the way the paper's
assembly probes drove the real machine, and returns either latency
curves (:class:`~repro.microbench.harness.LatencyCurves`), bandwidth
tables, or — for the semantic-hazard probes — a demonstration record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.machine import Machine
from repro.microbench.harness import (
    LatencyCurves,
    PointSpec,
    run_stride_point,
    run_stride_probe,
)
from repro.node.memsys import MemorySystem
from repro.params import CYCLE_NS, WORD_BYTES, mb_per_s
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC
from repro import vector as _vector

__all__ = [
    "BandwidthPoint",
    "GroupCost",
    "local_read_probe",
    "local_write_probe",
    "remote_read_probe",
    "remote_write_probe",
    "nonblocking_write_probe",
    "prefetch_group_probe",
    "splitc_get_group_probe",
    "bulk_read_bandwidth_probe",
    "bulk_write_bandwidth_probe",
    "synonym_hazard_probe",
    "status_bit_hazard_probe",
    "stale_cached_read_probe",
    "measure_headlines",
    "network_hop_probe",
    "streaming_bandwidth_probe",
]

KB = 1024


# ----------------------------------------------------------------------
# Local node (Figures 1 and 2)
# ----------------------------------------------------------------------

def local_read_probe(memsys: MemorySystem, **kwargs) -> LatencyCurves:
    """Figure 1: average read latency vs (array size, stride).

    While the fast paths are on, each point's reads are one plan of the
    node's own read model (:func:`_local_read_sweep`); the reference
    loop runs a point the plan declines.  Points are memoized by the
    machine's parameters; pass ``sweep_fn=None`` / ``memo_key=None`` to
    force the reference per-access path.
    """
    kwargs.setdefault("sweep_fn", _local_read_sweep(memsys))
    kwargs.setdefault("memo_key", ("local_read", memsys.params))
    return run_stride_probe(
        memsys.read_cycles, reset_fn=memsys.reset, **kwargs)


def _local_read_sweep(memsys: MemorySystem):
    """:func:`_planned_sweep` of the node's own read plan
    (:meth:`~repro.node.memsys.MemorySystem.plan_read_cycles`), or None
    with the fast paths off."""
    if not _vector.enabled():
        return None
    return _planned_sweep(memsys.plan_read_cycles, "local")


def _planned_sweep(plan, what: str):
    """A ``sweep_fn`` that times a whole point's reads as one plan:
    ``plan(addrs)`` of the point's sawtooth stream returns ``(cycles,
    commit)``, or None, and the point then raises
    :class:`~repro.vector.UnsupportedStimulus`.  The point commits its
    plan, so it leaves the machine as its reference loop does."""
    from repro.vector.kernels import sawtooth_addresses, validate_point

    def sweep(base, stride, count, warmup_passes, measure_passes):
        validate_point(base, stride, count, warmup_passes, measure_passes)
        planned = plan(sawtooth_addresses(base, stride, count,
                                          warmup_passes + measure_passes))
        if planned is None:
            raise _vector.UnsupportedStimulus(f"{what} read plan declined")
        cycles, commit = planned
        commit()
        total = float(cycles[warmup_passes * count:].sum())
        return total, count * measure_passes

    return sweep


def local_write_probe(memsys: MemorySystem, **kwargs) -> LatencyCurves:
    """Figure 2: average write latency vs (array size, stride)."""
    kwargs.setdefault("sweep_fn", _vector.stride_sweep_fn(
        "local_write", node_params=memsys.params))
    kwargs.setdefault("memo_key", ("local_write", memsys.params))
    return run_stride_probe(
        memsys.write_cycles, reset_fn=memsys.reset, **kwargs)


# ----------------------------------------------------------------------
# Remote access (Figures 4, 5, 7)
# ----------------------------------------------------------------------

def _fresh_pair():
    from repro.params import t3d_machine_params
    return Machine(t3d_machine_params((2, 1, 1)))


#: Words of PE 1 that :func:`remote_read_probe` lays out as a typed
#: segment on the machine it makes: 1 MB, the largest default array.
_REMOTE_READ_WORDS = 1024 * KB // WORD_BYTES


def remote_read_probe(machine: Machine | None = None,
                      mechanism: str = "uncached", **kwargs) -> LatencyCurves:
    """Figure 4: remote read latency profile.

    ``mechanism`` is ``"uncached"``, ``"cached"``, or ``"splitc"`` (the
    full Split-C read including annex set-up and checks).  While the
    fast paths are on, each point's reads are one plan of the machine's
    own remote-read model (:func:`_remote_read_sweep`); the reference
    loop runs a point the plan declines.  A machine the probe makes
    holds distinct floats in PE 1's first megabyte, an ``"f8"``
    segment, so the plans gather the words they read in one pass.
    """
    if machine is None:
        import numpy as np

        machine = _fresh_pair()
        target = machine.node(1).memsys.memory.alloc_segment(
            0, _REMOTE_READ_WORDS)
        target.fill(0, np.arange(1.0, _REMOTE_READ_WORDS + 1))
    node0 = machine.node(0)
    sc = SplitC(machine.make_contexts()[0])

    if mechanism == "uncached":
        def access(now, addr):
            cycles, _ = node0.remote.uncached_read(now, 1, addr)
            return cycles
    elif mechanism == "cached":
        def access(now, addr):
            full = node0.annex.compose_address(1, addr)
            cycles, _ = node0.remote.cached_read(now, 1, addr, full)
            return cycles
    elif mechanism == "splitc":
        def access(now, addr):
            sc.ctx.clock = now
            sc.read(GlobalPtr(1, addr))
            return sc.ctx.clock - now
    else:
        raise ValueError(f"unknown read mechanism {mechanism!r}")

    def reset():
        machine.reset()
        sc.annex_policy.reset()

    kwargs.setdefault("sweep_fn", _remote_read_sweep(node0, sc, mechanism))
    kwargs.setdefault("memo_key", ("remote_read", mechanism, machine.params))
    return run_stride_probe(access, reset_fn=reset, **kwargs)


def _remote_read_sweep(node0, sc: SplitC, mechanism: str):
    """:func:`_planned_sweep` of node 0's reads of node 1's words, or
    None with the fast paths off:
    :meth:`~repro.shell.remote.RemoteAccessUnit.plan_uncached`,
    :meth:`SplitC.plan_reads` (which also leaves the runtime's clock
    where the loop does), or
    :meth:`~repro.shell.remote.RemoteAccessUnit.plan_cached` of the
    addresses through Annex entry 1."""
    if not _vector.enabled():
        return None
    import numpy as np

    remote = node0.remote
    annex_bit = node0.annex.compose_address(1, 0)

    def plan(addrs):
        if mechanism == "uncached":
            reads = remote.plan_uncached(1, addrs)
        elif mechanism == "splitc":
            reads = sc.plan_reads(np.ones(len(addrs), dtype=np.int64), addrs)
            if reads is not None:
                sc.ctx.clock = float(reads.cycles.sum())
        else:
            reads = remote.plan_cached(1, addrs, addrs | annex_bit, None)
            reads = reads and reads[0]
        return None if reads is None else (reads.cycles, reads.commit)

    return _planned_sweep(plan, mechanism)


def remote_write_probe(machine: Machine | None = None,
                       mechanism: str = "blocking", **kwargs) -> LatencyCurves:
    """Figure 5: acknowledged remote write latency profile.

    ``mechanism`` is ``"blocking"`` (raw store+mb+poll) or ``"splitc"``.
    """
    machine = machine if machine is not None else _fresh_pair()
    node0 = machine.node(0)
    sc = SplitC(machine.make_contexts()[0])

    if mechanism == "blocking":
        def access(now, addr):
            full = node0.annex.compose_address(1, addr)
            return node0.remote.blocking_write(now, 1, addr, 0, full)
    elif mechanism == "splitc":
        def access(now, addr):
            sc.ctx.clock = now
            sc.write(GlobalPtr(1, addr), 0)
            return sc.ctx.clock - now
    else:
        raise ValueError(f"unknown write mechanism {mechanism!r}")

    def reset():
        machine.reset()
        sc.annex_policy.reset()

    kwargs.setdefault("memo_key", ("remote_write", mechanism, machine.params))
    return run_stride_probe(access, reset_fn=reset, **kwargs)


def nonblocking_write_probe(machine: Machine | None = None,
                            mechanism: str = "store", **kwargs) -> LatencyCurves:
    """Figure 7: non-blocking remote store latency profile.

    ``mechanism`` is ``"store"`` (raw) or ``"splitc"`` (the put).
    """
    machine = machine if machine is not None else _fresh_pair()
    node0 = machine.node(0)
    sc = SplitC(machine.make_contexts()[0])

    if mechanism == "store":
        def access(now, addr):
            full = node0.annex.compose_address(1, addr)
            return node0.remote.store(now, 1, addr, 0, full)
    elif mechanism == "splitc":
        def access(now, addr):
            sc.ctx.clock = now
            sc.put(GlobalPtr(1, addr), 0)
            return sc.ctx.clock - now
    else:
        raise ValueError(f"unknown store mechanism {mechanism!r}")

    def reset():
        machine.reset()
        sc.annex_policy.reset()

    kwargs.setdefault("memo_key",
                      ("nonblocking_write", mechanism, machine.params))
    return run_stride_probe(access, reset_fn=reset, **kwargs)


# ----------------------------------------------------------------------
# Prefetch groups (Figure 6)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GroupCost:
    """Average per-element cost of a prefetch group of a given size."""

    group: int
    cycles_per_element: float

    @property
    def ns_per_element(self) -> float:
        return self.cycles_per_element * CYCLE_NS


def prefetch_group_probe(machine: Machine | None = None,
                         groups=range(1, 17), repeats: int = 16) -> list[GroupCost]:
    """Figure 6 (raw): prefetch k words, pop k, store each locally."""
    machine = machine if machine is not None else _fresh_pair()
    node0 = machine.node(0)
    machine.node(1).memsys.dram.access(0)          # open the target row
    results = []
    now = 1_000_000.0
    for group in groups:
        start = now
        for rep in range(repeats):
            base = (rep * group) * WORD_BYTES
            for i in range(group):
                now += node0.prefetch.issue(now, 1, base + i * WORD_BYTES)
            if node0.prefetch.needs_barrier_before_pop():
                now += node0.alpha.memory_barrier()
            for i in range(group):
                cycles, _ = node0.prefetch.pop(now)
                now += cycles
                now += node0.memsys.write_cycles(now, 0x400000 + i * WORD_BYTES)
        results.append(GroupCost(
            group=group,
            cycles_per_element=(now - start) / (repeats * group)))
    return results


def splitc_get_group_probe(machine: Machine | None = None,
                           groups=range(1, 17), repeats: int = 16) -> list[GroupCost]:
    """Figure 6 (Split-C): gets in groups of k followed by a sync."""
    machine = machine if machine is not None else _fresh_pair()
    machine.node(1).memsys.dram.access(0)
    sc = SplitC(machine.make_contexts()[0])
    dst = sc.ctx.node.heap.alloc(16 * WORD_BYTES)
    results = []
    sc.ctx.clock = 1_000_000.0
    for group in groups:
        start = sc.ctx.clock
        for rep in range(repeats):
            base = (rep * group) * WORD_BYTES
            for i in range(group):
                sc.get(GlobalPtr(1, base + i * WORD_BYTES),
                       dst + i * WORD_BYTES)
            sc.sync()
        results.append(GroupCost(
            group=group,
            cycles_per_element=(sc.ctx.clock - start) / (repeats * group)))
    return results


# ----------------------------------------------------------------------
# Bulk bandwidth (Figure 8)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BandwidthPoint:
    mechanism: str
    nbytes: int
    mb_per_s: float


READ_MECHANISMS = {
    "uncached": bulk.bulk_read_uncached,
    "cached": bulk.bulk_read_cached,
    "prefetch": bulk.bulk_read_prefetch,
    "blt": bulk.bulk_read_blt,
    "splitc": bulk.bulk_read,
}

WRITE_MECHANISMS = {
    "stores": bulk.bulk_write_stores,
    "blt": bulk.bulk_write_blt,
    "splitc": bulk.bulk_write,
}


#: Figure 8's buffers: (source PE, source offset, destination PE,
#: destination offset) of a bulk read, and of a bulk write.
_READ_BUFFERS = (1, 0, 0, 0x400000)
_WRITE_BUFFERS = (0, 0, 1, 0x400000)


def _bulk_machine(nbytes: int, buffers) -> Machine:
    """A fresh 2-PE machine whose transfer source and destination (a
    ``buffers`` tuple) are ``"f8"`` segments of ``nbytes``, the source
    filled with distinct floats.  The fill is host work: no simulated
    access, so the transfer times as on an unsegmented machine, and the
    transferred words move through the segments' typed buffers."""
    import numpy as np

    src_pe, src_offset, dst_pe, dst_offset = buffers
    nwords = nbytes // WORD_BYTES
    machine = _fresh_pair()
    nodes = machine.nodes
    src = nodes[src_pe].memsys.memory.alloc_segment(src_offset, nwords)
    src.fill(0, np.arange(1.0, nwords + 1))
    nodes[dst_pe].memsys.memory.alloc_segment(dst_offset, nwords)
    return machine


def _bulk_read_point(machine: Machine, name: str, mech,
                     nbytes: int) -> BandwidthPoint:
    """One Figure 8 read: ``nbytes`` from PE 1 offset 0 into PE 0 at
    ``0x400000`` by ``mech`` (``READ_MECHANISMS[name]``)."""
    src_pe, src_offset, dst_pe, dst_offset = _READ_BUFFERS
    sc = SplitC(machine.make_contexts()[dst_pe])
    src = GlobalPtr(src_pe, src_offset)
    before = sc.ctx.clock
    if name == "splitc":
        sc.bulk_read(dst_offset, src, nbytes)
    else:
        mech(sc, dst_offset, src, nbytes)
    return BandwidthPoint(name, nbytes, mb_per_s(nbytes, sc.ctx.clock - before))


def _bulk_write_point(machine: Machine, name: str, mech, nbytes: int,
                      source_cached: bool = False) -> BandwidthPoint:
    """One Figure 8 write: ``nbytes`` from PE 0 offset 0 to PE 1 at
    ``0x400000`` by ``mech`` (``WRITE_MECHANISMS[name]``), from a source
    whose first 8 KB are warmed into the cache with ``source_cached``."""
    src_pe, src_offset, dst_pe, dst_offset = _WRITE_BUFFERS
    sc = SplitC(machine.make_contexts()[src_pe])
    dst = GlobalPtr(dst_pe, dst_offset)
    if source_cached:
        for i in range(0, min(nbytes, 8 * KB), WORD_BYTES):
            sc.ctx.local_read(src_offset + i)
    before = sc.ctx.clock
    if name == "splitc":
        sc.bulk_write(dst, src_offset, nbytes)
    else:
        mech(sc, dst, src_offset, nbytes)
    return BandwidthPoint(name, nbytes, mb_per_s(nbytes, sc.ctx.clock - before))


def bulk_read_bandwidth_probe(sizes=None, mechanisms=None) -> list[BandwidthPoint]:
    """Figure 8 (left): bulk read bandwidth per mechanism and size."""
    sizes = sizes if sizes is not None else [
        8, 32, 128, 512, 2 * KB, 8 * KB, 32 * KB, 128 * KB]
    mechanisms = mechanisms if mechanisms is not None else READ_MECHANISMS
    points = []
    for name, mech in mechanisms.items():
        for nbytes in sizes:
            machine = _bulk_machine(nbytes, _READ_BUFFERS)
            points.append(_bulk_read_point(machine, name, mech, nbytes))
            machine.release()
    return points


def bulk_write_bandwidth_probe(sizes=None, mechanisms=None,
                               source_cached: bool = False) -> list[BandwidthPoint]:
    """Figure 8 (right): bulk write bandwidth per mechanism and size."""
    sizes = sizes if sizes is not None else [
        32, 128, 512, 2 * KB, 8 * KB, 32 * KB, 128 * KB]
    mechanisms = mechanisms if mechanisms is not None else WRITE_MECHANISMS
    points = []
    for name, mech in mechanisms.items():
        for nbytes in sizes:
            machine = _bulk_machine(nbytes, _WRITE_BUFFERS)
            points.append(_bulk_write_point(machine, name, mech, nbytes,
                                            source_cached))
            machine.release()
    return points


# ----------------------------------------------------------------------
# Hazard probes (sections 3.4, 4.3, 4.4)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HazardReport:
    """Outcome of a semantic-hazard demonstration."""

    hazard_observed: bool
    detail: str


def synonym_hazard_probe() -> HazardReport:
    """Section 3.4: configure two Annex entries for one processor,
    write through one, read through the other before the write buffer
    drains — the read returns stale data."""
    machine = _fresh_pair()
    node0 = machine.node(0)
    # Two Annex entries naming the same processor: every offset now has
    # two physical spellings.  (Entry 0 is hard-wired local; entries 1
    # and 2 name the local PE explicitly.)
    node0.annex.set_entry(1, 0)
    node0.annex.set_entry(2, 0)
    assert 0 in node0.annex.synonym_groups()
    node0.memsys.memory.store(0x100, "old")
    addr_via_1 = node0.annex.compose_address(1, 0x100)
    addr_via_2 = node0.annex.compose_address(2, 0x100)
    # The write sits in the write buffer tagged with entry 1's physical
    # address...
    now = node0.memsys.write(0.0, addr_via_1, "new")
    # ...and an immediate read through entry 2 misses the buffer.
    _, seen = node0.memsys.read(now, addr_via_2)
    stale = seen == "old"
    # A memory barrier repairs it.
    done = node0.memsys.memory_barrier(now + 1)
    _, after = node0.memsys.read(done, addr_via_2)
    return HazardReport(
        hazard_observed=stale and after == "new",
        detail=f"read through synonym saw {seen!r}; after mb saw {after!r}")


def status_bit_hazard_probe() -> HazardReport:
    """Section 4.3: polling the remote-write status bit without a
    memory barrier reports completion while the write is buffered."""
    machine = _fresh_pair()
    node0 = machine.node(0)
    full = node0.annex.compose_address(1, 0x200)
    t = node0.remote.store(0.0, 1, 0x200, 1, full)
    premature = node0.remote.status_says_complete(t)
    t = node0.memsys.memory_barrier(t)
    honest = not node0.remote.status_says_complete(t)
    return HazardReport(
        hazard_observed=premature and honest,
        detail=f"pre-mb poll said complete={premature}, "
               f"post-mb poll said complete={not honest}")


def stale_cached_read_probe() -> HazardReport:
    """Section 4.4: cached remote reads are not kept coherent."""
    machine = _fresh_pair()
    node0 = machine.node(0)
    target = machine.node(1).memsys.memory
    target.store(0x300, "v1")
    full = node0.annex.compose_address(1, 0x300)
    node0.remote.cached_read(0.0, 1, 0x300, full)
    target.store(0x300, "v2")
    _, seen = node0.remote.cached_read(500.0, 1, 0x300, full)
    node0.remote.invalidate_cached_line(full)
    _, fresh = node0.remote.cached_read(1_000.0, 1, 0x300, full)
    return HazardReport(
        hazard_observed=(seen == "v1" and fresh == "v2"),
        detail=f"cached read saw {seen!r} after owner wrote 'v2'; "
               f"flush+re-read saw {fresh!r}")


# ----------------------------------------------------------------------
# Scalars: headline costs, hop latency, streaming bandwidth
# ----------------------------------------------------------------------

def network_hop_probe(shape=(8, 1, 1)) -> list[tuple[int, float]]:
    """Section 4.2: added read latency per extra network hop."""
    from repro.params import t3d_machine_params
    machine = Machine(t3d_machine_params(shape))
    node0 = machine.node(0)
    out = []
    for target in range(1, machine.num_nodes // 2 + 1):
        machine.reset()
        machine.node(target).memsys.dram.access(0)  # open row
        cycles, _ = node0.remote.uncached_read(0.0, target, 8)
        out.append((machine.hops(0, target), cycles))
    return out


def streaming_bandwidth_probe(memsys: MemorySystem,
                              nbytes: int = 256 * KB) -> float:
    """Section 2.2: sequential-read bandwidth out of main memory.

    The stimulus is one cold pass of word-stride reads: Figure 1's
    stride probe at a single point, planned like its points
    (:func:`_local_read_sweep`).
    """
    spec = PointSpec(nbytes, WORD_BYTES, nbytes // WORD_BYTES)
    point = run_stride_point(
        memsys.read_cycles, spec, warmup_passes=0, measure_passes=1,
        reset_fn=memsys.reset, sweep_fn=_local_read_sweep(memsys))
    return mb_per_s(nbytes, point.avg_cycles * point.accesses)


def measure_headlines(machine: Machine | None = None) -> dict:
    """All headline scalar costs, as a name -> cycles mapping.

    This is the measurement record the "compiler"
    (:func:`repro.splitc.codegen.derive_plan`) consumes.
    """
    machine = machine if machine is not None else _fresh_pair()
    node0 = machine.node(0)
    machine.node(1).memsys.dram.access(0x1000)

    headlines = {}
    headlines["annex_update"] = node0.annex.set_entry(1, 1)
    cycles, _ = node0.remote.uncached_read(10_000.0, 1, 0x1008)
    headlines["uncached_read"] = cycles
    full = node0.annex.compose_address(1, 0x2008)
    machine.node(1).memsys.dram.access(0x2000)
    cycles, _ = node0.remote.cached_read(20_000.0, 1, 0x2008, full)
    headlines["cached_read"] = cycles
    machine.node(1).memsys.dram.access(0x3000)
    full = node0.annex.compose_address(1, 0x3008)
    headlines["blocking_write"] = node0.remote.blocking_write(
        30_000.0, 1, 0x3008, 0, full)

    sc = SplitC(machine.make_contexts()[0])
    sc.ctx.clock = 40_000.0
    machine.node(1).memsys.dram.access(0x4000)
    before = sc.ctx.clock
    sc.read(GlobalPtr(1, 0x4008))
    headlines["splitc_read"] = sc.ctx.clock - before
    machine.node(1).memsys.dram.access(0x5000)
    before = sc.ctx.clock
    sc.write(GlobalPtr(1, 0x5008), 0)
    headlines["splitc_write"] = sc.ctx.clock - before

    # Steady-state put cost (32 puts, skip warm-up).
    costs = []
    for i in range(32):
        before = sc.ctx.clock
        sc.put(GlobalPtr(1, 0x6000 + i * 32), 0)
        costs.append(sc.ctx.clock - before)
    headlines["splitc_put"] = sum(costs[8:]) / len(costs[8:])

    # Prefetch cost breakdown (section 5.2 table).
    pf = node0.prefetch.params
    headlines["prefetch_issue"] = pf.issue_cycles
    headlines["prefetch_round_trip"] = pf.round_trip_cycles
    headlines["prefetch_pop"] = pf.pop_cycles
    headlines["memory_barrier"] = node0.alpha.memory_barrier()
    group16 = prefetch_group_probe(groups=[16])[0]
    headlines["prefetch_per_element_16"] = group16.cycles_per_element

    # Messages and atomics (section 7).
    headlines["message_send"] = node0.msgq.send(0.0, 1, (1, 2, 3, 4))
    cycles, _ = machine.node(1).msgq.receive(10_000.0)
    headlines["message_interrupt"] = cycles
    node0.msgq.send(0.0, 1, (1,))
    cycles, _ = machine.node(1).msgq.receive(10_000.0, via_handler=True)
    headlines["message_handler"] = cycles
    cycles, _ = node0.atomics.fetch_increment(0.0, 1, 0)
    headlines["fetch_increment"] = cycles
    return headlines
