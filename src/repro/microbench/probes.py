"""The probe suite (paper sections 2, 4, 5, 6, plus hazard probes).

Each probe drives the simulated hardware exactly the way the paper's
assembly probes drove the real machine, and returns either latency
curves (:class:`~repro.microbench.harness.LatencyCurves`), bandwidth
tables, or — for the semantic-hazard probes — a demonstration record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.machine import Machine
from repro.microbench.harness import LatencyCurves, run_stride_probe
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

    Runs each point through the vectorized tier
    (:func:`repro.vector.stride_sweep_fn`, exactly equivalent to the
    per-access loop) when it is on and claims the point, else the
    reference loop, and memoizes points by the machine's parameters;
    pass ``sweep_fn=None`` / ``memo_key=None`` to force the reference
    per-access path.
    """
    kwargs.setdefault("sweep_fn", _vector.stride_sweep_fn(
        "local_read", node_params=memsys.params))
    kwargs.setdefault("memo_key", ("local_read", memsys.params))
    return run_stride_probe(
        memsys.read_cycles, reset_fn=memsys.reset, **kwargs)


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


def remote_read_probe(machine: Machine | None = None,
                      mechanism: str = "uncached", **kwargs) -> LatencyCurves:
    """Figure 4: remote read latency profile.

    ``mechanism`` is ``"uncached"``, ``"cached"``, or ``"splitc"`` (the
    full Split-C read including annex set-up and checks).
    """
    machine = machine if machine is not None else _fresh_pair()
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

    kwargs.setdefault("sweep_fn", _vector.stride_sweep_fn(
        "remote_read", machine=machine, mechanism=mechanism,
        splitc=sc if mechanism == "splitc" else None))
    kwargs.setdefault("memo_key", ("remote_read", mechanism, machine.params))
    return run_stride_probe(access, reset_fn=reset, **kwargs)


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


def bulk_read_bandwidth_probe(sizes=None, mechanisms=None) -> list[BandwidthPoint]:
    """Figure 8 (left): bulk read bandwidth per mechanism and size."""
    sizes = sizes if sizes is not None else [
        8, 32, 128, 512, 2 * KB, 8 * KB, 32 * KB, 128 * KB]
    mechanisms = mechanisms if mechanisms is not None else READ_MECHANISMS
    points = []
    for name, mech in mechanisms.items():
        for nbytes in sizes:
            machine = _fresh_pair()
            sc = SplitC(machine.make_contexts()[0])
            before = sc.ctx.clock
            if name == "splitc":
                sc.bulk_read(0x400000, GlobalPtr(1, 0), nbytes)
            else:
                mech(sc, 0x400000, GlobalPtr(1, 0), nbytes)
            points.append(BandwidthPoint(
                name, nbytes, mb_per_s(nbytes, sc.ctx.clock - before)))
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
            machine = _fresh_pair()
            sc = SplitC(machine.make_contexts()[0])
            if source_cached:
                for i in range(0, min(nbytes, 8 * KB), WORD_BYTES):
                    sc.ctx.local_read(i)
            before = sc.ctx.clock
            if name == "splitc":
                sc.bulk_write(GlobalPtr(1, 0x400000), 0, nbytes)
            else:
                mech(sc, GlobalPtr(1, 0x400000), 0, nbytes)
            points.append(BandwidthPoint(
                name, nbytes, mb_per_s(nbytes, sc.ctx.clock - before)))
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

    The vectorized tier computes the whole cold pass analytically
    (:func:`repro.vector.streaming_read_total`, bit-identical); the
    reference loop runs when the tier is off or declines the stimulus.
    """
    memsys.reset()
    total = _vector.streaming_read_total(memsys.params, nbytes)
    if total is None:
        now = 0.0
        total = 0.0
        for addr in range(0, nbytes, WORD_BYTES):
            cycles = memsys.read_cycles(now, addr)
            total += cycles
            now += cycles
    return mb_per_s(nbytes, total)


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
