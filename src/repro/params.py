"""Calibrated machine parameters for the CRAY-T3D performance model.

Every constant in this module is taken from, or calibrated against, the
measurements published in:

    Arpaci, Culler, Krishnamurthy, Steinberg, Yelick.
    "Empirical Evaluation of the CRAY-T3D: A Compiler Perspective."
    ISCA 1995.

The paper reports both *structural* facts (cache geometry, queue depths,
DRAM bank count) and *measured* costs (latencies in cycles at 150 MHz).
Structural facts parameterize the stateful models in :mod:`repro.node`,
:mod:`repro.shell` and :mod:`repro.network`; measured costs calibrate the
path constants the paper itself does not decompose (e.g. shell request
processing overhead).  Each field's docstring comment cites the paper
section the number comes from.

The module deliberately contains *no behaviour*: it is a single place to
read, audit, and override the calibration.  All models accept a params
object so alternative machines (the DEC Alpha workstation of Figure 1,
hypothetical design ablations) are just alternative parameter values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = [
    "CLOCK_MHZ",
    "CYCLE_NS",
    "WORD_BYTES",
    "LINE_BYTES",
    "ANNEX_BIT_SHIFT",
    "LOCAL_ADDR_MASK",
    "CacheParams",
    "WriteBufferParams",
    "DramParams",
    "TlbParams",
    "AlphaParams",
    "NodeParams",
    "NetworkParams",
    "AnnexParams",
    "RemoteAccessParams",
    "PrefetchParams",
    "BltParams",
    "MessageQueueParams",
    "AtomicParams",
    "BarrierParams",
    "ShellParams",
    "MachineParams",
    "describe",
    "t3d_node_params",
    "workstation_node_params",
    "t3d_machine_params",
    "ns_to_cycles",
    "cycles_to_ns",
    "cycles_to_us",
    "mb_per_s",
]

#: Alpha 21064 clock rate on the T3D (section 1.2).
CLOCK_MHZ = 150.0

#: One processor cycle in nanoseconds (6.67 ns, section 2.2).
CYCLE_NS = 1000.0 / CLOCK_MHZ

#: The Alpha operates on 64-bit words (section 1.2).
WORD_BYTES = 8

#: Cache-line size of the 21064 on-chip caches (section 1.2).
LINE_BYTES = 32

#: Bit position where the DTB Annex index is carried in a "physical"
#: address (section 3.2: the Annex index rides the high-order physical
#: address bits through translation).  Bits below this are the local
#: byte offset within the node; two addresses that differ only at or
#: above this bit are *synonyms* for the same memory location.
ANNEX_BIT_SHIFT = 32

#: Mask selecting the local-offset part of a physical address.
LOCAL_ADDR_MASK = (1 << ANNEX_BIT_SHIFT) - 1


def ns_to_cycles(ns: float) -> float:
    """Convert nanoseconds to 150 MHz cycles."""
    return ns / CYCLE_NS


def cycles_to_ns(cycles: float) -> float:
    """Convert 150 MHz cycles to nanoseconds."""
    return cycles * CYCLE_NS


def cycles_to_us(cycles: float) -> float:
    """Convert 150 MHz cycles to microseconds."""
    return cycles * CYCLE_NS / 1000.0


def mb_per_s(nbytes: int, cycles: float) -> float:
    """Bandwidth in MB/s for ``nbytes`` moved in ``cycles`` cycles."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    seconds = cycles * CYCLE_NS * 1e-9
    return nbytes / seconds / 1e6


def _require_positive(params, *fields: str) -> None:
    """Reject a geometry whose size or count field is not positive."""
    for name in fields:
        if getattr(params, name) <= 0:
            raise ValueError(f"{type(params).__name__}.{name} must be > 0")


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level."""

    size_bytes: int = 8 * 1024        # 8 KB L1 data cache (section 1.2)
    line_bytes: int = LINE_BYTES      # 32-byte lines (section 1.2)
    associativity: int = 1            # direct mapped (inferred, section 2.2)
    hit_cycles: float = 1.0           # one access per cycle (section 2.2)
    #: Cost to flush one line, equal to an off-chip access (section 4.4).
    flush_line_cycles: float = 23.0
    #: Fixed cost of a whole-cache flush; cheaper than per-line flushes for
    #: large transfers (section 6.2, footnote 3).
    flush_all_cycles: float = 1024.0

    def __post_init__(self) -> None:
        _require_positive(self, "size_bytes", "line_bytes", "associativity")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must be a multiple of line * ways")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class WriteBufferParams:
    """The 21064 write buffer (section 2.3).

    Four line-granularity entries with write-merging.  The buffer drains
    to a pipelined memory port: with ``depth`` entries in flight the
    effective initiation interval is ``access_time / depth``, which is
    how the paper infers the depth (145 ns / 35 ns ~= 4).
    """

    entries: int = 4                  # inferred depth (section 2.3)
    issue_cycles: float = 3.0         # ~20 ns per merged write (section 2.3)
    merging: bool = True              # write-merging observed (section 2.3)

    def __post_init__(self) -> None:
        _require_positive(self, "entries")


@dataclass(frozen=True)
class DramParams:
    """Page-mode DRAM behind the node (section 2.2).

    The T3D node has four banks interleaved on 16 KB boundaries; strides
    of 16 KB or more touch a new DRAM page on every access (+9 cycles)
    and a 64 KB stride hits the same bank every time, exposing the full
    memory-cycle time (40 cycles total).
    """

    access_cycles: float = 22.0       # ~145 ns full access (section 2.2)
    banks: int = 4                    # four memory banks (section 2.2)
    bank_interleave_bytes: int = 16 * 1024
    #: DRAM row ("page") reach in within-bank address space.  16 KB makes
    #: every >=16 KB stride an off-page access, as measured.
    page_bytes: int = 16 * 1024
    off_page_cycles: float = 9.0      # +60 ns (section 2.2)
    #: Extra penalty when consecutive accesses hit the same busy bank;
    #: total worst case 22 + 9 + 9 = 40 cycles (section 2.2).
    same_bank_cycles: float = 9.0

    def __post_init__(self) -> None:
        _require_positive(self, "banks", "bank_interleave_bytes",
                          "page_bytes")


@dataclass(frozen=True)
class TlbParams:
    """Address-translation reach.

    The T3D uses huge pages, so its probes never expose TLB misses
    (section 2.2); the DEC workstation uses 8 KB pages and a finite TLB,
    producing the inflection at 8 KB strides in Figure 1.
    """

    entries: int = 32
    page_bytes: int = 8 * 1024
    miss_cycles: float = 0.0
    #: Huge-page machines are modeled as never missing.
    never_misses: bool = True

    def __post_init__(self) -> None:
        _require_positive(self, "entries", "page_bytes")


@dataclass(frozen=True)
class AlphaParams:
    """Core instruction-cost model for the 21064 (sections 1.2, 2)."""

    #: Cost of the memory-barrier instruction itself, excluding the time
    #: spent waiting for the write buffer to drain (section 5.2).
    memory_barrier_cycles: float = 4.0
    #: Register-to-register ALU / byte-manipulation op (dual issue).
    alu_cycles: float = 0.5
    #: A floating-point multiply-add pair as used by EM3D (section 8).
    flop_pair_cycles: float = 6.0
    #: Branch + loop bookkeeping for a compiled loop iteration.
    loop_overhead_cycles: float = 2.0
    #: Load-locked / store-conditional to an off-chip (shell) register,
    #: e.g. a DTB Annex update (section 3.2): 23 cycles.
    external_register_cycles: float = 23.0


@dataclass(frozen=True)
class NodeParams:
    """One node: Alpha core, caches, write buffer, DRAM, TLB."""

    name: str = "t3d-node"
    alpha: AlphaParams = field(default_factory=AlphaParams)
    l1: CacheParams = field(default_factory=CacheParams)
    #: The T3D has no L2 (section 2.2); the workstation variant sets one.
    l2: CacheParams | None = None
    write_buffer: WriteBufferParams = field(default_factory=WriteBufferParams)
    dram: DramParams = field(default_factory=DramParams)
    tlb: TlbParams = field(default_factory=TlbParams)


@dataclass(frozen=True)
class NetworkParams:
    """3D torus interconnect (sections 1.2, 4.2)."""

    shape: tuple[int, int, int] = (2, 2, 2)
    #: Measured 13-20 ns (2-3 cycles) per hop (section 4.2).
    hop_cycles: float = 2.5
    #: Network-interface occupancy to inject one packet (header + first
    #: payload word).
    packet_inject_cycles: float = 17.0
    #: Extra interface occupancy per additional 8-byte payload word in a
    #: multi-word packet (messages, AM deposits).
    per_extra_word_cycles: float = 12.0


@dataclass(frozen=True)
class AnnexParams:
    """DTB Annex external segment registers (section 3.2)."""

    entries: int = 32
    #: Update via store-conditional costs an off-chip access (section 3.2).
    update_cycles: float = 23.0
    #: Segment reach per Annex register: 32 regions of 128 MB (section 3.2).
    segment_bytes: int = 128 * 1024 * 1024
    #: Runtime Annex-table lookup: "a memory read and a branch"
    #: (section 3.4) — the reason multi-register management buys little
    #: over simply reloading a single register.
    table_lookup_cycles: float = 10.0

    def __post_init__(self) -> None:
        # Entry 0 is hard-wired to the local processor (section 3.2), so
        # a remote access needs at least register 1.
        if self.entries < 2:
            raise ValueError("AnnexParams.entries must be >= 2: entry 0 "
                             "is hard-wired to the local processor")


@dataclass(frozen=True)
class RemoteAccessParams:
    """Remote load/store path constants (sections 4, 5).

    The paper reports end-to-end latencies; the shell-processing
    components below are calibrated so the modeled totals for an
    adjacent node reproduce them:

    * uncached read  ~610 ns / 91 cycles   (section 4.2)
    * cached read    ~765 ns / 114 cycles  (section 4.2)
    * blocking write ~850 ns / 130 cycles  (section 4.3)
    """

    #: Shell + memory-controller processing for a remote read, excluding
    #: the target DRAM access (22 cycles) and network hops (2 x 2.5).
    read_overhead_cycles: float = 64.0
    #: Extra cost of a cached remote read: the reply carries a full
    #: 32-byte line and fills the local cache (114 - 91 = 23 cycles).
    cached_line_extra_cycles: float = 23.0
    #: Off-page penalty in the *remote* node's memory controller: the
    #: remote probes measure ~100 ns / 15 cycles (section 4.2), larger
    #: than the 9-cycle local penalty.
    remote_off_page_cycles: float = 15.0
    #: Shell processing on the acknowledged remote-write path, excluding
    #: store issue, memory barrier, write-buffer drain, hops and the
    #: remote DRAM access.  Calibrated to the 130-cycle blocking write.
    write_ack_overhead_cycles: float = 81.0
    #: Write-buffer drain cost for one remote-store line entry: the
    #: chip-boundary handoff plus packet injection.  With the 4-deep
    #: write buffer this pipelines to 68/4 = 17 cycles per non-merged
    #: store — exactly Figure 7's ~115 ns steady state — while merged
    #: (sub-line-stride) stores approach 17/4 cycles, reproducing the
    #: "similar to Figure 2" merging dip.
    store_drain_cycles: float = 68.0
    #: One read of the shell status register ("remote writes
    #: outstanding" bit) while polling for write acknowledgements.
    status_poll_cycles: float = 5.0
    #: Service occupancy of the *target's* network interface per
    #: arriving store packet.  Matches the injection rate, so a single
    #: sender never queues (all calibrated latencies are unchanged) —
    #: but many senders converging on one node serialize here, making
    #: incast congestion emergent.
    target_service_cycles: float = 17.0
    #: Bus interference charged per word when local memory reads stream
    #: concurrently with outgoing store packets ("apparently bus
    #: limited", section 6.2): line fills and packet injections share
    #: the node bus, capping memory-source bulk writes near 90 MB/s.
    bus_interference_cycles: float = 5.0
    #: Instruction overhead of the Split-C blocking read beyond annex
    #: setup + uncached read: 128 - (23 + 91) = 14 cycles (section 4.4).
    splitc_read_extra_cycles: float = 14.0
    #: Overlap between the annex update and the acknowledged-write path
    #: in the Split-C blocking write: the store-conditional that updates
    #: the Annex also serves part of the drain wait, so the total is
    #: 23 + 130 - 6 = 147 cycles as measured (section 4.4).
    splitc_write_overlap_cycles: float = 6.0
    #: Checks added by the Split-C put beyond the non-blocking store and
    #: annex management (pointer decompose, locality test, completion
    #: bookkeeping); calibrated so the put averages the measured ~45
    #: cycles / 300 ns (section 5.4, Figure 7): 23 (annex) + 3 (store
    #: issue) + 19 = 45.
    splitc_put_extra_cycles: float = 19.0


@dataclass(frozen=True)
class PrefetchParams:
    """Binding prefetch queue (section 5.2)."""

    queue_depth: int = 16             # 16-entry FIFO (section 5.2)
    issue_cycles: float = 4.0         # prefetch issue (section 5.2)
    round_trip_cycles: float = 80.0   # network + remote read (section 5.2)
    pop_cycles: float = 23.0          # memory-mapped load (section 5.2)
    #: A memory barrier must precede the pop when fewer than four
    #: prefetches have been issued (section 5.2).
    small_group_barrier_threshold: int = 4
    #: Split-C get: target-address table update + lookup (section 5.4).
    table_cycles: float = 10.0
    #: Split-C get: final store into the local target (section 5.4).
    local_store_cycles: float = 3.0

    def __post_init__(self) -> None:
        _require_positive(self, "queue_depth")


@dataclass(frozen=True)
class BltParams:
    """Block-transfer engine (section 6.2)."""

    #: OS-invocation start-up cost: 180 microseconds (section 6.3).
    startup_cycles: float = 27_000.0
    #: Peak read-transfer rate ~140 MB/s (section 6.2) => 8 bytes per
    #: ~57 ns => ~8.57 cycles per word.
    cycles_per_word: float = 8.57
    #: The write direction is slower: the engine's local-memory reads
    #: contend on the node bus exactly like the store path's do, and
    #: the paper finds non-blocking stores superior to the BLT for
    #: writes at *every* size (section 6.2) — which requires the BLT
    #: write rate to sit below the ~90 MB/s store ceiling.
    write_cycles_per_word: float = 13.5
    #: The BLT supports strided accesses (section 6.2); stride setup adds
    #: a small per-invocation cost.
    stride_setup_cycles: float = 200.0


@dataclass(frozen=True)
class MessageQueueParams:
    """User-level message send FIFO + interrupt-driven receive (7.3)."""

    words_per_message: int = 4
    send_cycles: float = 122.0        # 813 ns PAL send (section 7.3)
    #: Receiver-side interrupt cost: 25 us = 3750 cycles (section 7.3).
    interrupt_cycles: float = 3750.0
    #: Extra cost to switch into a user message handler: +33 us
    #: = 4950 cycles (section 7.3).
    handler_switch_cycles: float = 4950.0

    def __post_init__(self) -> None:
        _require_positive(self, "words_per_message")


@dataclass(frozen=True)
class AtomicParams:
    """Fetch&increment registers and atomic swap (section 7.4)."""

    registers_per_node: int = 2
    #: A remote fetch&increment costs about a remote read: ~1 us
    #: (section 7.4) => ~150 cycles.
    remote_cycles: float = 150.0
    #: Local access to the node's own shell registers (off-chip).
    local_cycles: float = 23.0
    #: Atomic swap between a shell register and memory, remote.
    swap_remote_cycles: float = 150.0

    def __post_init__(self) -> None:
        _require_positive(self, "registers_per_node")


@dataclass(frozen=True)
class AmParams:
    """Software Active Messages built on fetch&increment + stores
    (section 7.4).

    The paper measures depositing a 4-data-word + 1-control-word
    message into a remote queue at 2.9 us (~435 cycles) and receiving
    (dispatch + payload access) at 1.5 us (~225 cycles).  The hardware
    components (fetch&increment ~150 cycles, the stores ~17 cycles
    each) account for part of those; the software overheads below are
    calibrated to close the gap.
    """

    queue_slots: int = 64
    data_words: int = 4
    deposit_software_cycles: float = 245.0
    dispatch_software_cycles: float = 225.0

    def __post_init__(self) -> None:
        _require_positive(self, "queue_slots")
        if self.data_words < 0:
            raise ValueError("AmParams.data_words must be >= 0")


@dataclass(frozen=True)
class BarrierParams:
    """Global-OR/AND fuzzy barrier hardware (section 7.5).

    The paper calls the hardware barrier "extremely fast" but does not
    publish a latency; the wired-OR tree is documented elsewhere to
    settle in well under a microsecond.  We assume a small constant.
    """

    start_cycles: float = 5.0         # write the barrier-start bit
    propagate_cycles: float = 25.0    # wired-OR settle time (assumption)
    poll_cycles: float = 5.0          # read the barrier-state bit
    end_cycles: float = 5.0           # reset for reuse (end-barrier)


@dataclass(frozen=True)
class ShellParams:
    """All shell units of one node."""

    annex: AnnexParams = field(default_factory=AnnexParams)
    remote: RemoteAccessParams = field(default_factory=RemoteAccessParams)
    prefetch: PrefetchParams = field(default_factory=PrefetchParams)
    blt: BltParams = field(default_factory=BltParams)
    msgq: MessageQueueParams = field(default_factory=MessageQueueParams)
    atomics: AtomicParams = field(default_factory=AtomicParams)
    barrier: BarrierParams = field(default_factory=BarrierParams)
    am: AmParams = field(default_factory=AmParams)


@dataclass(frozen=True)
class MachineParams:
    """A whole T3D: nodes, shells, torus."""

    node: NodeParams = field(default_factory=NodeParams)
    shell: ShellParams = field(default_factory=ShellParams)
    network: NetworkParams = field(default_factory=NetworkParams)

    @property
    def num_nodes(self) -> int:
        x, y, z = self.network.shape
        return x * y * z


def t3d_node_params() -> NodeParams:
    """The CRAY-T3D node of section 2: no L2, huge pages."""
    return NodeParams(
        name="t3d-node",
        l2=None,
        tlb=TlbParams(never_misses=True),
    )


def workstation_node_params() -> NodeParams:
    """The DEC Alpha workstation of Figure 1 (right panel).

    Same 21064 core and L1, but: a 512 KB L2 cache, 8 KB pages with a
    finite TLB, and a slower main memory (~300 ns / 45 cycles, section
    2.2).  The paper notes that a workstation main-memory access
    including a TLB miss costs about 530 ns (610 - 80, section 4.2),
    implying a ~230 ns (~35 cycle) TLB-miss walk.
    """
    return NodeParams(
        name="alpha-workstation",
        l2=CacheParams(
            size_bytes=512 * 1024,
            line_bytes=LINE_BYTES,
            associativity=1,
            hit_cycles=10.0,
        ),
        dram=DramParams(
            access_cycles=45.0,       # ~300 ns (section 2.2)
            banks=2,
            bank_interleave_bytes=2 * 1024 * 1024,
            page_bytes=2 * 1024 * 1024,
            off_page_cycles=0.0,
            same_bank_cycles=0.0,
        ),
        tlb=TlbParams(
            entries=32,
            page_bytes=8 * 1024,
            miss_cycles=35.0,
            never_misses=False,
        ),
    )


def t3d_machine_params(shape: tuple[int, int, int] = (2, 2, 2)) -> MachineParams:
    """A full T3D with the given torus shape."""
    return MachineParams(
        node=t3d_node_params(),
        network=NetworkParams(shape=shape),
    )


def with_overrides(params, **changes):
    """Return a copy of a frozen params dataclass with fields replaced.

    Thin wrapper over :func:`dataclasses.replace`, exported for ablation
    studies (e.g. a prefetch queue of depth 8).
    """
    return dataclasses.replace(params, **changes)


def describe(machine: MachineParams) -> str:
    """A one-screen human summary of a machine configuration."""
    node = machine.node
    shell = machine.shell
    lines = [
        f"machine: {machine.num_nodes} x {node.name} on a "
        f"{machine.network.shape} torus "
        f"({machine.network.hop_cycles:g} cy/hop)",
        f"  core: {CLOCK_MHZ:g} MHz Alpha 21064 "
        f"({CYCLE_NS:.2f} ns/cycle)",
        f"  L1: {node.l1.size_bytes // 1024} KB, "
        f"{node.l1.line_bytes} B lines, "
        f"{node.l1.associativity}-way, "
        f"{node.l1.hit_cycles:g} cy hit",
    ]
    if node.l2 is not None:
        lines.append(
            f"  L2: {node.l2.size_bytes // 1024} KB, "
            f"{node.l2.hit_cycles:g} cy hit")
    else:
        lines.append("  L2: none")
    lines += [
        f"  DRAM: {node.dram.access_cycles:g} cy access, "
        f"{node.dram.banks} banks, "
        f"+{node.dram.off_page_cycles:g} cy off-page, "
        f"+{node.dram.same_bank_cycles:g} cy same-bank",
        f"  TLB: " + ("huge pages (never misses)"
                      if node.tlb.never_misses else
                      f"{node.tlb.entries} entries, "
                      f"{node.tlb.page_bytes // 1024} KB pages, "
                      f"+{node.tlb.miss_cycles:g} cy miss"),
        f"  write buffer: {node.write_buffer.entries} entries, "
        f"merging={'on' if node.write_buffer.merging else 'off'}",
        f"  shell: annex x{shell.annex.entries} "
        f"({shell.annex.update_cycles:g} cy update), "
        f"prefetch FIFO x{shell.prefetch.queue_depth}, "
        f"BLT startup {cycles_to_us(shell.blt.startup_cycles):g} us, "
        f"f&i x{shell.atomics.registers_per_node}",
    ]
    return "\n".join(lines)
