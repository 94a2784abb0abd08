"""The block-transfer engine (paper section 6.2).

A system-level DMA device that moves large blocks of contiguous or
strided data between a local and a remote memory.  Its fatal flaw — the
reason the paper relegates it to transfers above ~16 KB — is that it is
reachable only through an operating-system call costing about 180
microseconds (27,000 cycles).  Once running it streams at roughly
140 MB/s, the highest rate of any mechanism.

Transfers can be started non-blocking (the initiation cost is charged,
the data flight proceeds in the background) and awaited later; the
blocking forms wait for completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import tiers
from repro.params import BltParams, LOCAL_ADDR_MASK, WORD_BYTES
from repro.trace import tracer as _trace

__all__ = ["BlockTransferEngine", "BltTransfer"]


@dataclass
class BltTransfer:
    """Handle to an in-flight BLT operation."""

    completion_time: float
    nbytes: int
    direction: str            # "read" or "write"


class BlockTransferEngine:
    """Per-node BLT front-end."""

    def __init__(self, params: BltParams, my_pe: int, fabric):
        self.params = params
        self.my_pe = my_pe
        self.fabric = fabric
        self.transfers_started = 0
        self.bytes_moved = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("blt", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"transfers_started": self.transfers_started,
                "bytes_moved": self.bytes_moved}

    def _words(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        return -(-nbytes // WORD_BYTES)

    def _start(self, now: float, nbytes: int, strided: bool,
               direction: str = "read") -> tuple[float, float]:
        """Common initiation: returns (cpu cycles, completion time)."""
        self.transfers_started += 1
        initiate = self.params.startup_cycles
        if strided:
            initiate += self.params.stride_setup_cycles
        per_word = (self.params.cycles_per_word if direction == "read"
                    else self.params.write_cycles_per_word)
        completion = now + initiate + self._words(nbytes) * per_word
        self.bytes_moved += nbytes
        if _trace.TRACE_ENABLED:
            _trace.emit("blt_setup", t=now, pe=self.my_pe,
                        direction=direction, nbytes=nbytes,
                        strided=strided, cycles=initiate)
            _trace.emit("blt_stream", t=now + initiate, pe=self.my_pe,
                        direction=direction, nbytes=nbytes,
                        completion=completion)
        return initiate, completion

    def _gather(self, src_mem, src_offset: int, step: int,
                nwords: int, fast: bool) -> list:
        """Load the source words of a transfer in one batched call.

        Batched iff ``fast`` and the whole masked source range fits
        below the local address mask, where ``(base + i*step) & MASK ==
        (base & MASK) + i*step`` holds per element; the per-word
        reference loop covers the (never seen in practice) wrapping
        case and :func:`repro.tiers.reference` runs.
        """
        base = src_offset & LOCAL_ADDR_MASK
        if fast and base + (nwords - 1) * step <= LOCAL_ADDR_MASK:
            if step == WORD_BYTES:
                return src_mem.load_range(base, nwords)
            return src_mem.load_stride(base, step, nwords)
        return [src_mem.load((src_offset + i * step) & LOCAL_ADDR_MASK)
                for i in range(nwords)]

    def start_read(self, now: float, src_pe: int, src_offset: int,
                   dst_offset: int, nbytes: int,
                   stride_bytes: int | None = None) -> tuple[float, BltTransfer]:
        """DMA ``nbytes`` from ``src_pe``'s memory into local memory.

        Returns ``(cpu_cycles_for_initiation, transfer_handle)``; the
        copy is applied immediately (visible at ``completion_time`` in
        simulated time).
        """
        strided = stride_bytes is not None and stride_bytes != WORD_BYTES
        initiate, completion = self._start(now, nbytes, strided)
        fast = tiers.fast()
        src_mem = self.fabric.node(src_pe).memsys.memory
        dst_mem = self.fabric.node(self.my_pe).memsys.memory
        step = stride_bytes if stride_bytes else WORD_BYTES
        nwords = self._words(nbytes)
        dst_base = dst_offset & LOCAL_ADDR_MASK
        if (fast and step == WORD_BYTES
                and (src_offset & LOCAL_ADDR_MASK) + (nwords - 1) * step
                <= LOCAL_ADDR_MASK
                and dst_base + (nwords - 1) * WORD_BYTES <= LOCAL_ADDR_MASK
                and dst_mem.move_range(dst_base, src_mem,
                                       src_offset & LOCAL_ADDR_MASK,
                                       nwords)):
            # Segment-to-segment: one typed slice assignment, no
            # intermediate Python list.
            return initiate, BltTransfer(completion, nbytes, "read")
        values = self._gather(src_mem, src_offset, step, nwords, fast)
        if fast and dst_base + (nwords - 1) * WORD_BYTES <= LOCAL_ADDR_MASK:
            dst_mem.store_range(dst_base, values)
        else:
            for i, value in enumerate(values):
                dst_mem.store((dst_offset + i * WORD_BYTES) & LOCAL_ADDR_MASK,
                              value)
        return initiate, BltTransfer(completion, nbytes, "read")

    def start_write(self, now: float, dst_pe: int, dst_offset: int,
                    src_offset: int, nbytes: int,
                    stride_bytes: int | None = None) -> tuple[float, BltTransfer]:
        """DMA ``nbytes`` from local memory into ``dst_pe``'s memory."""
        strided = stride_bytes is not None and stride_bytes != WORD_BYTES
        initiate, completion = self._start(now, nbytes, strided,
                                           direction="write")
        fast = tiers.fast()
        src_mem = self.fabric.node(self.my_pe).memsys.memory
        dst_node = self.fabric.node(dst_pe)
        step = stride_bytes if stride_bytes else WORD_BYTES
        nwords = self._words(nbytes)
        dst_base = dst_offset & LOCAL_ADDR_MASK
        if (fast and step == WORD_BYTES
                and (src_offset & LOCAL_ADDR_MASK) + (nwords - 1) * step
                <= LOCAL_ADDR_MASK
                and dst_base + (nwords - 1) * WORD_BYTES <= LOCAL_ADDR_MASK
                and dst_node.memsys.memory.move_range(
                    dst_base, src_mem, src_offset & LOCAL_ADDR_MASK,
                    nwords)):
            # Segment-to-segment slice move; the cache-line drop below
            # matches the batched store path.
            dst_node.memsys.l1.invalidate_range(dst_base, nwords * WORD_BYTES)
            self.fabric.notify_store_arrival(
                src_pe=self.my_pe, dst_pe=dst_pe,
                nbytes=nwords * WORD_BYTES, arrival_time=completion,
                addr=dst_offset & LOCAL_ADDR_MASK,
            )
            return initiate, BltTransfer(completion, nbytes, "write")
        values = self._gather(src_mem, src_offset, step, nwords, fast)
        if fast and dst_base + (nwords - 1) * WORD_BYTES <= LOCAL_ADDR_MASK:
            # Stores don't read the cache, so committing all words and
            # then dropping the covered lines is the same end state as
            # the per-word store/invalidate interleave.
            dst_node.memsys.memory.store_range(dst_base, values)
            dst_node.memsys.l1.invalidate_range(dst_base, nwords * WORD_BYTES)
        else:
            for i, value in enumerate(values):
                dst = (dst_offset + i * WORD_BYTES) & LOCAL_ADDR_MASK
                dst_node.memsys.memory.store(dst, value)
                dst_node.memsys.l1.invalidate(dst)
        self.fabric.notify_store_arrival(
            src_pe=self.my_pe, dst_pe=dst_pe,
            nbytes=nwords * WORD_BYTES, arrival_time=completion,
            addr=dst_offset & LOCAL_ADDR_MASK,
        )
        return initiate, BltTransfer(completion, nbytes, "write")

    def wait(self, now: float, transfer: BltTransfer) -> float:
        """Block until a transfer completes; returns the new time."""
        return max(now, transfer.completion_time)

    def read_blocking(self, now: float, src_pe: int, src_offset: int,
                      dst_offset: int, nbytes: int,
                      stride_bytes: int | None = None) -> float:
        """Blocking bulk read; returns total cycles."""
        initiate, transfer = self.start_read(
            now, src_pe, src_offset, dst_offset, nbytes, stride_bytes)
        return self.wait(now + initiate, transfer) - now

    def write_blocking(self, now: float, dst_pe: int, dst_offset: int,
                       src_offset: int, nbytes: int,
                       stride_bytes: int | None = None) -> float:
        """Blocking bulk write; returns total cycles."""
        initiate, transfer = self.start_write(
            now, dst_pe, dst_offset, src_offset, nbytes, stride_bytes)
        return self.wait(now + initiate, transfer) - now
