"""Page-mode DRAM model with bank interleaving.

The T3D node memory (section 2.2 of the paper) is organized as four
banks interleaved on 16 KB boundaries.  Each bank keeps one DRAM row
("page") open; an access to a different row pays an off-page penalty
(+9 cycles, ~60 ns), and back-to-back accesses to the *same* bank that
also change rows expose the full memory-cycle time (40 cycles total,
~264 ns) because row precharge cannot overlap a different bank's work.

The stride probes of Figure 1 recover exactly these parameters:

* strides >= 16 KB touch a new row on every access (+9 cycles);
* a 64 KB stride revisits the same bank every time (40 cycles total).
"""

from __future__ import annotations

import numpy as _np

from repro.node.exact import on_grid
from repro.params import DramParams
from repro.trace import tracer as _trace
from repro.vector import kernels as _vk

__all__ = ["Dram"]


class Dram:
    """Stateful latency model of one node's DRAM.

    The model tracks, per bank, which row is open, plus which bank the
    previous access used.  It is purely a timing model; data storage
    lives in :class:`repro.machine.node.NodeMemory`.
    """

    def __init__(self, params: DramParams):
        self.params = params
        self._interleave = params.bank_interleave_bytes
        self._banks = params.banks
        self._page_bytes = params.page_bytes
        self._access_cycles = params.access_cycles
        self._open_row: list[int] = [-1] * params.banks
        self._last_bank: int = -1
        # Counters for tests and the gray-box analyzer's ground truth.
        self.accesses = 0
        self.row_misses = 0
        self.same_bank_conflicts = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("dram", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"accesses": self.accesses,
                "row_misses": self.row_misses,
                "same_bank_conflicts": self.same_bank_conflicts}

    def reset(self) -> None:
        """Forget all open rows and history (e.g. between probe runs)."""
        self._open_row[:] = [-1] * self.params.banks
        self._last_bank = -1
        self.accesses = 0
        self.row_misses = 0
        self.same_bank_conflicts = 0

    def bank_of(self, addr: int) -> int:
        """Bank index for a physical address (16 KB interleave)."""
        return (addr // self.params.bank_interleave_bytes) % self.params.banks

    def within_bank_offset(self, addr: int) -> int:
        """Compact within-bank offset of an address.

        With interleave ``I`` and ``B`` banks, consecutive ``I``-byte
        blocks round-robin over banks, so block ``k`` is the
        ``k // B``-th block of its bank.
        """
        p = self.params
        block = addr // p.bank_interleave_bytes
        return (block // p.banks) * p.bank_interleave_bytes + (
            addr % p.bank_interleave_bytes
        )

    def access(self, addr: int) -> float:
        """Perform one access; return its latency in cycles.

        The latency is the full memory access time plus the off-page
        penalty when the bank's open row changes, plus the same-bank
        penalty when the row change happens on the bank used by the
        immediately preceding access.
        """
        p = self.params
        return self.access_with(addr, p.off_page_cycles, p.same_bank_cycles)

    def access_with(self, addr: int, off_page_cycles: float,
                    same_bank_cycles: float) -> float:
        """Access with caller-supplied penalties.

        The remote-access path uses this: the paper measures a larger
        off-page penalty through the remote memory controller (~15
        cycles, section 4.2) than locally (~9 cycles, section 2.2).
        """
        interleave = self._interleave
        block = addr // interleave
        bank = block % self._banks
        row = ((block // self._banks) * interleave
               + addr % interleave) // self._page_bytes
        cycles = self._access_cycles
        self.accesses += 1
        if self._open_row[bank] != row:
            self.row_misses += 1
            cycles += off_page_cycles
            if bank == self._last_bank:
                self.same_bank_conflicts += 1
                cycles += same_bank_cycles
            self._open_row[bank] = row
        self._last_bank = bank
        return cycles

    def plan_access(self, addrs, off_page_cycles: float,
                    same_bank_cycles: float):
        """:meth:`access_with` over ``addrs`` (an int64 numpy array or a
        ``range``), batched: returns ``(costs, commit)``, or None when a
        cost could leave the exactness grid.

        ``costs`` holds each access's cycles; nothing changes until
        ``commit()`` installs the open rows, last bank and counters the
        per-access loop leaves (:func:`repro.vector.kernels.dram_row_events`,
        run a piece at a time from the current state).
        """
        if not all(on_grid(x) for x in (
                self._access_cycles, off_page_cycles, same_bank_cycles)):
            return None
        open_rows = _np.array(self._open_row, dtype=_np.int64)
        last_bank = self._last_bank
        costs = _np.empty(len(addrs))
        misses = conflicts = 0
        for start, piece in _vk.chunks(addrs):
            bank, miss, conflict = _vk.dram_row_events(
                piece, interleave=self._interleave, banks=self._banks,
                page_bytes=self._page_bytes, open_rows=open_rows,
                last_bank=last_bank)
            costs[start:start + len(piece)] = (
                self._access_cycles + miss * off_page_cycles
                + conflict * same_bank_cycles)
            last_bank = int(bank[-1])
            misses += int(miss.sum())
            conflicts += int(conflict.sum())
        rows = open_rows.tolist()
        naccesses = len(costs)

        def commit():
            self._open_row[:] = rows
            self._last_bank = last_bank
            self.accesses += naccesses
            self.row_misses += misses
            self.same_bank_conflicts += conflicts

        return costs, commit

    def peek_after(self, addrs, counts, queries, off_page_cycles: float,
                   same_bank_cycles: float):
        """:meth:`peek_access_with` of each of ``queries`` as it would
        read once :meth:`access_with` had run over ``addrs[:counts[k]]``
        from the current state, for every ``k``; nothing changes.
        ``addrs`` and ``queries`` are int64 numpy arrays, ``counts`` an
        int array of values in ``0 .. len(addrs)``.

        That state's open row in a bank is the row of the last of those
        accesses to the bank (the current one if none), and its last
        bank is access ``counts[k] - 1``'s: one ``searchsorted`` over
        the accesses ordered by bank, then position, finds the former
        for every query at once.
        """
        geometry = dict(interleave=self._interleave, banks=self._banks,
                        page_bytes=self._page_bytes)
        qbank, qrow = _vk.dram_bank_row(queries, **geometry)
        open_row = _np.array(self._open_row, dtype=_np.int64)[qbank]
        last = self._last_bank
        if len(addrs):
            bank, row = _vk.dram_bank_row(addrs, **geometry)
            span = len(addrs) + 1
            order = _np.argsort(bank, kind="stable")
            at = _np.searchsorted(bank[order] * span + order,
                                  qbank * span + counts) - 1
            seen = order[_np.maximum(at, 0)]
            open_row = _np.where((at >= 0) & (bank[seen] == qbank),
                                 row[seen], open_row)
            last = _np.where(counts > 0, bank[_np.maximum(counts - 1, 0)],
                             last)
        miss = open_row != qrow
        return (self._access_cycles + miss * off_page_cycles
                + (miss & (qbank == last)) * same_bank_cycles)

    def peek_access_cycles(self, addr: int) -> float:
        """Latency the next access to ``addr`` would cost, without
        changing any state.  Used by drain schedulers that need a cost
        estimate before committing."""
        p = self.params
        return self.peek_access_with(addr, p.off_page_cycles,
                                     p.same_bank_cycles)

    def peek_access_with(self, addr: int, off_page_cycles: float,
                         same_bank_cycles: float) -> float:
        """Non-mutating :meth:`access_with`: the cost the next access
        would pay under caller-supplied penalties."""
        interleave = self._interleave
        block = addr // interleave
        bank = block % self._banks
        row = ((block // self._banks) * interleave
               + addr % interleave) // self._page_bytes
        cycles = self._access_cycles
        if self._open_row[bank] != row:
            cycles += off_page_cycles
            if bank == self._last_bank:
                cycles += same_bank_cycles
        return cycles
