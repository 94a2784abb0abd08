"""Annex register management policies (paper section 3.4).

Every remote access must first place the destination processor in a
DTB Annex register.  The compiler's choices:

* :class:`SingleAnnexPolicy` — use one Annex register, reload it on
  every processor change (23 cycles), skip the reload when consecutive
  accesses target the same processor.  Immune to synonyms by
  construction.  **This is what the paper adopts.**
* :class:`MultiAnnexPolicy` — keep several registers live with a
  runtime table mapping processors to registers.  The table lookup
  itself costs a memory read and a branch (~10 cycles), so the saving
  over a 23-cycle reload is small — and any configuration in which two
  registers name one processor admits the write-buffer synonym hazard.

Accesses to the thread's own processor always resolve to Annex entry 0
(hard-wired local) at no cost.
"""

from __future__ import annotations

import numpy as np

from repro.shell.annex import DtbAnnex, ReadMode

__all__ = ["AnnexPolicy", "MultiAnnexPolicy", "OsManagedAnnexPolicy",
           "SingleAnnexPolicy"]


class AnnexPolicy:
    """Strategy interface: resolve a target PE to an Annex index."""

    #: Whether this policy can ever hold two entries naming one PE.
    synonym_risk = False

    def setup(self, annex: DtbAnnex, pe: int,
              mode: ReadMode = ReadMode.UNCACHED) -> tuple[int, float]:
        """Make some Annex entry name ``pe``; return (index, cycles)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget cached state (e.g. between benchmark runs)."""


class SingleAnnexPolicy(AnnexPolicy):
    """One Annex register, reloaded on access.

    By default the register is conservatively reloaded on *every*
    remote access — the measured Split-C costs (read 128 cycles, put 45
    cycles) include that reload, because in general the compiler cannot
    prove that consecutive accesses name the same processor.  With
    ``skip_when_unchanged=True`` the reload is skipped when the target
    matches the register's current contents, modeling the compiler
    optimization the paper mentions for statically-known sequences.
    """

    REGISTER = 1

    def __init__(self, skip_when_unchanged: bool = False):
        self.skip_when_unchanged = skip_when_unchanged
        self._current: tuple[int, ReadMode] | None = None

    def setup(self, annex: DtbAnnex, pe: int,
              mode: ReadMode = ReadMode.UNCACHED) -> tuple[int, float]:
        if pe == annex.my_pe and mode is ReadMode.UNCACHED:
            return 0, 0.0
        if self.skip_when_unchanged and self._current == (pe, mode):
            return self.REGISTER, 0.0
        cycles = annex.set_entry(self.REGISTER, pe, mode)
        self._current = (pe, mode)
        return self.REGISTER, cycles

    def plan(self, annex: DtbAnnex, pes):
        """:meth:`setup` of an uncached access to each of ``pes`` (an
        int64 numpy array of remote processors) in turn, changing
        nothing: returns each set-up's cycles and a ``commit()`` that
        leaves the register, its update count and this policy as the
        calls would."""
        reload = np.ones(len(pes), dtype=bool)
        if self.skip_when_unchanged:
            reload[0] = self._current != (int(pes[0]), ReadMode.UNCACHED)
            reload[1:] = pes[1:] != pes[:-1]
        reloads = int(reload.sum())

        def commit():
            if reloads:
                self._current = (int(pes[-1]), ReadMode.UNCACHED)
                annex.set_entry(self.REGISTER, *self._current)
                annex.updates += reloads - 1

        return np.where(reload, annex.params.update_cycles, 0.0), commit

    def reset(self) -> None:
        self._current = None


class OsManagedAnnexPolicy(AnnexPolicy):
    """The design alternative of section 3.2, footnote 2: truly global
    virtual addresses with the operating system managing the Annex
    transparently.

    Page tables associate addresses of currently-mapped remote
    processors with Annex indexes; touching an *unmapped* processor
    faults into the OS, which maps it (evicting another) at interrupt
    cost.  Steady-state accesses to mapped processors are free — no
    register manipulation at all — which is the design's appeal; the
    fault cost is why the paper's authors preferred explicit compiler
    management ("a fault would occur on reference to an un-mapped
    remote processor").

    Modeled fault cost: an OS interrupt, same order as the message-
    receive interrupt of section 7.3 (~25 microseconds).
    """

    synonym_risk = False          # the OS never double-maps a processor

    def __init__(self, num_registers: int = 31,
                 fault_cycles: float = 3_750.0):
        if num_registers < 1:
            raise ValueError("need at least one managed register")
        self.num_registers = num_registers
        self.fault_cycles = fault_cycles
        self._mapped: dict[int, int] = {}
        self._next_victim = 0
        self.faults = 0

    def setup(self, annex: DtbAnnex, pe: int,
              mode: ReadMode = ReadMode.UNCACHED) -> tuple[int, float]:
        if pe == annex.my_pe and mode is ReadMode.UNCACHED:
            return 0, 0.0
        index = self._mapped.get(pe)
        if index is not None and annex.entry(index).mode is mode:
            return index, 0.0                 # mapped: zero cost
        self.faults += 1
        index = 1 + (self._next_victim % self.num_registers)
        self._next_victim += 1
        for known_pe, known_index in list(self._mapped.items()):
            if known_index == index:
                del self._mapped[known_pe]
        annex.set_entry(index, pe, mode)      # done inside the fault
        self._mapped[pe] = index
        return index, self.fault_cycles

    def reset(self) -> None:
        self._mapped = {}
        self._next_victim = 0
        self.faults = 0


class MultiAnnexPolicy(AnnexPolicy):
    """Several Annex registers with a runtime processor->register table.

    Registers ``1..num_registers`` are managed with LRU-ish round-robin
    replacement.  Every access pays the table lookup; misses addition-
    ally pay the register update.  The policy never aliases two live
    registers to one processor, but the *mechanism* would allow it —
    which is exactly why the paper rejects compiler strategies that
    cannot prove distinctness (``synonym_risk``).
    """

    synonym_risk = True

    def __init__(self, num_registers: int = 4):
        if num_registers < 1:
            raise ValueError("need at least one managed register")
        self.num_registers = num_registers
        self._table: dict[int, int] = {}
        self._next_victim = 0

    def setup(self, annex: DtbAnnex, pe: int,
              mode: ReadMode = ReadMode.UNCACHED) -> tuple[int, float]:
        if pe == annex.my_pe and mode is ReadMode.UNCACHED:
            return 0, 0.0
        cycles = annex.params.table_lookup_cycles
        index = self._table.get(pe)
        if index is not None and annex.entry(index).mode is mode:
            return index, cycles
        index = 1 + (self._next_victim % self.num_registers)
        self._next_victim += 1
        for known_pe, known_index in list(self._table.items()):
            if known_index == index:
                del self._table[known_pe]
        cycles += annex.set_entry(index, pe, mode)
        self._table[pe] = index
        return index, cycles

    def reset(self) -> None:
        self._table = {}
        self._next_victim = 0
