"""The DTB Annex: external segment registers (paper section 3.2).

The 21064 can only address 4 GB physically — far too little for a
2,048-node machine — so the T3D shell performs a second level of
address translation through 32 "Annex" registers.  Five bits of every
physical address select an Annex entry; the entry supplies the remote
processor number and a function code (cached vs. uncached access).
Entry 0 always names the local processor.  Updating an entry uses the
(repurposed) load-locked/store-conditional instructions and costs a
full off-chip access, measured at 23 cycles.

Because the Annex translates *physical* addresses, two entries naming
the same processor create **synonyms**: distinct physical addresses
for the same memory location.  :meth:`DtbAnnex.synonym_groups` exposes
them; the write-buffer consequences are demonstrated in the probe
suite (section 3.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.params import ANNEX_BIT_SHIFT, AnnexParams, LOCAL_ADDR_MASK
from repro.trace import tracer as _trace

__all__ = ["AnnexEntry", "DtbAnnex", "ReadMode"]


class ReadMode(enum.Enum):
    """Function code in an Annex entry selecting the remote-read type
    (section 4.2)."""

    UNCACHED = "uncached"
    CACHED = "cached"


@dataclass(frozen=True)
class AnnexEntry:
    """One Annex register: target processor + function code."""

    pe: int
    mode: ReadMode = ReadMode.UNCACHED


class DtbAnnex:
    """The per-node bank of 32 Annex registers."""

    def __init__(self, params: AnnexParams, my_pe: int):
        self.params = params
        self.my_pe = my_pe
        self._entries: list[AnnexEntry] = [
            AnnexEntry(pe=my_pe) for _ in range(params.entries)
        ]
        self.updates = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("annex", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"updates": self.updates}

    def entry(self, index: int) -> AnnexEntry:
        self._check_index(index)
        return self._entries[index]

    def set_entry(self, index: int, pe: int,
                  mode: ReadMode = ReadMode.UNCACHED) -> float:
        """Write an Annex register; returns the 23-cycle update cost.

        Entry 0 is hard-wired to the local processor (section 3.2).
        """
        self._check_index(index)
        if index == 0:
            raise ValueError("annex entry 0 always refers to the local PE")
        entry = self._entries[index]
        if entry.pe != pe or entry.mode is not mode:
            self._entries[index] = AnnexEntry(pe=pe, mode=mode)
        self.updates += 1
        if _trace.TRACE_ENABLED:
            # The Annex has no clock of its own; the event is untimed.
            _trace.emit("annex_update", pe=self.my_pe, index=index,
                        target=pe, mode=mode.value)
        return self.params.update_cycles

    def compose_address(self, index: int, offset: int) -> int:
        """Build the physical address selecting Annex ``index`` for a
        local offset — the address a compiled remote access issues."""
        self._check_index(index)
        if not 0 <= offset <= LOCAL_ADDR_MASK:
            raise ValueError(f"offset {offset:#x} outside segment reach")
        return (index << ANNEX_BIT_SHIFT) | offset

    def decompose_address(self, addr: int) -> tuple[int, int]:
        """Split a physical address into (annex index, local offset)."""
        index = addr >> ANNEX_BIT_SHIFT
        self._check_index(index)
        return index, addr & LOCAL_ADDR_MASK

    def resolve(self, addr: int) -> tuple[AnnexEntry, int]:
        """Annex translation: the entry and local offset of an address."""
        index, offset = self.decompose_address(addr)
        return self._entries[index], offset

    def synonym_groups(self) -> dict[int, list[int]]:
        """Processor number -> Annex indices currently naming it, for
        every processor named by more than one entry.

        Non-empty groups are exactly the configurations in which the
        write-buffer synonym hazard of section 3.4 can strike.
        """
        by_pe: dict[int, list[int]] = {}
        for index, entry in enumerate(self._entries):
            by_pe.setdefault(entry.pe, []).append(index)
        return {pe: idxs for pe, idxs in by_pe.items() if len(idxs) > 1}

    def find_entry_for(self, pe: int) -> int | None:
        """Lowest Annex index currently naming ``pe``, if any."""
        for index, entry in enumerate(self._entries):
            if entry.pe == pe:
                return index
        return None

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.params.entries:
            raise ValueError(
                f"annex index {index} outside [0, {self.params.entries})"
            )
