"""Translation look-aside buffer model.

The paper's local-read probe (section 2.2) shows *no* TLB inflection on
the T3D — the designers used very large pages, so translations never
miss — while the DEC workstation's 8 KB pages produce a clear
inflection at an 8 KB stride in Figure 1.  Both behaviours fall out of
this fully-associative LRU model under the two parameterizations in
:mod:`repro.params`.
"""

from __future__ import annotations

from repro.params import TlbParams
from repro.trace import tracer as _trace

__all__ = ["Tlb"]


class Tlb:
    """Fully associative, LRU-replaced TLB timing model.

    Entries live in a plain insertion-ordered dict (oldest first), so a
    hit's LRU touch and a miss's eviction are both O(1).
    """

    def __init__(self, params: TlbParams):
        self.params = params
        self._never_misses = params.never_misses
        self._page_bytes = params.page_bytes
        self._capacity = params.entries
        self._miss_cycles = params.miss_cycles
        self._entries: dict[int, None] = {}
        self.hits = 0
        self.misses = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("tlb", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"hits": self.hits, "misses": self.misses}

    def reset(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def translate(self, addr: int) -> float:
        """Translate an access; return the cycles it adds (0 on a hit)."""
        if self._never_misses:
            return 0.0
        entries = self._entries
        page = addr // self._page_bytes
        if page in entries:
            self.hits += 1
            del entries[page]
            entries[page] = None
            return 0.0
        self.misses += 1
        if len(entries) >= self._capacity:
            del entries[next(iter(entries))]
        entries[page] = None
        return self._miss_cycles

    def plan_translate(self, addrs):
        """:meth:`translate` over ``addrs`` (an int64 numpy array or a
        ``range``), batched: ``(misses, commit)``, the positions of the
        accesses that miss, or None when the miss cost is off the
        exactness grid.  The LRU logic runs once per page run, on a copy
        of the entries: a run's later accesses hit the most recent
        entry, which leaves the order as it is.  Nothing changes until
        ``commit()``."""
        if self._never_misses:
            return [], lambda: None
        import numpy as np

        from repro.node.exact import on_grid
        from repro.vector.kernels import chunks

        if not on_grid(self._miss_cycles):
            return None
        entries = dict(self._entries)
        capacity = self._capacity
        missed = []
        last = next(reversed(entries), None)
        for start, piece in chunks(addrs):
            pages = piece // self._page_bytes
            runs = np.flatnonzero(np.diff(
                pages, prepend=pages[0] + 1 if last is None else last))
            for k, page in zip(runs.tolist(), pages[runs].tolist()):
                if page in entries:
                    del entries[page]
                else:
                    missed.append(start + k)
                    if len(entries) >= capacity:
                        del entries[next(iter(entries))]
                entries[page] = None
            last = int(pages[-1])

        def commit():
            self._entries = entries
            self.misses += len(missed)
            self.hits += len(addrs) - len(missed)

        return missed, commit
