"""Per-thread operation statistics: where did the cycles go?

Every Split-C operation records its class and cost; the resulting
breakdown is the per-program analogue of the paper's tables ("how much
of this run was annex set-up vs. network vs. local compute").  The
EM3D driver and the examples print these breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.params import CYCLE_NS

__all__ = ["OpRecord", "OpStats"]


@dataclass
class OpRecord:
    """Aggregate for one operation class."""

    count: int = 0
    cycles: float = 0.0

    @property
    def mean_cycles(self) -> float:
        return self.cycles / self.count if self.count else 0.0


@dataclass
class OpStats:
    """All operation classes for one SPMD thread."""

    ops: dict = field(default_factory=dict)

    def record(self, op: str, cycles: float) -> None:
        self.add(op, 1, cycles)

    def add(self, op: str, count: int, cycles: float) -> None:
        """Record ``count`` operations costing ``cycles`` in total."""
        record = self.ops.get(op)
        if record is None:
            record = self.ops[op] = OpRecord()
        record.count += count
        record.cycles += cycles

    def count(self, op: str) -> int:
        return self.ops[op].count if op in self.ops else 0

    def cycles(self, op: str) -> float:
        return self.ops[op].cycles if op in self.ops else 0.0

    @property
    def total_cycles(self) -> float:
        return sum(r.cycles for r in self.ops.values())

    def merge(self, other: "OpStats") -> "OpStats":
        """Combine two threads' stats (e.g. across a whole machine)."""
        merged = OpStats()
        for source in (self, other):
            for op, record in source.ops.items():
                target = merged.ops.setdefault(op, OpRecord())
                target.count += record.count
                target.cycles += record.cycles
        return merged

    def format(self, title: str = "operation breakdown") -> str:
        """Render a table sorted by total cycles, descending."""
        lines = [title]
        header = (f"{'operation':<22}{'count':>8}{'cycles':>14}"
                  f"{'mean cy':>10}{'mean ns':>10}")
        lines.append(header)
        lines.append("-" * len(header))
        for op, record in sorted(self.ops.items(),
                                 key=lambda kv: -kv[1].cycles):
            lines.append(
                f"{op:<22}{record.count:>8}{record.cycles:>14.0f}"
                f"{record.mean_cycles:>10.1f}"
                f"{record.mean_cycles * CYCLE_NS:>10.1f}")
        lines.append(f"{'total':<22}{'':>8}{self.total_cycles:>14.0f}")
        return "\n".join(lines)
