"""Probe harness: the sawtooth stride stimulus of paper section 2.2.

The canonical probe is::

    for (arraySize = 4 KB; arraySize < 8 MB; arraySize *= 2)
        for (stride = 8; stride <= arraySize/2; stride *= 2)
            for (i = 0; i < arraySize; i += stride)
                MEMORY OPERATION ON A[i];

with the experiment repeated to reach confidence, and loop/address
overhead subtracted so only the memory operation's cost remains.  Our
access functions return the memory operation's cost directly (the
simulator separates it from instruction overhead by construction), so
subtraction is exact rather than estimated.

To keep pure-Python run times sane, each (size, stride) point may cap
the number of accesses per pass; because the stimulus is periodic, the
steady-state average converges long before a full pass over an 8 MB
array.

Two fast paths keep the sweeps cheap without changing a single number:

* ``sweep_fn`` — a batched runner for one (size, stride) point (the
  vectorized tier, :func:`repro.vector.stride_sweep_fn`) that is
  exactly equivalent to the per-access loop; the golden-equivalence
  suites (``tests/test_fastpath_equivalence.py``,
  ``tests/test_vector_equivalence.py``) assert identity.
* ``memo_key`` — when the probe cold-starts state before every point
  (``reset_fn``), each point is a pure function of (machine parameters,
  address list, pass counts); identical points are computed once per
  process and replayed.  Deduplication fires both *within* a probe
  (capped address lists collapse across array sizes) and *across*
  benchmarks re-running the same deterministic sweep.  The memo keys
  on :func:`repro.tiers.fast`, so a reference run never replays a
  point the fast paths computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import tiers
from repro.params import CYCLE_NS
from repro.vector import UnsupportedStimulus

__all__ = ["LatencyCurves", "PointSpec", "ProbePoint",
           "clear_probe_memo", "default_sizes", "default_strides",
           "run_stride_point", "run_stride_probe",
           "stride_point_specs"]

KB = 1024

#: Process-wide memo of probe points: key -> (avg_cycles, accesses).
_POINT_MEMO: dict = {}


def clear_probe_memo() -> None:
    """Drop all memoized probe points (for tests and ablations that
    mutate machine state in ways not captured by the memo key)."""
    _POINT_MEMO.clear()


@dataclass(frozen=True)
class ProbePoint:
    """One (array size, stride) measurement."""

    size: int
    stride: int
    avg_cycles: float
    accesses: int

    @property
    def avg_ns(self) -> float:
        return self.avg_cycles * CYCLE_NS


@dataclass
class LatencyCurves:
    """Probe results grouped by array size (one curve per size)."""

    points: list[ProbePoint] = field(default_factory=list)

    def curve(self, size: int) -> list[ProbePoint]:
        return [p for p in self.points if p.size == size]

    def sizes(self) -> list[int]:
        return sorted({p.size for p in self.points})

    def strides(self) -> list[int]:
        return sorted({p.stride for p in self.points})

    def at(self, size: int, stride: int) -> ProbePoint:
        for p in self.points:
            if p.size == size and p.stride == stride:
                return p
        raise KeyError(f"no point for size={size}, stride={stride}")


def default_sizes(lo: int = 4 * KB, hi: int = 1024 * KB) -> list[int]:
    """Power-of-two array sizes, paper default 4 KB .. 8 MB (we default
    to 1 MB — the curves are flat beyond, and pure Python pays per
    access)."""
    sizes = []
    size = lo
    while size <= hi:
        sizes.append(size)
        size *= 2
    return sizes


def default_strides(size: int, lo: int = 8) -> list[int]:
    """Power-of-two strides 8 bytes .. size/2."""
    strides = []
    stride = lo
    while stride <= size // 2:
        strides.append(stride)
        stride *= 2
    return strides


@dataclass(frozen=True)
class PointSpec:
    """One (size, stride) stimulus, fully resolved: ``naccesses`` is
    the capped per-pass access count.  Hashable — the unit the point
    memo keys."""

    size: int
    stride: int
    naccesses: int


def stride_point_specs(sizes=None, strides_fn=None, *,
                       max_accesses: int = 4096,
                       min_footprint: int = 0) -> list[PointSpec]:
    """The sawtooth sweep as an explicit, size-major point list.

    This is the whole stimulus of :func:`run_stride_probe`, reified:
    each spec is independent of every other (the probe cold-starts
    state per point), so any point can be measured on its own.
    """
    sizes = sizes if sizes is not None else default_sizes()
    strides_fn = strides_fn if strides_fn is not None else default_strides
    specs = []
    for size in sizes:
        for stride in strides_fn(size):
            naccesses = -(-size // stride)
            cap = max(max_accesses, -(-min_footprint // stride))
            if naccesses > cap:
                naccesses = cap
            specs.append(PointSpec(size=size, stride=stride,
                                   naccesses=naccesses))
    return specs


def run_stride_point(access_fn, spec: PointSpec, *, base_addr: int = 0,
                     warmup_passes: int = 1, measure_passes: int = 2,
                     reset_fn=None, sweep_fn=None) -> ProbePoint:
    """Measure one point: cold-start, warm passes, measured passes.

    ``sweep_fn`` (see :func:`run_stride_probe`) runs the point batched;
    otherwise the reference per-access loop runs.  A ``sweep_fn`` may
    raise :class:`repro.vector.UnsupportedStimulus` to decline a point
    it cannot express (the vectorized tier does this for non-canonical
    geometry); the point then falls back to the reference loop.  Every
    spec field — ``stride``, ``naccesses``, plus ``base_addr`` and the
    pass counts — is forwarded to the sweep, so a batched tier sees the
    whole stimulus or none of it; there are no silently-dropped fields.
    """
    if reset_fn is not None:
        reset_fn()
    if sweep_fn is not None:
        try:
            total, count = sweep_fn(base_addr, spec.stride, spec.naccesses,
                                    warmup_passes, measure_passes)
        except UnsupportedStimulus:
            if reset_fn is not None:
                reset_fn()      # the sweep may have touched state
            sweep_fn = None
    if sweep_fn is None:
        addrs = range(base_addr, base_addr + spec.naccesses * spec.stride,
                      spec.stride)
        now = 0.0
        for _ in range(warmup_passes):
            for addr in addrs:
                now += access_fn(now, addr)
        total = 0.0
        count = 0
        for _ in range(measure_passes):
            for addr in addrs:
                cycles = access_fn(now, addr)
                total += cycles
                now += cycles
                count += 1
    return ProbePoint(size=spec.size, stride=spec.stride,
                      avg_cycles=total / count, accesses=count)


def run_stride_probe(access_fn, sizes=None, strides_fn=None, *,
                     base_addr: int = 0, warmup_passes: int = 1,
                     measure_passes: int = 2, max_accesses: int = 4096,
                     min_footprint: int = 0, reset_fn=None,
                     sweep_fn=None, memo_key=None) -> LatencyCurves:
    """Run the sawtooth probe against an access function.

    ``access_fn(now, addr) -> cycles`` performs one (simulated) memory
    operation and returns its latency; ``reset_fn()`` (optional) cold-
    starts state before each (size, stride) point, as re-running a
    probe binary would.  Returns the latency curves.

    ``max_accesses`` caps the per-pass work at small strides; because
    the stimulus is periodic the truncated average matches the full
    pass *provided* the truncated footprint still exceeds the machine's
    total cache reach.  When probing a machine with a large outer cache
    set ``min_footprint`` to several times that cache's size — the cap
    is then raised at small strides so the working set never
    artificially fits.

    ``sweep_fn(base, stride, count, warmup_passes, measure_passes) ->
    (total, accesses)`` (optional) runs one whole point batched; it
    must be exactly equivalent to the per-access loop.  ``memo_key``
    (optional, requires ``reset_fn``) enables the process-wide point
    memo: pass a hashable key capturing everything the result depends
    on besides the address list — typically the probe name and the
    machine's (frozen, hashable) parameter object.  Memoized points
    skip the simulation entirely, so post-probe model state is only
    meaningful when the caller resets it anyway.
    """
    specs = stride_point_specs(sizes, strides_fn,
                               max_accesses=max_accesses,
                               min_footprint=min_footprint)
    memo_enabled = memo_key is not None and reset_fn is not None
    fast = tiers.fast()
    curves = LatencyCurves()
    for spec in specs:
        if memo_enabled:
            key = (memo_key, fast, base_addr, spec.stride, spec.naccesses,
                   warmup_passes, measure_passes)
            cached = _POINT_MEMO.get(key)
            if cached is not None:
                curves.points.append(ProbePoint(
                    size=spec.size, stride=spec.stride,
                    avg_cycles=cached[0], accesses=cached[1]))
                continue
        point = run_stride_point(access_fn, spec, base_addr=base_addr,
                                 warmup_passes=warmup_passes,
                                 measure_passes=measure_passes,
                                 reset_fn=reset_fn, sweep_fn=sweep_fn)
        if memo_enabled:
            _POINT_MEMO[key] = (point.avg_cycles, point.accesses)
        curves.points.append(point)
    return curves
