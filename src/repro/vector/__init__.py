"""The vectorized compute tier: numpy structure-of-arrays probe kernels.

The repo now has **three** compute tiers for the probe and figure hot
loops, selected per point and always bit-identical:

1. **reference** — the per-access loop in
   :func:`repro.microbench.harness.run_stride_point`, one simulated
   memory operation per Python iteration.  Always available; the
   golden source of truth.
2. **fast** — the flattened batched sweeps of PR 1
   (:meth:`repro.node.memsys.MemorySystem.read_sweep` /
   ``write_sweep``): same state transitions, fewer Python frames.
3. **vectorized** (this package) — the whole address stream of one
   (size, stride) point is generated up front as numpy arrays and the
   cache/TLB/DRAM-page/write-buffer timing is computed with vectorized
   tag arithmetic (set-index diffs, per-bank row diffs, modular
   sawtooth structure).  Exactness is an argument, not a hope: every
   per-access cost in the model is a small dyadic rational (integers
   for reads; quarter-integers for the pipelined write drain), and all
   totals stay far below 2**53, so float64 addition never rounds and
   any summation order reproduces the reference total bit for bit.

Tier selection
--------------
``REPRO_VECTOR=0`` disables the tier (``1``/unset enables it).  When
numpy is not importable the tier silently degrades to the fast tier
after a one-line warning — the package never *requires* numpy (it is
the ``vector`` optional dependency in ``pyproject.toml``).

A stimulus the kernels cannot express — data-dependent control flow,
set-associative caches, a machine shape outside the probe's claim —
raises :class:`UnsupportedStimulus`; the harness catches it and falls
back to the fast tier (when the probe supplies one) or the reference
loop.  :data:`CLAIMED_FAMILIES` records, per probe family, whether the
tier claims it at all; the unclaimed families are claimed *not to be
claimed* by ``tests/vector/test_fallback.py``.

This module imports neither numpy nor the kernel modules at import
time, so ``import repro`` works on a numpy-less interpreter.
"""

from __future__ import annotations

import os
import warnings

__all__ = [
    "CLAIMED_FAMILIES",
    "UnsupportedStimulus",
    "claims",
    "enabled",
    "numpy_available",
    "streaming_read_total",
    "stride_sweep_fn",
]


class UnsupportedStimulus(Exception):
    """A stimulus (or machine shape) the vectorized kernels do not
    claim.  Raising it is the tier's *only* failure mode: the harness
    treats it as "compute this point on a lower tier", never as a
    wrong answer."""


#: Probe family -> does the vectorized tier claim it?  The unclaimed
#: families all have timing that is coupled to observable machine
#: state or to data-dependent control flow:
#:
#: * ``remote_write`` / ``nonblocking_write`` — every store schedules a
#:   write-buffer ``on_retire`` callback that appends acknowledgement
#:   records and bumps the target's inbound-interface busy time; the
#:   blocking variant additionally interleaves memory barriers and
#:   status polls with the drain schedule.
#: * ``bulk_transfer`` — the batched word loops forward values out of
#:   the write buffer and commit data to the target memory;
#:   ``tests/test_fastpath_equivalence.py`` fingerprints that machine
#:   state, so a state-skipping kernel is wrong by definition.
#: * ``em3d`` — the compute phase reads values written earlier in the
#:   same phase (write-buffer forwarding), so the stream is
#:   data-dependent; the app batches it through
#:   ``MemorySystem.plan_block`` instead.
CLAIMED_FAMILIES = {
    "local_read": True,
    "local_write": True,
    "remote_read": True,
    "streaming_bandwidth": True,
    "remote_write": False,
    "nonblocking_write": False,
    "bulk_transfer": False,
    "em3d": False,
}

_warned_missing_numpy = False


def claims(family: str) -> bool:
    """Whether the vectorized tier claims a probe family at all."""
    return CLAIMED_FAMILIES.get(family, False)


def numpy_available() -> bool:
    """True when numpy is importable (cheap after the first import)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def enabled() -> bool:
    """Tier switch: ``REPRO_VECTOR=0`` disables; numpy must import.

    Consulted when a probe *builds* its sweep function (not per
    access), so flipping the environment variable between probe calls
    is enough to switch tiers — the equivalence tests rely on that.
    """
    if os.environ.get("REPRO_VECTOR", "1").lower() in (
            "0", "false", "no", "off"):
        return False
    if not numpy_available():
        global _warned_missing_numpy
        if not _warned_missing_numpy:
            warnings.warn(
                "repro.vector: numpy is not installed; falling back to "
                "the fast tier (pip install 'repro-t3d[vector]')",
                RuntimeWarning, stacklevel=2)
            _warned_missing_numpy = True
        return False
    return True


def stride_sweep_fn(family: str, *, fallback=None, **geometry):
    """Build a batched ``sweep_fn`` for one probe family, or hand back
    ``fallback`` when the tier is off, unavailable, or does not claim
    the family/geometry.

    The returned callable has the
    :func:`repro.microbench.harness.run_stride_point` contract
    ``sweep_fn(base, stride, count, warmup_passes, measure_passes) ->
    (total, accesses)`` and assumes the probe's ``reset_fn`` has
    cold-started the machine (every stride probe does).  A per-point
    :class:`UnsupportedStimulus` re-routes that point to ``fallback``
    when one was given; with no fallback the exception propagates and
    the harness runs the reference loop instead.
    """
    if not claims(family) or not enabled():
        return fallback
    from repro.vector import sweeps
    try:
        kernel = sweeps.build(family, **geometry)
    except UnsupportedStimulus:
        return fallback
    if fallback is None:
        return kernel

    def sweep(base, stride, count, warmup_passes, measure_passes):
        try:
            return kernel(base, stride, count, warmup_passes,
                          measure_passes)
        except UnsupportedStimulus:
            return fallback(base, stride, count, warmup_passes,
                            measure_passes)

    return sweep


def streaming_read_total(node_params, nbytes: int):
    """Total read cycles of the sequential streaming-bandwidth stimulus
    (one pass, word stride, cold machine), or ``None`` when the point
    must run on a lower tier."""
    if not enabled() or not claims("streaming_bandwidth"):
        return None
    from repro.vector import sweeps
    try:
        return sweeps.streaming_read_total(node_params, nbytes)
    except UnsupportedStimulus:
        return None
