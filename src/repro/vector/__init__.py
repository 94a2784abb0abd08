"""The vectorized compute tier: numpy structure-of-arrays probe kernels.

The local-write probe (Figure 2) has **two** compute tiers, selected
per point and always bit-identical:

1. **reference** — the per-access loop in
   :func:`repro.microbench.harness.run_stride_point`, one simulated
   memory operation per Python iteration.  Always available; the
   golden source of truth.
2. **vectorized** (this package) — the whole address stream of one
   (size, stride) point is generated up front as numpy arrays and the
   TLB/DRAM-page/write-buffer timing is computed with vectorized
   arithmetic (per-bank row diffs, modular sawtooth structure).
   Exactness is an argument, not a hope: the builders decline unless
   every cycle value they add is a multiple of
   ``2**-8`` (:func:`repro.node.exact.on_grid`) and the write buffer's
   depth is a power of two, and all totals stay far below ``2**44``,
   so float64 addition never rounds and any summation order
   reproduces the reference total bit for bit.

Tier selection
--------------
The tier runs while :func:`repro.tiers.fast` is on;
:func:`repro.tiers.reference` (or ``repro experiments --reference``)
turns it off with every other fast path.

A stimulus the kernels cannot express — data-dependent control flow,
cycle values off the exactness grid, a machine shape outside the
probe's claim — raises :class:`UnsupportedStimulus`;
the harness catches it and runs the reference loop for that point.
:data:`CLAIMED_FAMILIES` records, per probe family, whether the tier
claims it at all; the unclaimed families are claimed *not to be
claimed* by ``tests/vector/test_fallback.py``.

Reads have no kernel here: their probes time each point as one plan
of the node's or the shell's own read model
(:mod:`repro.microbench.probes`).
"""

from __future__ import annotations

from repro import tiers

__all__ = [
    "CLAIMED_FAMILIES",
    "UnsupportedStimulus",
    "claims",
    "enabled",
    "stride_sweep_fn",
]


class UnsupportedStimulus(Exception):
    """A stimulus (or machine shape) the vectorized kernels do not
    claim.  Raising it is the tier's *only* failure mode: the harness
    treats it as "run this point's reference loop", never as a wrong
    answer."""


#: Probe family -> does the vectorized tier claim it?  It claims
#: ``local_write`` only.  The unclaimed families all have timing that
#: is coupled to observable machine state or to data-dependent control
#: flow:
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
    "local_write": True,
    "remote_write": False,
    "nonblocking_write": False,
    "bulk_transfer": False,
    "em3d": False,
}


def claims(family: str) -> bool:
    """Whether the vectorized tier claims a probe family at all."""
    return CLAIMED_FAMILIES.get(family, False)


def enabled() -> bool:
    """Whether the tier runs: :func:`repro.tiers.fast`, read when a
    probe *builds* its sweep function (not per access)."""
    return tiers.fast()


def stride_sweep_fn(family: str, **geometry):
    """Build a batched ``sweep_fn`` for one probe family, or None when
    the tier is off or does not claim the family/geometry.

    The returned callable has the
    :func:`repro.microbench.harness.run_stride_point` contract
    ``sweep_fn(base, stride, count, warmup_passes, measure_passes) ->
    (total, accesses)`` and assumes the probe's ``reset_fn`` has
    cold-started the machine (every stride probe does).  A point it
    cannot express raises :class:`UnsupportedStimulus`, and the harness
    runs the reference loop for it instead.
    """
    if not claims(family) or not enabled():
        return None
    from repro.vector import sweeps
    try:
        return sweeps.build(family, **geometry)
    except UnsupportedStimulus:
        return None
