"""The exactness envelope shared by the batched timing paths.

A batched path may add cycle values in a different grouping than the
per-access reference loop (one precomputed gap instead of two charges,
``max(t, ready) + pop`` instead of ``t + (completion - t)``).  That is
bit-identical whenever every value involved is a multiple of ``2**-8``
below ``2**44``: such values need at most 52 significant bits, so
every float64 sum of them is exact and any grouping gives the same
bits.  ``docs/timing_model.md`` gives the full argument.
"""

from __future__ import annotations

__all__ = ["CEILING", "GRID", "array_on_grid", "on_grid"]

GRID = 256.0
CEILING = float(1 << 44)


def on_grid(x: float) -> bool:
    """Whether ``x`` is a multiple of ``2**-8`` of magnitude below
    ``2**44``."""
    return (x * GRID).is_integer() and abs(x) < CEILING


def array_on_grid(values) -> bool:
    """:func:`on_grid` for every element of a float64 numpy array."""
    scaled = values * GRID
    return bool(((scaled == scaled.round()) & (abs(values) < CEILING)).all())
