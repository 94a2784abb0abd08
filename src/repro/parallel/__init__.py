"""No result cache: every simulated number is computed fresh.

``repro experiments`` and the figure sweeps run serially in-process,
and nothing is replayed from disk.  :func:`cache_stats` remains so a
cold benchmark can read proof of that: it always reports zero hits,
misses and stores.
"""

__all__ = ["cache_stats"]


def cache_stats() -> dict:
    """``{"hits": 0, "misses": 0, "stores": 0}`` — there is no cache."""
    return {"hits": 0, "misses": 0, "stores": 0}
