"""The one switch between the fast paths and the reference model.

Every layer keeps its timing model as an executable spec (the
per-access reference loops) and at most one fast implementation that
must reproduce it bit for bit: the vectorized probe tier
(:mod:`repro.vector`), the cohort scheduler
(:mod:`repro.machine.cohort`), the flattened ``SplitC.put_scatter``
kernel, the batched EM3D compute and ghost fills, the batched bulk
transfers and BLT copies.  :func:`fast` says whether those fast paths
run; :func:`reference` turns them all off at once.

The state is the ``REPRO_FAST`` environment variable (default on;
``0``/``false``/``no``/``off`` selects the reference), so child
processes inherit it.  Callers read :func:`fast` once per
probe build, transfer, compute phase, fill, exchange or run — never
per simulated access.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["ENV", "fast", "reference"]

ENV = "REPRO_FAST"

_OFF = ("0", "false", "no", "off")


def fast() -> bool:
    """Whether the fast paths are on (``REPRO_FAST``, default on)."""
    return os.environ.get(ENV, "1").strip().lower() not in _OFF


@contextmanager
def reference():
    """Run the enclosed block on the reference paths only; the previous
    state comes back on exit, exception or not."""
    saved = os.environ.get(ENV)
    os.environ[ENV] = "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV, None)
        else:
            os.environ[ENV] = saved
