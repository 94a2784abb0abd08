"""Tier-selection and graceful-degradation behavior of repro.vector.

The vectorized tier must never be load-bearing: under the reference
switch (``REPRO_FAST=0``), or for any stimulus it does not claim, every
probe must run the reference loop and produce the same numbers.  These
tests pin that contract — including the per-family claim table, so
silently starting (or stopping) to claim a family is a visible diff.
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro import tiers, vector
from repro.microbench.harness import PointSpec, run_stride_point
from repro.microbench.probes import _local_read_sweep
from repro.node.memsys import MemorySystem, t3d_memory_system
from repro.params import CacheParams, t3d_node_params
from repro.vector import UnsupportedStimulus


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(tiers.ENV, raising=False)


# ----------------------------------------------------------------------
# The claim table (satellite: per-family fallback decisions, pinned)
# ----------------------------------------------------------------------

def test_claimed_families_pinned():
    """The per-family claim decisions are part of the tier's contract:
    the unclaimed families couple timing to observable machine state or
    data-dependent control flow (see the table's docstring), so a
    change here needs a matching exactness argument.  Reads are not a
    family here: their probes time each point as one plan of the
    node's or the shell's own read model, and the streaming probe is
    one Figure 1 point."""
    assert vector.CLAIMED_FAMILIES == {
        "local_write": True,
        "remote_write": False,
        "nonblocking_write": False,
        "bulk_transfer": False,
        "em3d": False,
    }


def test_unknown_family_is_not_claimed():
    assert not vector.claims("no_such_probe")
    assert vector.stride_sweep_fn("no_such_probe") is None


# ----------------------------------------------------------------------
# Environment switch
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value", ["0", "false", "no", "off", "OFF"])
def test_env_disables_tier(monkeypatch, value):
    monkeypatch.setenv(tiers.ENV, value)
    assert not vector.enabled()
    ms = t3d_memory_system()
    assert _local_read_sweep(ms) is None
    assert vector.stride_sweep_fn("local_write",
                                  node_params=ms.params) is None


def test_env_enabled_by_default():
    assert vector.enabled()


# ----------------------------------------------------------------------
# Per-point fallback on UnsupportedStimulus
# ----------------------------------------------------------------------

def test_unsupported_point_routes_to_fallback():
    """The read sweep declines a point it cannot express with
    UnsupportedStimulus (the harness then runs the reference loop) and
    answers a canonical one; a node whose read plan declines (a
    set-associative L1) declines every point."""
    ms = t3d_memory_system()
    sweep = _local_read_sweep(ms)
    assert sweep is not None             # the fast paths are on
    with pytest.raises(UnsupportedStimulus):
        sweep(0, -8, 4, 1, 2)            # non-canonical geometry
    total, count = sweep(0, 8, 4, 1, 2)
    assert count == 8 and total > 0
    two_way = MemorySystem(replace(t3d_node_params(),
                                   l1=CacheParams(associativity=2)))
    with pytest.raises(UnsupportedStimulus):
        _local_read_sweep(two_way)(0, 8, 4, 1, 2)


def test_harness_falls_back_to_reference_loop():
    """A sweep_fn raising UnsupportedStimulus must not lose the point:
    the harness reruns it on the reference per-access loop."""
    ms = t3d_memory_system()

    def declines(base, stride, count, warmup, measure):
        raise UnsupportedStimulus("always")

    spec = PointSpec(size=4096, stride=32, naccesses=128)
    got = run_stride_point(ms.read_cycles, spec, reset_fn=ms.reset,
                           sweep_fn=declines)
    ms2 = t3d_memory_system()
    want = run_stride_point(ms2.read_cycles, spec, reset_fn=ms2.reset,
                            sweep_fn=None)
    assert got == want
