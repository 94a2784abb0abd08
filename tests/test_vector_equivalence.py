"""Golden equivalence: batched probe points == reference.

The batched probe sweeps join the fast paths of
``tests/test_fastpath_equivalence.py`` under the same doctrine: a tier
is correct only if it reproduces the reference model *bit for bit* —
same floats, same access counts — across every probe family and
machine shape.  Each test runs one probe on a cold machine on both
probe tiers:

* **batched** — the default: local reads as one plan of the node's
  read model, remote reads as one plan of the shell's, local writes on
  the numpy tier (:mod:`repro.vector`);
* **reference** — under :func:`repro.tiers.reference`: the per-access
  harness loop.

The point memo is cleared between runs so every tier computes every
point itself.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import tiers
from repro.machine.machine import Machine
from repro.microbench import probes
from repro.microbench.harness import clear_probe_memo
from repro.node.memsys import (
    MemorySystem,
    t3d_memory_system,
    workstation_memory_system,
)
from repro.params import (
    t3d_machine_params,
    t3d_node_params,
    workstation_node_params,
)
from repro.splitc import runtime
from repro.vector import UnsupportedStimulus

KB = 1024

#: Cache- and TLB-exercising geometry: spans the 8 KB L1, the
#: workstation's 256 KB TLB reach, and the DRAM interleave.
PROBE_SIZES = [4 * KB, 16 * KB, 64 * KB, 512 * KB]


def _points(curves):
    return [(p.size, p.stride, p.avg_cycles, p.accesses)
            for p in curves.points]


def _two_tiers(run):
    """Run a probe on both tiers, memo cleared between runs."""
    clear_probe_memo()
    vectorized = run()
    clear_probe_memo()
    with tiers.reference():
        reference = run()
    clear_probe_memo()
    return vectorized, reference


@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
def test_local_read_three_tiers_identical(make_memsys):
    vec, ref = _two_tiers(
        lambda: probes.local_read_probe(make_memsys(), sizes=PROBE_SIZES,
                                        memo_key=None))
    assert _points(vec) == _points(ref)


@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
def test_local_write_three_tiers_identical(make_memsys):
    vec, ref = _two_tiers(
        lambda: probes.local_write_probe(make_memsys(), sizes=PROBE_SIZES,
                                         memo_key=None))
    assert _points(vec) == _points(ref)


def _remote_off_page_30():
    params = t3d_machine_params((2, 1, 1))
    return Machine(replace(params, shell=replace(params.shell, remote=replace(
        params.shell.remote, remote_off_page_cycles=30.0))))


def _t3d_pair():
    return Machine(t3d_machine_params((2, 1, 1)))


@pytest.mark.parametrize("mechanism, make_machine, skip_unchanged", [
    ("uncached", _t3d_pair, False),
    ("cached", _t3d_pair, False),
    ("splitc", _t3d_pair, False),
    ("uncached", _remote_off_page_30, False),
    ("cached", _remote_off_page_30, False),
    ("splitc", _remote_off_page_30, False),
    ("splitc", _t3d_pair, True),
], ids=["uncached", "cached", "splitc", "uncached-off-page-30",
        "cached-off-page-30", "splitc-off-page-30", "splitc-skip-unchanged"])
def test_remote_read_three_tiers_identical(monkeypatch, mechanism,
                                           make_machine, skip_unchanged):
    """The planned sweep equals the per-read loop, also on a machine
    whose remote off-page penalty is not the preset's, and for Split-C
    reads under an Annex policy that skips unchanged reloads
    (``SingleAnnexPolicy(skip_when_unchanged=True)``)."""
    if skip_unchanged:
        plan = replace(runtime.default_plan(), annex_skip_when_unchanged=True)
        monkeypatch.setattr(runtime, "default_plan", lambda: plan)

    def run():
        return probes.remote_read_probe(make_machine(), mechanism=mechanism,
                                        sizes=[16 * KB, 64 * KB],
                                        memo_key=None)

    vec, ref = _two_tiers(run)
    assert _points(vec) == _points(ref)


def test_streaming_bandwidth_tiers_identical():
    for make_memsys in (t3d_memory_system, workstation_memory_system):
        vec = probes.streaming_bandwidth_probe(make_memsys(), nbytes=64 * KB)
        with tiers.reference():
            ref = probes.streaming_bandwidth_probe(make_memsys(),
                                                   nbytes=64 * KB)
        assert vec == ref


def test_memoized_replay_matches_fresh_compute():
    """Memo safety: a memoized point replays only because it is
    bit-identical to a fresh computation — assert the memoized curves
    equal a fresh memo-less run."""
    clear_probe_memo()
    memoized = probes.local_read_probe(t3d_memory_system(),
                                       sizes=PROBE_SIZES)
    replayed = probes.local_read_probe(t3d_memory_system(),
                                       sizes=PROBE_SIZES)
    fresh = probes.local_read_probe(t3d_memory_system(), sizes=PROBE_SIZES,
                                    memo_key=None)
    clear_probe_memo()
    assert _points(memoized) == _points(fresh)
    assert _points(replayed) == _points(fresh)


def _off_grid(make_params, **changes):
    """A preset node with some unit's cycle values moved off the
    ``2**-8`` grid the vectorized tier is exact on."""
    params = make_params()
    return replace(params, **{unit: replace(getattr(params, unit), **fields)
                              for unit, fields in changes.items()})


#: Machines the probes were not tuned for: each moves one cost off the
#: exactness grid (or the write buffer off a power-of-two depth).
OFF_GRID = {
    "dram-access-22.3": lambda: _off_grid(
        t3d_node_params, dram={"access_cycles": 22.3}),
    "write-buffer-3-deep": lambda: _off_grid(
        t3d_node_params, write_buffer={"entries": 3}),
    "l1-hit-2.1": lambda: _off_grid(
        t3d_node_params, l1={"hit_cycles": 2.1}),
    "workstation-tlb-miss-7.3": lambda: _off_grid(
        workstation_node_params, tlb={"miss_cycles": 7.3}),
    "workstation-off-page-0.1": lambda: _off_grid(
        workstation_node_params, dram={"off_page_cycles": 0.1}),
}


@pytest.mark.parametrize("probe", [probes.local_read_probe,
                                   probes.local_write_probe],
                         ids=["read", "write"])
@pytest.mark.parametrize("machine", list(OFF_GRID))
def test_off_grid_machines_match_reference(machine, probe):
    """Off the grid the batched tier must decline, not round
    differently: the default probe equals the reference point for
    point.  The read plan declines every machine but the one whose
    off-grid unit, the write buffer, reads never touch."""
    params = OFF_GRID[machine]()
    if probe is probes.local_read_probe:
        sweep = probes._local_read_sweep(MemorySystem(params))
        if machine == "write-buffer-3-deep":
            assert sweep(0, 8, 4, 1, 2)[1] == 8
        else:
            with pytest.raises(UnsupportedStimulus):
                sweep(0, 8, 4, 1, 2)
    got = probe(MemorySystem(params), sizes=PROBE_SIZES, memo_key=None)
    want = probe(MemorySystem(params), sizes=PROBE_SIZES, sweep_fn=None,
                 memo_key=None)
    assert _points(got) == _points(want)
