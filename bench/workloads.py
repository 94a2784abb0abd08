"""The five benchmark workloads.

Each workload makes its inputs from a seed (:meth:`Workload.setup`, part
of the measured set-up time), runs one cold iteration of simulator work
(:meth:`Workload.iterate`, the timed region), and checks the simulated
output afterwards (:meth:`Workload.check`, outside the timed region).
:meth:`Workload.canonical` lists every simulated number an iteration
produced; its SHA-256 is the run's output digest, so a comparison can
show that a speed-up left every simulated number unchanged.

Sizes follow the paper's own stimulus where one exists (Figures 1, 2, 6,
8 and 9 at full size), and are fixed here so both sides of a comparison
do the same work per iteration.
"""

from __future__ import annotations

import hashlib
import math

from repro.apps.em3d import VERSIONS, make_graph, run_em3d
from repro.apps.em3d.graph import initial_values
from repro.apps.em3d.reference import reference_run
from repro.apps.histogram import run_histogram
from repro.apps.samplesort import run_sample_sort
from repro.apps.spmd_workloads import (
    MESSAGE_WORKLOADS,
    check_results,
    make_program,
    random_scripts,
)
from repro.apps.stencil import reference_stencil, run_stencil
from repro.machine.machine import Machine
from repro.microbench import probes
from repro.microbench.harness import default_sizes, stride_point_specs
from repro.params import t3d_machine_params
from repro.reporting.experiments import all_experiments
from repro.splitc.runtime import run_splitc

KB = 1024

#: Experiment runners timed by ``probe-sweeps``, at full size.
PROBE_EXPERIMENTS = ("F1", "F2", "F4/F5/F7+T2/T3", "F6/T4", "T9/T10")

#: Figure 8's transfer sizes (reads use all, writes start at 32 B).
F8_SIZES = (8, 32, 128, 512, 2 * KB, 8 * KB, 32 * KB, 128 * KB, 512 * KB)

#: Figure 9: remote fractions and graph shape on a (2, 2, 1) machine.
FIG9_FRACTIONS = (0.0, 0.2, 0.5)
FIG9_SHAPE = (2, 2, 1)
FIG9_NODES, FIG9_DEGREE = 300, 12
#: Steps simulated per EM3D run, the first of them a warm-up: Figure 9
#: times one step, the scale point ``run_em3d``'s default two.
FIG9_STEPS = 2
SCALE_STEPS = 3

SCALE_SHAPE = (8, 8, 4)
SCALE_NODES, SCALE_DEGREE, SCALE_REMOTE = 64, 6, 0.3

SYNC_SMALL = (4, 4, 4)
SYNC_LARGE = (8, 8, 4)
HIST_BINS, HIST_SAMPLES = 256, 64
SORT_KEYS = 64
STENCIL_CELLS, STENCIL_STEPS = 64, 8
RING_LAPS = 32
SCRIPT_PHASES, SCRIPT_PUTS = 32, 2


class CheckFailed(Exception):
    """A workload's simulated output is wrong."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _experiment(exp_id: str):
    for experiment in all_experiments():
        if experiment.exp_id == exp_id:
            return experiment
    raise KeyError(exp_id)


def _machine(shape):
    return Machine(t3d_machine_params(shape))


def _size(shape) -> int:
    return shape[0] * shape[1] * shape[2]


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and value > 0


def paper_err_pct(rows) -> float:
    """Mean of ``|measured/paper - 1|`` over paper rows, in percent."""
    errors = [abs(measured / paper - 1.0)
              for _name, paper, measured, _unit in rows if paper]
    return 100.0 * sum(errors) / len(errors)


class Workload:
    """One workload.  Subclasses define :meth:`iterate`, :meth:`check`,
    :meth:`work` and :meth:`canonical`, and may override :meth:`setup`
    and :meth:`paper_rows`."""

    name = ""
    #: What one unit of simulated work is, for ``sim_work_per_s``.
    work_unit = ""

    def setup(self, seed: int):
        """Inputs for :meth:`iterate`, made from ``seed``."""
        return seed

    def iterate(self, inputs):
        raise NotImplementedError

    def check(self, inputs, out) -> None:
        """Raise :class:`CheckFailed` unless ``out`` is correct."""
        raise NotImplementedError

    def work(self, inputs, out) -> int:
        """Simulated work one iteration did, in :attr:`work_unit`."""
        raise NotImplementedError

    def canonical(self, out):
        """Every simulated number of ``out``, in a fixed order."""
        raise NotImplementedError

    def paper_rows(self, out) -> list:
        """``(quantity, paper, measured, unit)`` rows; empty if the
        paper reports nothing for this workload."""
        return []

    def digest(self, out) -> str:
        return hashlib.sha256(repr(self.canonical(out)).encode()).hexdigest()


# ----------------------------------------------------------------------
# probe-sweeps: the gray-box probes of sections 2-5
# ----------------------------------------------------------------------

def probe_accesses() -> int:
    """Accesses the full-size F1/F2 stride sweeps (one warm-up and two
    measured passes per point) and the T9/T10 streaming probes request."""
    sweeps = [
        stride_point_specs(default_sizes(hi=1024 * KB)),          # F1 T3D
        stride_point_specs(default_sizes(hi=2048 * KB),
                           min_footprint=2048 * KB),              # F1 WS
        stride_point_specs(default_sizes(hi=512 * KB)),           # F2
    ]
    stride = 3 * sum(spec.naccesses for specs in sweeps for spec in specs)
    streaming = (512 * KB + 2048 * KB) // 8
    return stride + streaming


class ProbeSweeps(Workload):
    """Seedless: the paper's stride sweeps have no random part."""

    name = "probe-sweeps"
    work_unit = "access"

    def setup(self, seed):
        return probe_accesses()

    def iterate(self, inputs):
        return {exp_id: _experiment(exp_id).run(quick=False)
                for exp_id in PROBE_EXPERIMENTS}

    def check(self, inputs, out):
        f1 = {name: measured for name, _p, measured, _u in out["F1"][0]}
        _require(f1["L1 size (KB)"] == 8.0, "F1 L1 size is not 8 KB")
        _require(f1["line size (B)"] == 32.0, "F1 line size is not 32 B")
        _require("direct-mapped=True" in out["F1"][1][0],
                 "F1 did not find a direct-mapped L1")
        _require(f1["workstation L2 size (KB)"] == 512.0,
                 "F1 workstation L2 is not 512 KB")
        _require(f1["workstation TLB page (KB)"] == 8.0,
                 "F1 workstation TLB page is not 8 KB")
        f2 = {name: measured for name, _p, measured, _u in out["F2"][0]}
        _require(f2["inferred buffer depth"] == 4.0,
                 "F2 write-buffer depth is not 4")
        hazards = out["F4/F5/F7+T2/T3"][1]
        _require(len(hazards) == 3 and all(
            note.endswith(": observed") for note in hazards),
            f"hazards not all observed: {hazards}")

    def work(self, inputs, out):
        return inputs

    def canonical(self, out):
        return out

    def paper_rows(self, out):
        return [row for rows, _notes in out.values() for row in rows]


# ----------------------------------------------------------------------
# bulk-transfer: Figure 8 and the section 6.3 crossovers
# ----------------------------------------------------------------------

def fig8_rows(reads, writes) -> list:
    """Figure 8's paper rows, as ``repro.reporting.experiments`` forms
    them from the same probe points."""
    read = {(p.mechanism, p.nbytes): p.mb_per_s for p in reads}
    write = {(p.mechanism, p.nbytes): p.mb_per_s for p in writes}
    big = max(F8_SIZES)
    return [
        ("BLT peak read (MB/s)", 140.0, read[("blt", big)], "MB/s"),
        ("prefetch mid-range (MB/s)", 40.0,
         read[("prefetch", 2 * KB)], "MB/s"),
        ("uncached flat (MB/s)", 13.0, read[("uncached", 2 * KB)], "MB/s"),
        ("stores peak write (MB/s)", 90.0, write[("stores", big)], "MB/s"),
    ]


class BulkTransfer(Workload):
    """Seedless: Figure 8's transfer sizes are fixed."""

    name = "bulk-transfer"
    work_unit = "B"

    def iterate(self, inputs):
        return {
            "reads": probes.bulk_read_bandwidth_probe(list(F8_SIZES)),
            "writes": probes.bulk_write_bandwidth_probe(list(F8_SIZES[1:])),
            "T7": _experiment("T7").run(quick=False),
        }

    def check(self, inputs, out):
        points = out["reads"] + out["writes"]
        _require(all(_finite_positive(p.mb_per_s) for p in points),
                 "a bulk bandwidth is not a positive number")
        big = [p for p in out["reads"] if p.nbytes == max(F8_SIZES)]
        best = max(big, key=lambda p: p.mb_per_s)
        _require(best.mechanism == "blt",
                 f"{best.mechanism}, not BLT, wins the 512 KB read")
        _require(all(_finite_positive(measured)
                     for _n, _p, measured, _u in out["T7"][0]),
                 "a T7 crossover is not a positive number")

    def work(self, inputs, out):
        return sum(p.nbytes for p in out["reads"] + out["writes"])

    def canonical(self, out):
        return ([(p.mechanism, p.nbytes, p.mb_per_s)
                 for p in out["reads"] + out["writes"]], out["T7"])

    def paper_rows(self, out):
        return fig8_rows(out["reads"], out["writes"]) + list(out["T7"][0])


# ----------------------------------------------------------------------
# EM3D (section 8)
# ----------------------------------------------------------------------

def _check_em3d(result, reference) -> None:
    ref_e, ref_h = reference
    for got, want in ((result.e_values, ref_e), (result.h_values, ref_h)):
        _require(len(got) == len(want) and all(
            len(g) == len(w) for g, w in zip(got, want)),
            f"{result.version}: field shape differs from the reference")
        for got_pe, want_pe in zip(got, want):
            for g, w in zip(got_pe, want_pe):
                _require(math.isclose(g, w, rel_tol=1e-6, abs_tol=1e-12),
                         f"{result.version}: field value {g!r} differs "
                         f"from reference {w!r}")


def _em3d_reference(graph, steps: int):
    return reference_run(graph, initial_values(graph, "e"),
                         initial_values(graph, "h"), steps=steps)


def _em3d_canonical(result):
    return (result.version, result.us_per_edge,
            result.per_pe_cycles_per_edge, result.e_values,
            result.h_values)


def fig9_rows(runs) -> list:
    """Figure 9's paper rows from ``(fraction, graph, result)`` runs, as
    ``repro.reporting.experiments`` forms them."""
    table = {(result.version, frac): result.us_per_edge
             for frac, _graph, result in runs}
    floor = min(table[(v, 0.0)] for v in VERSIONS)
    return [
        ("all-local floor (us/edge)", 0.37, floor, "us"),
        ("per-PE MFlops (all-local)", 5.5, 2.0 / floor, "MFlops"),
        ("simple at 50% remote (us/edge)", 1.0,
         table[("simple", 0.5)], "us"),
        ("bulk at 50% remote (us/edge)", 0.5,
         table[("bulk", 0.5)], "us"),
    ]


class Em3dFig9(Workload):
    """Figure 9: every version at every remote fraction.  Graph
    generation is part of the iteration, as it is of the figure."""

    name = "em3d-fig9"
    work_unit = "edge"

    def __init__(self):
        self._references = {}

    def iterate(self, seed):
        runs = []
        for frac in FIG9_FRACTIONS:
            graph = make_graph(_size(FIG9_SHAPE), FIG9_NODES, FIG9_DEGREE,
                               frac, seed=seed)
            for version in VERSIONS:
                result = run_em3d(_machine(FIG9_SHAPE), graph, version,
                                  steps=FIG9_STEPS - 1, warmup_steps=1)
                runs.append((frac, graph, result))
        return runs

    def check(self, inputs, out):
        _require(len(out) == len(FIG9_FRACTIONS) * len(VERSIONS),
                 "missing Figure 9 points")
        for frac, graph, result in out:
            if frac not in self._references:
                self._references[frac] = _em3d_reference(graph, FIG9_STEPS)
            _check_em3d(result, self._references[frac])

    def work(self, inputs, out):
        return sum(FIG9_STEPS * graph.edges_per_pe * graph.num_pes
                   for _frac, graph, _result in out)

    def canonical(self, out):
        return [(frac, _em3d_canonical(result)) for frac, _g, result in out]

    def paper_rows(self, out):
        return fig9_rows(out)


class Em3dScale256(Workload):
    """The put version at 256 PEs: the exchange, not the compute phase,
    dominates once the per-PE working set fits in L1."""

    name = "em3d-scale256"
    work_unit = "edge"

    def __init__(self):
        self._reference = None

    def setup(self, seed):
        return make_graph(_size(SCALE_SHAPE), SCALE_NODES, SCALE_DEGREE,
                          SCALE_REMOTE, seed=seed)

    def iterate(self, graph):
        return run_em3d(_machine(SCALE_SHAPE), graph, "put",
                        steps=SCALE_STEPS - 1, warmup_steps=1)

    def check(self, graph, out):
        if self._reference is None:
            self._reference = _em3d_reference(graph, SCALE_STEPS)
        _check_em3d(out, self._reference)

    def work(self, graph, out):
        return SCALE_STEPS * graph.edges_per_pe * graph.num_pes

    def canonical(self, out):
        return _em3d_canonical(out)


# ----------------------------------------------------------------------
# sync-msgs: processors that block on messages and barriers
# ----------------------------------------------------------------------

_RING = MESSAGE_WORKLOADS["msg-token-ring"]


class SyncMsgs(Workload):
    name = "sync-msgs"
    work_unit = "op"

    def setup(self, seed):
        return seed, random_scripts(_size(SYNC_LARGE), seed,
                                    max_phases=SCRIPT_PHASES,
                                    max_puts=SCRIPT_PUTS)

    def iterate(self, inputs):
        seed, scripts = inputs
        ring, ring_rts = run_splitc(
            _machine(SYNC_LARGE), _RING.make(_size(SYNC_LARGE),
                                             laps=RING_LAPS))
        phases, phase_rts = run_splitc(_machine(SYNC_LARGE),
                                       make_program(scripts))
        return {
            "histogram": run_histogram(
                _machine(SYNC_SMALL), num_bins=HIST_BINS,
                samples_per_pe=HIST_SAMPLES, method="am", seed=seed),
            "sort": run_sample_sort(_machine(SYNC_SMALL),
                                    keys_per_pe=SORT_KEYS,
                                    method="element", seed=seed),
            "stencil": run_stencil(_machine(SYNC_SMALL),
                                   cells_per_pe=STENCIL_CELLS,
                                   steps=STENCIL_STEPS,
                                   sync_style="message_driven"),
            "ring": (ring, [rt.ctx.clock for rt in ring_rts]),
            "phases": (phases, [rt.ctx.clock for rt in phase_rts]),
        }

    def check(self, inputs, out):
        _seed, scripts = inputs
        hist = out["histogram"]
        _require(hist.lost_updates == 0,
                 f"histogram lost {hist.lost_updates} updates")
        keys = out["sort"].sorted_keys
        _require(len(keys) == SORT_KEYS * _size(SYNC_SMALL)
                 and keys == sorted(keys), "sample sort output not sorted")
        want = reference_stencil(_size(SYNC_SMALL), STENCIL_CELLS,
                                 STENCIL_STEPS)
        got = out["stencil"].values
        _require(all(math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12)
                     for got_pe, want_pe in zip(got, want)
                     for g, w in zip(got_pe, want_pe))
                 and len(got) == len(want),
                 "stencil differs from reference_stencil")
        try:
            _RING.check(_size(SYNC_LARGE), out["ring"][0], laps=RING_LAPS)
            check_results(scripts, out["phases"][0])
        except AssertionError as exc:
            raise CheckFailed(f"message delivery: {exc}") from None

    def work(self, inputs, out):
        _seed, scripts = inputs
        small, large = _size(SYNC_SMALL), _size(SYNC_LARGE)
        puts = sum(len(phase) for script in scripts for phase in script)
        return (HIST_SAMPLES * small + SORT_KEYS * small
                + 2 * (small - 1) * STENCIL_STEPS
                + RING_LAPS * large + puts)

    def canonical(self, out):
        hist, sort, stencil = out["histogram"], out["sort"], out["stencil"]
        return (hist.bins, hist.total_cycles, sort.sorted_keys,
                sort.per_pe_counts, sort.total_cycles, stencil.values,
                stencil.total_cycles, out["ring"], out["phases"])


#: Workload name -> class, in BENCHMARK.json order.
WORKLOADS = {cls.name: cls for cls in (
    ProbeSweeps, BulkTransfer, Em3dFig9, Em3dScale256, SyncMsgs)}
