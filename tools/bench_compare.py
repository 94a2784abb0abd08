#!/usr/bin/env python3
"""Diff two bench snapshots and fail on mean wall-clock regressions.

Compares the per-benchmark means of a new snapshot (as written by
``tools/bench_snapshot.py``) against a committed baseline and exits
nonzero when any benchmark regressed by more than the threshold —
the perf gate behind ``make bench-compare``.

* Benchmarks only present in one snapshot are reported but never fail
  the gate (the suite grows over time).
* Means below the noise floor (``--min-seconds``, default 0.05 s) are
  skipped: sub-50 ms timings on a shared container are scheduling
  noise, not signal.
* ``--warn-only`` prints the comparison but always exits zero (used in
  the ``make bench`` summary, where the fresh snapshot may reflect a
  deliberately different configuration than the committed baseline).
* ``--models ARTIFACT`` additionally runs the surrogate-model
  regression oracle: the artifact's fitted parameters are re-evaluated
  against the current simulator (``repro.reporting.models``), and any
  model missing its recorded MAPE gate counts as a regression — a
  *behavioral* drift check alongside the wall-clock one.
* When both snapshots carry a ``weak_scaling`` section (``make
  bench-scaling``), the per-PE-count us/edge points are diffed with the
  same threshold.  The metric is simulated time — deterministic — but
  the committed baselines round to a few decimals and tiny curves sit
  at fractions of a microsecond, so a relative gate alone flaps on
  sub-noise deltas; ``--scaling-floor`` (default 0.005 us/edge) is the
  absolute delta a point must also exceed before it counts as a
  regression.
* ``--tiers`` additionally cross-checks the compute tiers: a small
  probe subset is run on the vectorized tier and under
  ``repro.tiers.reference()``, and any numeric mismatch counts as a
  regression.  A perf gate that compares tiered timings is only
  meaningful while the tiers agree bit for bit.

Usage: bench_compare.py BASE_JSON NEW_JSON
           [--threshold PCT] [--min-seconds S] [--scaling-floor US]
           [--warn-only] [--models ARTIFACT] [--tiers]
"""

from __future__ import annotations

import argparse
import json
import sys


def compare(base: dict, new: dict, threshold: float,
            min_seconds: float) -> tuple[list[str], list[str]]:
    """Return (report lines, regression lines)."""
    base_means = base.get("benchmarks", {})
    new_means = new.get("benchmarks", {})
    lines, regressions = [], []
    for name in sorted(set(base_means) | set(new_means)):
        b, n = base_means.get(name), new_means.get(name)
        if b is None:
            lines.append(f"  NEW       {name}: {n:.4f} s")
            continue
        if n is None:
            lines.append(f"  DROPPED   {name} (was {b:.4f} s)")
            continue
        delta = (n - b) / b if b > 0 else 0.0
        tag = "ok"
        if max(b, n) >= min_seconds and delta > threshold:
            tag = "REGRESSED"
            regressions.append(
                f"{name}: {b:.4f} s -> {n:.4f} s (+{100 * delta:.1f}%)")
        lines.append(f"  {tag:<10}{name}: {b:.4f} -> {n:.4f} s "
                     f"({100 * delta:+.1f}%)")
    return lines, regressions


def compare_scaling(base: dict, new: dict, threshold: float,
                    floor: float = 0.005) -> tuple[list[str], list[str]]:
    """Diff the weak-scaling curves (us/edge per PE count).

    Simulated per-edge cost is deterministic, but snapshot rounding
    and tiny absolute values make a purely relative gate flappy, so a
    point regresses only when it exceeds the threshold *and* rises by
    more than ``floor`` us/edge in absolute terms.  Points present in
    only one snapshot (e.g. the 1024-PE point of a full sweep) are
    reported but never fail."""
    b_curve = (base.get("weak_scaling") or {}).get("us_per_edge") or {}
    n_curve = (new.get("weak_scaling") or {}).get("us_per_edge") or {}
    lines, regressions = [], []
    if not b_curve and not n_curve:
        return lines, regressions
    for pe in sorted(set(b_curve) | set(n_curve), key=int):
        b, n = b_curve.get(pe), n_curve.get(pe)
        label = f"weak-scaling {pe} PEs"
        if b is None:
            lines.append(f"  NEW       {label}: {n:.4f} us/edge")
            continue
        if n is None:
            lines.append(f"  DROPPED   {label} (was {b:.4f} us/edge)")
            continue
        delta = (n - b) / b if b > 0 else 0.0
        tag = "ok"
        if delta > threshold and (n - b) > floor:
            tag = "REGRESSED"
            regressions.append(f"{label}: {b:.4f} -> {n:.4f} us/edge "
                               f"(+{100 * delta:.1f}%)")
        lines.append(f"  {tag:<10}{label}: {b:.4f} -> {n:.4f} us/edge "
                     f"({100 * delta:+.1f}%)")
    return lines, regressions


def check_tiers() -> tuple[list[str], list[str]]:
    """Cross-check the vectorized tier against the reference on a small
    probe subset; mismatches are regressions."""
    from repro import tiers, vector
    from repro.machine.machine import Machine
    from repro.microbench import probes
    from repro.node.memsys import t3d_memory_system
    from repro.params import t3d_machine_params

    if not vector.enabled():
        return (["  tier cross-check: fast paths off (REPRO_FAST=0), "
                 "skipped"], [])

    kb = 1024
    sizes = [4 * kb, 64 * kb]
    subset = [
        ("local_read", lambda: probes.local_read_probe(
            t3d_memory_system(), sizes=sizes, memo_key=None)),
        ("local_write", lambda: probes.local_write_probe(
            t3d_memory_system(), sizes=sizes, memo_key=None)),
        ("remote_read", lambda: probes.remote_read_probe(
            Machine(t3d_machine_params((2, 1, 1))), sizes=sizes,
            memo_key=None)),
    ]
    lines, regressions = [], []
    for name, run in subset:
        vec = [(p.size, p.stride, p.avg_cycles, p.accesses)
               for p in run().points]
        with tiers.reference():
            ref = [(p.size, p.stride, p.avg_cycles, p.accesses)
                   for p in run().points]
        if vec == ref:
            lines.append(f"  tier ok   {name}: {len(vec)} points "
                         "bit-identical")
        else:
            bad = sum(1 for a, b in zip(vec, ref) if a != b)
            regressions.append(
                f"tier mismatch {name}: {bad}/{len(vec)} points "
                "differ between vectorized and reference tiers")
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a bench snapshot regresses vs a baseline")
    parser.add_argument("base", help="committed baseline snapshot JSON")
    parser.add_argument("new", help="freshly produced snapshot JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed mean increase, fraction "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore benchmarks where both means are "
                             "below this noise floor (default 0.05)")
    parser.add_argument("--scaling-floor", type=float, default=0.005,
                        metavar="US",
                        help="absolute us/edge increase a weak-scaling "
                             "point must exceed (in addition to the "
                             "threshold) to regress (default 0.005)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report but always exit 0")
    parser.add_argument("--models", default=None, metavar="ARTIFACT",
                        help="also re-verify this fitted-model "
                             "artifact against the current simulator "
                             "(MAPE-gate misses count as regressions)")
    parser.add_argument("--tiers", action="store_true",
                        help="also cross-check the vectorized compute "
                             "tier against the fallback tiers "
                             "(mismatches count as regressions)")
    args = parser.parse_args(argv)

    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)

    lines, regressions = compare(base, new, args.threshold,
                                 args.min_seconds)
    scaling_lines, scaling_regressions = compare_scaling(
        base, new, args.threshold, args.scaling_floor)
    lines.extend(scaling_lines)
    regressions.extend(scaling_regressions)
    if args.models:
        from repro.reporting.models import check_artifact
        results, failures = check_artifact(path=args.models)
        lines.append(f"  model oracle ({args.models}): "
                     f"{len(results)} fits re-verified")
        for result in failures:
            regressions.append(
                f"model {result.model}: MAPE {result.mape:.2f}% > "
                f"recorded gate {result.target_mape:.1f}%")
    if args.tiers:
        tier_lines, tier_regressions = check_tiers()
        lines.extend(tier_lines)
        regressions.extend(tier_regressions)
    print(f"bench compare: {args.base} -> {args.new} "
          f"(threshold +{100 * args.threshold:.0f}%, "
          f"noise floor {args.min_seconds:.2f} s, "
          f"scaling floor {args.scaling_floor:.3f} us/edge)")
    for line in lines:
        print(line)
    if regressions:
        print(f"{len(regressions)} regression(s):")
        for line in regressions:
            print(f"  {line}")
        if args.warn_only:
            print("warn-only: not failing")
            return 0
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
