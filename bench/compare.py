"""Judge one set of benchmark result files against another.

    python bench/compare.py BASE.json... -- NEW.json... [--claim W:M ...]

For every pairing of workload and end-to-end metric it prints both
sides' median and quartiles and applies the metric's bound from
``BENCHMARK.json``:

* ``regression`` -- the new median is worse than the base median by
  more than the bound;
* ``unresolved`` -- either side's spread (quartile distance over
  median) is wider than the bound, unless every new run beats every
  base run;
* ``ok`` otherwise.

``fail_frac`` may not rise at all and ``paper_err_pct`` by no more than
0.1 points.  Raw host time (``wall_s``, ``sim_work_per_s``) is printed
beside them without a verdict.  Runs of the same workload and seed must
carry the same simulated-output digest.  ``--claim em3d-fig9:wall_rel``
additionally pairs base and new runs in the order given and requires
the new side to win at least 9 of every 10 pairs (ties count for
neither) by more than the base runs' quartile distance.  Per-layer
medians of traced
runs are printed beside the totals.  Exit status 1 flags a regression,
a digest mismatch or an unmet claim.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Result-file metrics judged besides BENCHMARK.json's: the largest
#: rise (absolute) each may take.
EXTRA_BOUNDS = {"fail_frac": 0.0, "paper_err_pct": 0.1}

#: Result-file metrics shown without a verdict: raw host time, which the
#: host's own drift moves as much as the code does.
RAW_METRICS = {"wall_s": "s", "sim_work_per_s": "unit/s"}

CLAIM_WIN_SHARE = 0.9


def stats(values) -> dict:
    """Median, quartiles and count, as ``statistics.quantiles`` cuts
    them."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def load_runs(paths) -> dict:
    """``workload -> [entry, ...]`` over every result file, in order."""
    runs: dict = {}
    for path in paths:
        with open(path) as handle:
            for name, entry in json.load(handle)["workloads"].items():
                runs.setdefault(name, []).append(entry)
    return runs


def judge_metric(base, new, better: str, bound: float) -> tuple:
    """``(verdict, signed worsening)`` for one workload and metric."""
    sign = 1.0 if better == "lower" else -1.0
    b, n = stats(base), stats(new)
    worse = sign * (n["median"] - b["median"]) / abs(b["median"]) \
        if b["median"] else 0.0
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    if max(spread(b), spread(n)) > bound and not all_better:
        return "unresolved", worse
    return ("regression" if worse > bound else "ok"), worse


def judge_claim(base, new, better: str) -> tuple[bool, str]:
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    b = stats(base)
    gap = abs(stats(new)["median"] - b["median"])
    met = (wins >= CLAIM_WIN_SHARE * len(pairs)
           and gap > b["q3"] - b["q1"])
    return met, (f"{wins}/{len(pairs)} pairs won, median gap {gap:.6g} "
                 f"vs base quartile distance {b['q3'] - b['q1']:.6g}")


def _fmt(summary: dict) -> str:
    return (f"{summary['median']:.6g} [{summary['q1']:.6g}, "
            f"{summary['q3']:.6g}] n={summary['n']}")


def compare(base_paths, new_paths, claims=(), spec=None, out=sys.stdout):
    """Print the comparison; returns the process exit status."""
    spec = spec or json.loads(SPEC_PATH.read_text())
    base, new = load_runs(base_paths), load_runs(new_paths)
    failed = False
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in base or name not in new:
            continue
        print(f"{name}: {len(base[name])} base runs, "
              f"{len(new[name])} new runs", file=out)
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b = [entry["metrics"][key] for entry in base[name]]
            n = [entry["metrics"][key] for entry in new[name]]
            verdict, worse = judge_metric(b, n, metric["better"],
                                          metric["bound"])
            failed |= verdict == "regression"
            print(f"  {key:<16} {_fmt(stats(b))} -> {_fmt(stats(n))} "
                  f"{metric['unit']}  worse by {100 * worse:+.2f}% "
                  f"(bound {100 * metric['bound']:.0f}%)  {verdict}",
                  file=out)
        for key, unit in RAW_METRICS.items():
            b = [entry["metrics"][key] for entry in base[name]]
            n = [entry["metrics"][key] for entry in new[name]]
            print(f"  {key:<16} {_fmt(stats(b))} -> {_fmt(stats(n))} "
                  f"{unit}  (raw, not judged)", file=out)
        for key, bound in EXTRA_BOUNDS.items():
            b = [entry[key] for entry in base[name] if entry[key] is not None]
            n = [entry[key] for entry in new[name] if entry[key] is not None]
            if b and n:
                rise = statistics.mean(n) - statistics.mean(b)
                verdict = "regression" if rise > bound else "ok"
                failed |= verdict == "regression"
                print(f"  {key:<16} mean {statistics.mean(b):.6g} -> "
                      f"{statistics.mean(n):.6g}  rise {rise:+.4g} "
                      f"(bound {bound:g})  {verdict}", file=out)
        digests: dict = {}
        for entry in base[name] + new[name]:
            digests.setdefault(entry["seed"], set()).add(entry["digest"])
        for seed, seen in sorted(digests.items()):
            if len(seen) != 1:
                failed = True
                print(f"  DIGEST MISMATCH at seed {seed}: simulated "
                      f"outputs differ ({len(seen)} digests)", file=out)
        layered = [(entry, side) for side, entries in
                   (("base", base[name]), ("new", new[name]))
                   for entry in entries if "per_layer" in entry]
        if {side for _e, side in layered} == {"base", "new"}:
            print("  per-layer medians (traced runs):", file=out)
            for metric in spec["per_layer"]:
                key = metric["name"]
                b = statistics.median(e["per_layer"][key]
                                      for e, s in layered if s == "base")
                n = statistics.median(e["per_layer"][key]
                                      for e, s in layered if s == "new")
                change = f"{100 * (n - b) / b:+.1f}%" if b else "n/a"
                print(f"    {key:<30} {b:.6g} -> {n:.6g} "
                      f"{metric['unit']} ({change})", file=out)
    units = {m["name"]: m for m in spec["end_to_end"]}
    for claim in claims:
        name, _, key = claim.partition(":")
        if key not in units or name not in base or name not in new:
            raise SystemExit(f"compare: unknown claim {claim!r}")
        met, detail = judge_claim(
            [e["metrics"][key] for e in base[name]],
            [e["metrics"][key] for e in new[name]], units[key]["better"])
        failed |= not met
        print(f"claim {claim}: {'met' if met else 'NOT MET'} ({detail})",
              file=out)
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    claims = []
    while "--claim" in argv:
        at = argv.index("--claim")
        claims.append(argv[at + 1])
        del argv[at:at + 2]
    if "--" not in argv:
        raise SystemExit(__doc__.split("\n\n")[1])
    at = argv.index("--")
    base, new = argv[:at], argv[at + 1:]
    if not base or not new:
        raise SystemExit("compare: need result files on both sides of --")
    return compare(base, new, claims)


if __name__ == "__main__":
    sys.exit(main())
