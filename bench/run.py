"""Parent side of a run: one fresh child per workload, set-up timing,
provenance, the result file and the printed report.

The workloads run one after another, each in its own child process
with a pinned environment (:data:`PINNED_ENV`, every other ``REPRO_*``
variable unset, so the default tiers are what gets measured).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
from time import perf_counter

from bench import OUT_DIR, ROOT, load_spec
from bench.compare import stats

#: Set-up is timed in this many fresh children per run (the last one
#: goes on to measure); the median is reported.
SETUP_SAMPLES = 5

#: Seconds a child may live before it is killed.
CHILD_TIMEOUT_S = 170

PINNED_ENV = {
    "REPRO_CACHE": "0", "REPRO_JOBS": "1", "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """A child did not produce a result."""


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int,
          mode: str) -> tuple[float, str]:
    """Run one child; returns the seconds from spawn to its ``ready``
    line, and everything it printed after that line."""
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--mode", mode]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload} ({mode}): child exited with code "
                         f"{proc.returncode}")
    return setup_s, rest


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up ``name`` :data:`SETUP_SAMPLES` times, measure it once."""
    load_start = os.getloadavg()
    setups = [spawn(name, seed, seconds, trace, "setup")[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, stdout = spawn(name, seed, seconds, trace, "measure")
    setups.append(setup_s)
    lines = [line for line in stdout.splitlines()
             if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{name}: child printed no result")
    entry = json.loads(lines[-1][len("RESULT "):])
    load_end = os.getloadavg()
    entry.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        setup=dict(stats(setups), samples=setups),
        loadavg={"start": load_start, "end": load_end},
        noisy=load_start[0] > (os.cpu_count() or 1),
        fail_frac=entry["failed"] / entry["attempted"],
        correct=entry["failed"] == 0 and entry["cold"],
    )
    entry["metrics"] = {
        "wall_rel": entry["rel"]["median"],
        "setup_s": entry["setup"]["median"],
        "peak_rss_mb": entry["peak_rss_mb"],
        # Raw host time, reported but not in BENCHMARK.json: the host's
        # drift moves it as much as the code does.
        "wall_s": entry["wall"]["median"],
        "sim_work_per_s": entry["sim_work_per_s"],
    }
    return entry


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    rev = dirty = None
    if (ROOT / ".git").exists():       # a bare checkout has no history
        rev = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {"git_rev": rev, "git_dirty": dirty,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def report(entry: dict, spec: dict) -> str:
    """Every end-to-end metric by name and unit, then the traced
    per-layer metrics if there are any."""
    wall = entry["wall"]
    lines = [
        f"{entry['workload']}: seed {entry['seed']}, "
        f"{wall['n']} iterations, "
        f"{'cold' if entry['cold'] else 'NOT COLD'}, load "
        f"{entry['loadavg']['start'][0]:.2f} on {os.cpu_count()} cpus"
        + (" (noisy)" if entry["noisy"] else "")]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lines.append(f"  {name:<16} {entry['metrics'][name]:>14.6g} "
                     f"{metric['unit']}")
    lines.append(f"  {'wall_s':<16} {wall['median']:>14.6g} s (raw; "
                 f"quartiles {wall['q1']:.4f} .. {wall['q3']:.4f}, "
                 f"reference loop {entry['ref']['median']:.4f} s)")
    lines.append(f"  {'sim_work_per_s':<16} "
                 f"{entry['sim_work_per_s']:>14.6g} {entry['work_unit']}/s")
    lines.append(f"  {'fail_frac':<16} {entry['fail_frac']:>14.6g} ratio "
                 f"({entry['failed']}/{entry['attempted']})")
    if entry["paper_err_pct"] is not None:
        lines.append(f"  {'paper_err_pct':<16} "
                     f"{entry['paper_err_pct']:>14.6g} %")
    lines.append(f"  {'digest':<16} {entry['digest']}")
    for error in entry["errors"]:
        lines.append(f"  FAILED: {error}")
    if "per_layer" in entry:
        lines.append(f"  traced iteration {entry['traced_wall_s']:.4f} s, "
                     f"layer self times sum to "
                     f"{entry['traced_self_sum_s']:.4f} s; spans in "
                     f"{entry['chrome_trace']}")
        for metric in spec["per_layer"]:
            lines.append(f"    {metric['name']:<30} "
                         f"{entry['per_layer'][metric['name']]:>14.6g} "
                         f"{metric['unit']}")
    return "\n".join(lines)


def result_line(entry: dict, spec: dict) -> str:
    """The one-line JSON result: end-to-end metrics, or the per-layer
    ones for a traced run."""
    if entry["trace"]:
        values, metrics = entry["per_layer"], spec["per_layer"]
    else:
        values, metrics = entry["metrics"], spec["end_to_end"]
    return json.dumps({
        "correct": entry["correct"], "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in metrics},
    })


def run(workloads, seed: int, seconds: float, trace: int, out) -> int:
    """Run ``workloads`` in order; write the result file; print the
    report (and, for one workload, the JSON result line last)."""
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no simulator source at {ROOT / 'src' / 'repro'}")
    results = {"provenance": provenance(), "seed": seed,
               "seconds": seconds, "trace": trace, "workloads": {}}
    for name in workloads:
        entry = run_workload(name, seed, seconds, trace)
        results["workloads"][name] = entry
        print(report(entry, spec), flush=True)
    if out is None:
        stem = workloads[0] if len(workloads) == 1 else "all"
        out = OUT_DIR / f"{stem}-seed{seed}{'-trace' if trace else ''}.json"
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=1)
    entries = list(results["workloads"].values())
    correct = all(entry["correct"] for entry in entries)
    print(f"results in {out}", flush=True)
    if len(entries) == 1:
        print(result_line(entries[0], spec), flush=True)
    else:
        print("all outputs correct" if correct
              else "SOME OUTPUT CHECKS FAILED", flush=True)
    return 0 if correct else 1
