"""One workload in one fresh process: set up, signal ready, measure.

:mod:`bench.run` spawns ``python -m bench.child`` with a pinned
environment.  The child prints ``ready`` as soon as the workload's
inputs exist -- the parent's set-up time ends at that line -- and, in
``measure`` mode, ends with one ``RESULT {...}`` line.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import resource
import sys
from time import perf_counter

from bench import OUT_DIR, ROOT
from bench.compare import stats

#: Timed iterations run even when fewer would fill the time budget, so
#: that every run has a median and a spread.
MIN_ITERATIONS = 2

#: Untimed iterations before the timed ones.  They are checked, and the
#: first one's digest is what every later iteration must reproduce.
WARMUP_ITERATIONS = 1

#: Steps of :func:`reference_loop`: 0.07-0.1 s on the baseline host.
REFERENCE_STEPS = 300_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def bump(self, step):
        self.value = (self.value * 31 + step) & 0xFFFF
        return self.value


def reference_loop() -> int:
    """Fixed pure-Python work in the simulator's idiom: dict lookups,
    slot attributes, method calls and small-int arithmetic over a 16K
    entry table.  Timed next to every iteration, it gauges how fast the
    host runs Python at that moment; ``wall_rel`` divides by it."""
    table, total = {}, 0
    for step in range(REFERENCE_STEPS):
        key = (step * 2654435761) & 0x3FFF
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(step)
        total += cell.bump(step)
    return total


def judge(workload, inputs, out, first_digest):
    """``(digest, failure)`` of one iteration's output; ``failure`` is
    None when the output passes its check and matches iteration 1."""
    try:
        workload.check(inputs, out)
        digest = workload.digest(out)
    except Exception as exc:    # any malformed output is a failed check
        return None, f"check failed: {type(exc).__name__}: {exc}"
    if first_digest is not None and digest != first_digest:
        return digest, "output differs from iteration 1"
    return digest, None


def measure(workload, inputs, seconds: float) -> dict:
    """Run cold iterations, after :data:`WARMUP_ITERATIONS` untimed
    ones, until ``seconds`` have been timed.

    Each iteration is preceded by a timed :func:`reference_loop`, and
    both count towards ``seconds``.  Before each iteration the probe
    memo is cleared and garbage is collected; the collector stays on
    inside the timed region, because users pay for collecting their own
    garbage.  Checks run after the clock stops.
    """
    from bench.workloads import paper_err_pct
    from repro.microbench.harness import clear_probe_memo

    walls, refs, errors = [], [], []
    attempted, work, passed, first, rows = 0, 0, 0, None, None
    while (attempted < WARMUP_ITERATIONS + MIN_ITERATIONS
           or sum(walls) + sum(refs) < seconds):
        gc.collect()
        start = perf_counter()
        reference_loop()
        ref = perf_counter() - start
        clear_probe_memo()
        gc.collect()
        start = perf_counter()
        try:
            out, error = workload.iterate(inputs), None
        except Exception as exc:    # a raising iteration is a failed one
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        attempted += 1
        if attempted > WARMUP_ITERATIONS:
            walls.append(wall)
            refs.append(ref)
        if error is None:
            digest, error = judge(workload, inputs, out, first)
            first = first or digest
        if error is None:
            work += workload.work(inputs, out)
            passed += 1
            rows = rows or workload.paper_rows(out)
        else:
            errors.append(f"iteration {attempted}: {error}")
            print(f"{workload.name}: {errors[-1]}", file=sys.stderr)
    wall = dict(stats(walls), samples=walls)
    # Each iteration over the reference loop timed just before it: the
    # pair shares the host's speed of that moment, so their ratio drifts
    # far less than either time.
    rel = [w / r for w, r in zip(walls, refs)]
    # One iteration's work over the median iteration: a rate as robust
    # to slow outliers as wall_s itself.
    work_per_iteration = work / passed if passed else 0
    return {
        "attempted": attempted, "failed": len(errors), "errors": errors,
        "wall": wall, "ref": dict(stats(refs), samples=refs),
        "rel": dict(stats(rel), samples=rel), "sim_work": work_per_iteration,
        "work_unit": workload.work_unit,
        "sim_work_per_s": work_per_iteration / wall["median"],
        "digest": first, "paper_rows": rows,
        "paper_err_pct": paper_err_pct(rows) if rows else None,
    }


def traced(workload, inputs, result: dict) -> dict:
    """The span pass and the counter pass, one iteration each; their
    outputs must match the untraced ones."""
    from bench import layers
    from repro.microbench.harness import clear_probe_memo

    ledger = layers.SpanLedger()
    clear_probe_memo()
    gc.collect()
    with layers.installed(ledger):
        ledger.open()
        span_out = workload.iterate(inputs)
        ledger.close()
    clear_probe_memo()
    gc.collect()
    counted_out, counts, shell_ops = layers.counter_pass(
        lambda: workload.iterate(inputs))
    for name, out in (("span pass", span_out),
                      ("counter pass", counted_out)):
        result["attempted"] += 1
        _digest, error = judge(workload, inputs, out, result["digest"])
        if error is not None:
            result["failed"] += 1
            result["errors"].append(f"{name}: {error}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    chrome = OUT_DIR / f"{workload.name}.trace.json"
    layers.write_chrome_trace(ledger, chrome)
    return {
        "per_layer": layers.per_layer_metrics(
            ledger, counts, shell_ops, result["wall"]["median"]),
        "traced_wall_s": ledger.wall_s,
        "traced_self_sum_s": sum(ledger.self_s.values()),
        "boundaries": sorted(([caller, callee, count] for (caller, callee),
                              count in ledger.boundaries.items()),
                             key=lambda b: -b[2]),
        "chrome_trace": str(chrome.relative_to(ROOT)),
    }


def environment() -> dict:
    """Which tiers answered, and proof the run never touched the
    result cache."""
    from repro import vector
    from repro.machine.cohort import cohort_enabled
    from repro.parallel import cache_stats

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cache = cache_stats()
    return {
        "tiers": {"vector": vector.enabled(), "cohort": cohort_enabled()},
        "cache_stats": cache,
        "cold": cache["hits"] == 0 and cache["stores"] == 0,
        "numpy": numpy_version,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        default="measure")
    args = parser.parse_args(argv)

    from bench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    result = measure(workload, inputs, args.seconds)
    if args.trace:
        result.update(traced(workload, inputs, result))
    result.update(environment())
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
