"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments [--quick] [-o FILE]`` — run every table/figure
  reproduction and write the paper-vs-measured record (EXPERIMENTS.md
  format).
* ``headlines`` — print the headline latency measurements.
* ``em3d [--quick]`` — run the Figure 9 sweep and print the table.
* ``hazards`` — run the three semantic-hazard probes.
* ``bench EXPERIMENT [--quick] [--top N]`` — run one experiment under
  ``cProfile`` and print the top cumulative hotspots.
* ``trace EXPERIMENT [--quick] [-o FILE] [--chrome FILE]`` — run one
  experiment with event tracing on and write the JSONL stream
  (optionally also a Chrome trace for ``chrome://tracing``).
* ``counters EXPERIMENT [--quick]`` — run one experiment traced and
  print the per-primitive event/counter summary.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["build_parser", "main"]


def _cmd_experiments(args) -> int:
    if args.reference:
        from repro import tiers
        with tiers.reference():
            return _write_experiments(args)
    return _write_experiments(args)


def _write_experiments(args) -> int:
    if args.json:
        import json

        from repro.reporting.experiments import generate_json
        text = json.dumps(generate_json(quick=args.quick), indent=2)
    else:
        from repro.reporting.experiments import generate_markdown
        text = generate_markdown(quick=args.quick)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_headlines(args) -> int:
    from repro.microbench.probes import measure_headlines
    from repro.params import cycles_to_ns
    for name, cycles in measure_headlines().items():
        print(f"{name:<28} {cycles:10.1f} cy {cycles_to_ns(cycles):10.1f} ns")
    return 0


def _cmd_em3d(args) -> int:
    from repro.apps.em3d import VERSIONS, sweep

    nodes, degree = (60, 5) if args.quick else (300, 12)
    points = sweep(fractions=(0.0, 0.2, 0.5), nodes_per_pe=nodes,
                   degree=degree)
    header = f"{'% remote':>9}" + "".join(f"{v:>9}" for v in VERSIONS)
    print(header)
    print("-" * len(header))
    by_frac = {}
    for point in points:
        by_frac.setdefault(point.requested_fraction, {})[
            point.version] = point.us_per_edge
    for frac in (0.0, 0.2, 0.5):
        row = f"{100 * frac:>8.0f}%"
        for version in VERSIONS:
            row += f"{by_frac[frac][version]:>9.3f}"
        print(row)
    print("(us/edge)")
    return 0


def _cmd_hazards(args) -> int:
    from repro.microbench import probes
    ok = True
    for name, probe in [
        ("write-buffer synonyms (3.4)", probes.synonym_hazard_probe),
        ("status bit vs write buffer (4.3)", probes.status_bit_hazard_probe),
        ("stale cached reads (4.4)", probes.stale_cached_read_probe),
    ]:
        result = probe()
        ok = ok and result.hazard_observed
        state = "observed" if result.hazard_observed else "NOT OBSERVED"
        print(f"{name:<36} {state}")
        print(f"    {result.detail}")
    return 0 if ok else 1


def _cmd_series(args) -> int:
    from repro.reporting.series import generate_series, to_csv
    text = to_csv(generate_series(args.figure, quick=args.quick))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_bench(args) -> int:
    """Run one named experiment under cProfile and print the hotspots.

    This is the profiling companion to the cold benchmark
    (``python3 -m bench``): when a workload regresses, ``repro bench
    <experiment>`` shows where the host time went.
    """
    import cProfile
    import pstats
    import time

    from repro.reporting.series import SERIES
    names = ["headlines", "em3d", *sorted(SERIES)]
    if args.experiment not in names:
        print(f"repro bench: unknown experiment {args.experiment!r}; "
              f"choose from {', '.join(names)}", file=sys.stderr)
        return 2

    def runner():
        if args.experiment == "headlines":
            from repro.microbench.probes import measure_headlines
            measure_headlines()
        elif args.experiment == "em3d":
            from repro.apps.em3d import sweep
            nodes, degree = (60, 5) if args.quick else (200, 10)
            sweep(fractions=(0.0, 0.2, 0.5), nodes_per_pe=nodes,
                  degree=degree)
        else:
            from repro.reporting.series import generate_series
            generate_series(args.experiment, quick=args.quick)

    start = time.perf_counter()
    profiler = cProfile.Profile()
    profiler.enable()
    runner()
    profiler.disable()
    wall = time.perf_counter() - start
    print(f"{args.experiment}: {wall:.3f} s wall clock")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0


def _cmd_trace(args) -> int:
    from repro.reporting.observability import run_traced
    output = args.output or f"{args.experiment}.trace.jsonl"
    tracer = run_traced(args.experiment, quick=args.quick, sink=output)
    distinct = len(tracer.counters)
    print(f"wrote {output} ({tracer.events_emitted} events, "
          f"{distinct} distinct types)")
    if args.chrome:
        from repro.trace.chrome import write_chrome
        n = write_chrome(tracer.ring, args.chrome)
        print(f"wrote {args.chrome} ({n} Chrome trace events)")
    return 0


def _cmd_counters(args) -> int:
    from repro.reporting.observability import run_traced
    from repro.trace.summary import format_summary
    tracer = run_traced(args.experiment, quick=args.quick)
    print(f"{args.experiment}:")
    print(format_summary(tracer))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argparse tree (exposed for docs-integrity tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRAY-T3D reproduction toolkit (ISCA 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments",
                       help="regenerate the paper-vs-measured record")
    p.add_argument("--quick", action="store_true",
                   help="reduced sweeps (seconds instead of minutes)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of markdown")
    p.add_argument("-o", "--output", default=None,
                   help="write to a file instead of stdout")
    p.add_argument("--reference", action="store_true",
                   help="run every layer's reference model (no fast "
                        "path); equivalent to REPRO_FAST=0")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("headlines", help="print headline latencies")
    p.set_defaults(func=_cmd_headlines)

    p = sub.add_parser("em3d", help="run the Figure 9 sweep")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_em3d)

    p = sub.add_parser("hazards", help="run the semantic-hazard probes")
    p.set_defaults(func=_cmd_hazards)

    p = sub.add_parser("bench",
                       help="profile a named experiment under cProfile")
    p.add_argument("experiment",
                   help="fig1, fig2, fig4-fig9, em3d, or headlines")
    p.add_argument("--quick", action="store_true",
                   help="reduced problem sizes")
    p.add_argument("--top", type=int, default=20,
                   help="how many hotspots to print (default 20)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("series",
                       help="emit one figure's data series as CSV")
    p.add_argument("figure", help="fig1, fig2, fig4-fig9")
    p.add_argument("--quick", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("trace",
                       help="run an experiment with event tracing on")
    p.add_argument("experiment",
                   help="fig1, fig2, fig4-fig9, em3d, or headlines")
    p.add_argument("--quick", action="store_true",
                   help="reduced problem sizes")
    p.add_argument("-o", "--output", default=None,
                   help="JSONL output path (default EXPERIMENT"
                        ".trace.jsonl)")
    p.add_argument("--chrome", default=None, metavar="FILE",
                   help="also write a Chrome trace (chrome://tracing) "
                        "converted from the in-memory ring")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("counters",
                       help="run an experiment traced and print the "
                            "per-primitive counter summary")
    p.add_argument("experiment",
                   help="fig1, fig2, fig4-fig9, em3d, or headlines")
    p.add_argument("--quick", action="store_true",
                   help="reduced problem sizes")
    p.set_defaults(func=_cmd_counters)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
