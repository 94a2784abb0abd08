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
* ``models list`` — the registered analytic surrogate models.
* ``models fit [--quick] [--strict] [-o FILE]`` — calibrate every
  model against the simulator and write the fitted-parameter artifact.
* ``models predict MODEL feature=value...`` — O(1) serving tier:
  evaluate one fitted closed form at a stimulus point, no simulation.
* ``models report [--check] [--refit] [-o FILE]`` — simulated-vs-
  predicted tables; ``--check`` is the calibrate-check gate (exit
  nonzero when committed parameters miss their recorded MAPE).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["build_parser", "main"]


def _cmd_experiments(args) -> int:
    if args.reference:
        # The environment switch reaches sweep-engine workers too, and
        # the result cache is bypassed while it is on.
        from repro import tiers
        with tiers.reference():
            return _write_experiments(args)
    return _write_experiments(args)


def _write_experiments(args) -> int:
    use_cache = False if args.no_cache else None
    if args.json:
        import json

        from repro.reporting.experiments import generate_json
        text = json.dumps(generate_json(quick=args.quick, jobs=args.jobs,
                                        use_cache=use_cache), indent=2)
    else:
        from repro.reporting.experiments import generate_markdown
        text = generate_markdown(quick=args.quick, jobs=args.jobs,
                                 use_cache=use_cache)
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

    This is the perf-trajectory companion to ``make bench``: when a
    benchmark regresses, ``repro bench <experiment>`` shows where the
    cycles went without any pytest machinery in the profile.
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


def _cmd_models_list(args) -> int:
    from repro.models import all_models
    for model in all_models():
        print(f"{model.name:<24} {model.units:>8}  "
              f"{len(model.param_specs)} params  "
              f"gate {model.target_mape:.1f}%  [{model.figure}] "
              f"{model.title}")
    return 0


def _cmd_models_fit(args) -> int:
    from repro.models import all_models, save_artifact
    from repro.models.calibrate import CalibrationError, calibrate_models
    use_cache = False if args.no_cache else None
    try:
        results = calibrate_models(all_models(), quick=args.quick,
                                   jobs=args.jobs, use_cache=use_cache,
                                   strict=args.strict)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(result.describe())
    path = save_artifact(results, path=args.output, quick=args.quick)
    print(f"wrote {path}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_models_predict(args) -> int:
    from repro.models import artifact_results, get_model, load_artifact
    try:
        model = get_model(args.model)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    payload = load_artifact(args.artifact)
    fitted = {r.model: r for r in artifact_results(payload)}
    if args.model not in fitted:
        print(f"artifact has no fit for {args.model!r}", file=sys.stderr)
        return 1
    point = {}
    for pair in args.features:
        name, _, raw = pair.partition("=")
        if not _:
            print(f"feature {pair!r} is not name=value", file=sys.stderr)
            return 1
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        point[name] = value
    missing = [n for n in model.feature_names if n not in point]
    if missing:
        print(f"{args.model} needs features "
              f"{list(model.feature_names)}; missing {missing}",
              file=sys.stderr)
        return 1
    predicted = model.predict(fitted[args.model].params, model.machine,
                              point)
    print(f"{predicted:.4f} {model.units}")
    return 0


def _cmd_models_report(args) -> int:
    from repro.reporting.models import check_artifact, generate_markdown
    use_cache = False if args.no_cache else None
    if args.check:
        results, failures = check_artifact(path=args.artifact,
                                           quick=args.quick,
                                           jobs=args.jobs,
                                           use_cache=use_cache)
        for result in results:
            print(result.describe())
        if failures:
            print(f"calibrate-check: {len(failures)} model(s) no "
                  f"longer meet their recorded MAPE gate — the "
                  f"simulator's behavior has drifted since the fit",
                  file=sys.stderr)
            return 1
        print("calibrate-check: committed parameters still fit")
        return 0
    text = generate_markdown(quick=args.quick, jobs=args.jobs,
                             use_cache=use_cache, artifact=args.artifact,
                             refit=args.refit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
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
    p.add_argument("-j", "--jobs", type=int, default=None,
                   help="experiment fan-out processes (default: "
                        "$REPRO_JOBS, else 1 = serial; 0 = all cores)")
    p.add_argument("--reference", action="store_true",
                   help="run every layer's reference model (no fast "
                        "path, no result cache); equivalent to "
                        "REPRO_FAST=0")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore the persistent result cache and "
                        "recompute every experiment")
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

    p = sub.add_parser("models",
                       help="analytic surrogate models: fit, serve, "
                            "and regression-check")
    msub = p.add_subparsers(dest="models_command", required=True)

    m = msub.add_parser("list", help="print the model registry")
    m.set_defaults(func=_cmd_models_list)

    m = msub.add_parser("fit",
                        help="calibrate every model and write the "
                             "fitted-parameter artifact")
    m.add_argument("--quick", action="store_true",
                   help="reduced calibration sweeps")
    m.add_argument("--strict", action="store_true",
                   help="raise on the first MAPE-gate miss instead of "
                        "recording it")
    m.add_argument("-j", "--jobs", type=int, default=None,
                   help="observation fan-out processes (default: "
                        "$REPRO_JOBS, else 1 = serial; 0 = all cores)")
    m.add_argument("--no-cache", action="store_true",
                   help="ignore the persistent result cache")
    m.add_argument("-o", "--output", default=None,
                   help="artifact path (default FITTED_MODELS.json "
                        "at the repo root)")
    m.set_defaults(func=_cmd_models_fit)

    m = msub.add_parser("predict",
                        help="evaluate one fitted model at a stimulus "
                             "point (O(1), no simulation)")
    m.add_argument("model", help="registry name, e.g. fig1_local_read")
    m.add_argument("features", nargs="*", metavar="name=value",
                   help="stimulus features, e.g. size=65536 stride=64")
    m.add_argument("--artifact", default=None,
                   help="fitted-parameter artifact to read "
                        "(default FITTED_MODELS.json)")
    m.set_defaults(func=_cmd_models_predict)

    m = msub.add_parser("report",
                        help="simulated-vs-predicted tables with "
                             "per-model MAPE")
    m.add_argument("--quick", action="store_true",
                   help="reduced observation sweeps")
    m.add_argument("--refit", action="store_true",
                   help="calibrate from scratch instead of "
                        "re-evaluating the committed artifact")
    m.add_argument("--check", action="store_true",
                   help="calibrate-check gate: exit nonzero when "
                        "committed parameters miss their recorded "
                        "MAPE target against the current simulator")
    m.add_argument("-j", "--jobs", type=int, default=None,
                   help="observation fan-out processes")
    m.add_argument("--no-cache", action="store_true",
                   help="ignore the persistent result cache")
    m.add_argument("--artifact", default=None,
                   help="fitted-parameter artifact to read")
    m.add_argument("-o", "--output", default=None,
                   help="write the markdown report to a file")
    m.set_defaults(func=_cmd_models_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
