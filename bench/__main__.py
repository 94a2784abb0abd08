"""Command line: ``python -m bench run|trace|compare``.

``run`` measures every workload (or ``--workload NAME``) cold and
prints every end-to-end metric; ``trace`` also splits host time across
layers; ``compare BASE.json... -- NEW.json...`` judges two sets of
result files.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import sys

from bench import DEFAULT_SEED, load_spec


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from bench import compare
        return compare.main(argv[1:])
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("command", choices=("run", "trace"))
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 adds the traced passes (as 'trace' does)")
    parser.add_argument("--out", help="result file "
                        "(default: bench/out/<workload>-seed<seed>.json)")
    args = parser.parse_args(argv)
    trace = 1 if args.command == "trace" else (args.trace or 0)

    from bench.run import BenchError, run
    try:
        return run([args.workload] if args.workload else names, args.seed,
                   args.seconds, trace, args.out)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
