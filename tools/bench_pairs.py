#!/usr/bin/env python3
"""Alternating pairs of cold benchmark runs: one commit against another.

A performance claim compares ``python3 -m bench run`` results of two
trees (bench/README.md).  This script runs that protocol:

1. ``git archive`` the base revision into a temporary directory, and
   the new side too: another revision, or (by default) a fresh copy of
   this checkout's tracked and untracked, not ignored files, so neither
   side carries a bytecode cache;
2. run ``python3 -m bench run --workload W --seed S`` in each tree,
   ``--pairs`` times, alternating which tree goes first;
3. keep every result file under ``--out`` (``base/`` and ``new/``);
4. call ``python3 -m bench compare BASE... -- NEW... [--claim W:M]``
   once per seed and return its status.

Example::

    python3 tools/bench_pairs.py --base HEAD~1 --workload bulk-transfer \\
        --seed 1995 --seed 2718 --pairs 10 --claim bulk-transfer:wall_rel

With ``--setup-only N`` it times set-up alone: ``N`` children per tree
of ``python3 -m bench.child --mode setup`` (the workload's imports and
inputs, up to its ``ready`` line), alternating trees, and prints each
side's median and interquartile range of spawn-to-ready seconds::

    python3 tools/bench_pairs.py --base HEAD~1 --workload em3d-fig9 \\
        --setup-only 12

Run nothing else on the host meanwhile: the runs are timed.
"""

from __future__ import annotations

import argparse
import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"

sys.path.insert(0, str(ROOT))
from bench.compare import stats  # noqa: E402
from bench.run import child_env  # noqa: E402


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def make_tree(rev: str, dest: Path) -> Path:
    """A fresh copy of ``rev`` (or of the checkout) at ``dest``."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        listed = _git("ls-files", "-z", "--cached", "--others",
                      "--exclude-standard").split(b"\0")
        for name in filter(None, listed):
            src = ROOT / name.decode()
            if src.is_file():
                target = dest / name.decode()
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, target)
    else:
        archive = _git("archive", "--format=tar", rev)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)    # git's own archive: trusted paths
    return dest


def run_once(tree: Path, workload: str, seed: int, out: Path) -> None:
    """One cold ``bench run`` in ``tree``, its result file at ``out``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "bench", "run", "--workload",
                    workload, "--seed", str(seed), "--out", str(out)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    print(f"  {out.relative_to(out.parents[2])}", flush=True)


def setup_once(tree: Path, workload: str, seed: int) -> float:
    """Seconds from spawning a set-up-only child in ``tree`` to its
    ``ready`` line, in the environment ``bench run`` gives a child."""
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--mode", "setup"]
    env = dict(child_env(), PYTHONPATH=str(tree / "src"))
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        seconds = perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{workload} set-up child in {tree} exited "
                           f"with code {proc.returncode}")
    return seconds


def setup_pairs(trees: dict, workload: str, seed: int, count: int) -> None:
    """Time ``count`` set-up-only children per tree, alternating which
    tree goes first, and print each side's median and IQR."""
    times = {"base": [], "new": []}
    for i in range(count):
        for side in ("base", "new") if i % 2 == 0 else ("new", "base"):
            times[side].append(setup_once(trees[side], workload, seed))
    for side, values in times.items():
        summary = stats(values)
        print(f"  {side:4}  median {summary['median']:.3f} s  IQR "
              f"{summary['q3'] - summary['q1']:.3f} s "
              f"({summary['q1']:.3f}-{summary['q3']:.3f}), "
              f"range {min(values):.3f}-{max(values):.3f}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/bench_pairs.py",
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision to compare against (e.g. HEAD~1)")
    parser.add_argument("--new", default=WORKTREE,
                        help="revision of the new side (default: a copy "
                        "of this checkout, uncommitted changes included)")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run (repeatable)")
    parser.add_argument("--seed", type=int, action="append",
                        help="input seed (repeatable; default 1995)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", action="append", default=[],
                        help="W:M claim for bench compare (repeatable)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench-pairs",
                        help="directory for the result files")
    parser.add_argument("--setup-only", type=int, metavar="N",
                        help="time N set-up-only children per tree "
                        "instead of running pairs")
    args = parser.parse_args(argv)
    seeds = args.seed or [1995]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": make_tree(args.base, Path(tmp) / "base"),
                 "new": make_tree(args.new, Path(tmp) / "new")}
        if args.setup_only:
            for seed in seeds:
                for workload in args.workload:
                    print(f"{workload} seed {seed}: {args.setup_only} "
                          f"set-up-only children per side, {args.base} "
                          f"vs {args.new}", flush=True)
                    setup_pairs(trees, workload, seed, args.setup_only)
            return 0
        status = 0
        for seed in seeds:
            files = {"base": [], "new": []}
            for workload in args.workload:
                print(f"{workload} seed {seed}: {args.pairs} pairs, "
                      f"{args.base} vs {args.new}", flush=True)
                for i in range(args.pairs):
                    sides = ("base", "new") if i % 2 == 0 else ("new", "base")
                    for side in sides:
                        out = (args.out.resolve() / f"seed{seed}" / side
                               / f"{workload}-{i:02d}.json")
                        run_once(trees[side], workload, seed, out)
                        files[side].append(str(out))
            claims = [arg for claim in args.claim
                      for arg in ("--claim", claim)]
            status |= subprocess.run(
                [sys.executable, "-m", "bench", "compare", *files["base"],
                 "--", *files["new"], *claims], cwd=trees["new"]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
