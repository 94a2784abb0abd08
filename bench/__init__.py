"""Cold, layer-attributed benchmark of the T3D simulator.

``python -m bench run`` regenerates five workloads cold, each in its own
fresh single-threaded child process, and prints every end-to-end metric
of ``BENCHMARK.json`` by name and unit; ``python -m bench trace`` adds a
traced pass that splits host time across the ``repro`` subpackages.
``python -m bench compare BASE.json... -- NEW.json...`` judges one set of
result files against another.  See ``bench/README.md``.

The parent process never imports ``repro``: only the children do, with
``src`` on their path, so the benchmark measures the checkout it sits in.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Checkout root: the directory holding ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: The seed the paper figures use.  2718 is held out: a claimed gain
#: must also show there.
DEFAULT_SEED = 1995


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units, bounds and
    the run length."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
