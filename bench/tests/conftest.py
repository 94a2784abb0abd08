"""Make ``repro`` importable from the checkout's ``src`` for the bench
tests, as the benchmark's own child processes do."""

import sys

from bench import ROOT

SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
