"""The committed paper-vs-measured record is what the simulator says.

A cold, serial regeneration of EXPERIMENTS.md must equal the committed
file byte for byte: any change to a simulated number, a paper value or
the rendering shows up here, and the fix is to regenerate the record
(``python -m repro experiments -o EXPERIMENTS.md``) and review the diff.
"""

from pathlib import Path

from repro.reporting.experiments import generate_markdown

ROOT = Path(__file__).resolve().parents[2]


def test_generated_record_matches_committed_experiments_md():
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    assert generate_markdown() == committed
