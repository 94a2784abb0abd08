"""Tests for the command-line interface and the experiment registry."""

import pytest

from repro.cli import main
from repro.reporting.experiments import all_experiments, generate_markdown


def test_headlines_command(capsys):
    assert main(["headlines"]) == 0
    out = capsys.readouterr().out
    assert "uncached_read" in out
    assert "annex_update" in out


def test_hazards_command(capsys):
    assert main(["hazards"]) == 0
    out = capsys.readouterr().out
    assert out.count("observed") >= 3
    assert "NOT OBSERVED" not in out


def test_em3d_command_quick(capsys):
    assert main(["em3d", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "simple" in out and "bulk" in out and "msg" in out
    assert "us/edge" in out


def test_experiments_to_file(tmp_path, capsys):
    target = tmp_path / "record.md"
    assert main(["experiments", "--quick", "-o", str(target)]) == 0
    text = target.read_text()
    assert "# EXPERIMENTS" in text
    assert "F1:" in text
    assert "Known deviations" in text


def test_reference_run_bypasses_warm_cache(tmp_path, monkeypatch):
    """``--reference`` runs the reference model: a warm result cache,
    which holds fast-path results, replays nothing."""
    from repro.parallel import cache_stats
    from repro.reporting import experiments

    subset = [e for e in all_experiments() if e.exp_id == "T9/T10"]
    monkeypatch.setattr(experiments, "all_experiments", lambda: subset)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    fast, reference = tmp_path / "fast.md", tmp_path / "reference.md"
    assert main(["experiments", "--quick", "-o", str(fast)]) == 0
    hits = cache_stats()["hits"]
    assert main(["experiments", "--quick", "-o", str(fast)]) == 0
    assert cache_stats()["hits"] == hits + 1          # the cache is warm
    assert main(["experiments", "--quick", "--reference",
                 "-o", str(reference)]) == 0
    assert cache_stats()["hits"] == hits + 1
    assert reference.read_text() == fast.read_text()


def test_experiment_registry_covers_all_artifacts():
    ids = " ".join(e.exp_id for e in all_experiments())
    for artifact in ("F1", "F2", "F4", "F5", "F6", "F7", "F8", "F9",
                     "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9",
                     "T10"):
        assert artifact in ids, artifact


def test_generate_markdown_quick_ratios_near_one():
    text = generate_markdown(quick=True)
    # Spot-check a few exact calibrations survive the quick sweep.
    assert "| annex update (cycles) | 23.00 | 23.00 | 1.00 | cy |" in text
    assert "| message send (ns) | 813.00 | 813.33 | 1.00 | ns |" in text


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bench_unknown_experiment_lists_names(capsys):
    assert main(["bench", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'nosuch'" in err
    assert "headlines" in err and "em3d" in err and "fig9" in err


def test_experiments_json_output(tmp_path):
    import json
    target = tmp_path / "record.json"
    assert main(["experiments", "--quick", "--json",
                 "-o", str(target)]) == 0
    data = json.loads(target.read_text())
    assert isinstance(data, list) and len(data) >= 8
    first = data[0]
    assert first["id"] == "F1"
    assert all({"quantity", "paper", "measured", "ratio", "unit"}
               <= set(row) for row in first["rows"])
