"""Documentation integrity: every file path the docs reference exists,
and the repo's deliverable files are present."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCS = ["README.md", "DESIGN.md", "docs/timing_model.md",
        "docs/api_guide.md", "docs/paper_map.md",
        "docs/observability.md", "docs/performance.md"]

#: Path-like references worth checking: backticked repo-relative paths.
_PATH_RE = re.compile(
    r"`((?:src/|tests/|examples/|docs/|repro/)"
    r"[A-Za-z0-9_/.]+\.(?:py|md))`")


def test_deliverable_files_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "pyproject.toml"):
        assert (ROOT / name).exists(), name
    for name in DOCS:
        assert (ROOT / name).exists(), name


@pytest.mark.parametrize("doc", DOCS)
def test_doc_path_references_resolve(doc):
    text = (ROOT / doc).read_text()
    missing = []
    for match in _PATH_RE.finditer(text):
        path = match.group(1)
        candidates = [ROOT / path, ROOT / "src" / path]
        if not any(c.exists() for c in candidates):
            missing.append(path)
    assert not missing, f"{doc} references missing files: {missing}"


def test_design_lists_every_benchmark_that_exists():
    """DESIGN.md's experiment index names every paper-check module in
    ``tests/paper/``, and only modules that exist."""
    text = (ROOT / "DESIGN.md").read_text()
    listed = set(re.findall(r"tests/paper/(test_[A-Za-z0-9_]+\.py)", text))
    on_disk = {p.name for p in (ROOT / "tests" / "paper").glob("test_*.py")}
    assert listed == on_disk, (
        f"missing from DESIGN.md: {sorted(on_disk - listed)}; "
        f"listed but absent: {sorted(listed - on_disk)}")


def test_examples_mentioned_in_readme_exist():
    text = (ROOT / "README.md").read_text()
    for match in re.findall(r"examples/([A-Za-z0-9_]+\.py)", text):
        assert (ROOT / "examples" / match).exists(), match


def test_readme_mentions_all_examples():
    text = (ROOT / "README.md").read_text()
    on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
    mentioned = set(re.findall(r"examples/([A-Za-z0-9_]+\.py)", text))
    assert on_disk <= mentioned | {"__init__.py"}, \
        f"undocumented examples: {on_disk - mentioned}"


def test_experiment_index_in_design_covers_f_and_t_ids():
    text = (ROOT / "DESIGN.md").read_text()
    for exp_id in ["F1", "F2", "F4", "F5", "F6", "F7", "F8", "F9",
                   "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
                   "T9", "T10", "A1", "A2", "A3", "A4"]:
        assert f"| {exp_id} " in text, exp_id


# ------------------------------------------------------- CLI consistency

#: ``repro <subcommand>`` / ``python -m repro <subcommand>`` mentions.
#: Restricted to code spans and fenced blocks so prose like "the repro
#: is calibrated" never false-positives.
_CLI_RE = re.compile(r"(?:python -m )?\brepro ([a-z][a-z0-9]*)\b")


def _code_snippets(text: str):
    """Every fenced code block and inline code span in a document."""
    yield from re.findall(r"```[a-z]*\n(.*?)```", text, re.DOTALL)
    yield from re.findall(r"`([^`\n]+)`", text)


def _cli_subcommands() -> set:
    from repro.cli import build_parser
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        if hasattr(action, "choices"):
            return set(action.choices)
    raise AssertionError("no subparsers found on the repro parser")


@pytest.mark.parametrize("doc", DOCS)
def test_every_repro_subcommand_mentioned_in_docs_exists(doc):
    commands = _cli_subcommands()
    text = (ROOT / doc).read_text()
    unknown = []
    for snippet in _code_snippets(text):
        for word in _CLI_RE.findall(snippet):
            if word not in commands:
                unknown.append(word)
    assert not unknown, (
        f"{doc} mentions repro subcommands that don't exist: "
        f"{sorted(set(unknown))} (have: {sorted(commands)})")


def test_docs_mention_the_new_observability_commands():
    readme = (ROOT / "README.md").read_text()
    for command in ("repro trace", "repro counters"):
        assert command in readme, command


def _option_strings(parser) -> set:
    return {s for action in parser._actions for s in action.option_strings}


def _subparser_choices(parser) -> dict:
    import argparse
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


@pytest.mark.parametrize("doc", DOCS)
def test_documented_cli_flags_exist(doc):
    """Every ``--flag`` shown on a documented ``repro ...`` command
    line is actually registered on that (sub)command's parser."""
    from repro.cli import build_parser
    root = build_parser()
    text = (ROOT / doc).read_text()
    problems = []
    for snippet in _code_snippets(text):
        for line in snippet.splitlines():
            m = re.search(r"\brepro\s+(.+)$", line)
            if not m:
                continue
            tokens = m.group(1).split()
            parser, allowed = root, _option_strings(root)
            for token in tokens:
                choices = _subparser_choices(parser)
                if token in choices:
                    parser = choices[token]
                    allowed |= _option_strings(parser)
                else:
                    break
            for token in tokens:
                token = token.strip("[]").split("=")[0]
                is_flag = token.startswith("--") or (
                    len(token) == 2 and token.startswith("-")
                    and token[1].isalpha())
                if is_flag and token not in allowed:
                    problems.append(f"{line.strip()!r}: {token}")
    assert not problems, (
        f"{doc} documents CLI flags that don't exist: {problems}")


def test_every_env_knob_documented_in_performance_doc():
    """Every ``REPRO_*`` environment variable the source consults is a
    documented knob in docs/performance.md."""
    consulted = set()
    for path in (ROOT / "src").rglob("*.py"):
        consulted |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    text = (ROOT / "docs/performance.md").read_text()
    missing = sorted(v for v in consulted if v not in text)
    assert not missing, (
        f"docs/performance.md does not document env knobs: {missing}")


def test_cohort_knob_documented_and_registered():
    """The one switch between the fast paths (the cohort scheduler among
    them) and the reference model exists in all its spellings — the
    ``--reference`` flag on ``repro experiments``, the ``REPRO_FAST``
    variable and ``repro.tiers.reference()`` — each covered by the
    docs."""
    from repro import tiers
    from repro.cli import build_parser
    experiments = _subparser_choices(build_parser())["experiments"]
    assert "--reference" in _option_strings(experiments)
    assert tiers.ENV == "REPRO_FAST"
    for doc in ("README.md", "docs/performance.md", "docs/timing_model.md",
                "docs/api_guide.md"):
        text = (ROOT / doc).read_text()
        assert "REPRO_FAST" in text, doc
        assert "--reference" in text, doc
        assert "tiers.reference()" in text, doc


def test_no_dead_relative_links_in_docs():
    """Same check `make docs-check` runs via tools/check_doc_links.py."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", ROOT / "tools" / "check_doc_links.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    bad = []
    for path in mod.doc_files():
        for target in mod.dead_links(path):
            bad.append(f"{path.relative_to(ROOT)}: {target}")
    assert not bad, f"dead relative links: {bad}"


# ------------------------------------------- event-catalog consistency

#: First cell of each event-catalog table row: | `event_name` | ...
_EVENT_ROW_RE = re.compile(r"^\| `([a-z_]+)` \|", re.MULTILINE)


def test_observability_event_catalog_matches_registry():
    from repro.trace.events import EVENT_TYPES

    text = (ROOT / "docs/observability.md").read_text()
    section = text.split("## Event catalog")[1].split("\n## ")[0]
    documented = set(_EVENT_ROW_RE.findall(section))
    registered = set(EVENT_TYPES)
    assert documented == registered, (
        f"undocumented events: {sorted(registered - documented)}; "
        f"documented but unregistered: {sorted(documented - registered)}")


def test_observability_counter_catalog_matches_providers():
    """Every unit kind documented in the counter catalog registers
    exactly the documented counter names."""
    from repro.trace import tracer as trace
    from repro.params import t3d_machine_params
    from repro.machine.machine import Machine

    text = (ROOT / "docs/observability.md").read_text()
    section = text.split("## Counter catalog")[1].split("\n## ")[0]
    documented = {}
    for line in section.splitlines():
        m = re.match(r"^\| `([a-z_]+)` \| (.+) \|$", line)
        if m:
            documented[m.group(1)] = set(
                re.findall(r"`([a-z_.]+)`", m.group(2)))

    trace.disable()
    trace.TRACER.reset()
    trace.enable()
    try:
        Machine(t3d_machine_params((2, 1, 1)))
        harvested = trace.TRACER.provider_counters()
    finally:
        trace.disable()
        trace.TRACER.reset()

    assert set(documented) == set(harvested), (
        f"catalog kinds {sorted(documented)} != "
        f"registered kinds {sorted(harvested)}")
    for kind, counters in harvested.items():
        actual = set(counters) - {"instances"}
        assert documented[kind] == actual, (
            f"{kind}: documented {sorted(documented[kind])}, "
            f"actual {sorted(actual)}")


def test_version_agrees_everywhere():
    """One release number: ``repro.__version__``, ``pyproject.toml``,
    and the newest CHANGELOG.md heading must match (PR 8 fixed a
    three-way skew here)."""
    import repro

    pyproject = (ROOT / "pyproject.toml").read_text()
    m = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert m, "pyproject.toml has no version line"
    assert m.group(1) == repro.__version__

    changelog = (ROOT / "CHANGELOG.md").read_text()
    m = re.search(r"^## ([0-9][0-9a-z.]*)", changelog, re.MULTILINE)
    assert m, "CHANGELOG.md has no release heading"
    assert m.group(1) == repro.__version__
