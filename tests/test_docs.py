"""Documentation honesty: the docs must match the code and each other.

Two failure modes this file guards against:

- **drift** — the README's CLI excerpt advertising subcommands or flags
  the parser no longer has (or missing ones it grew);
- **dead links** — relative markdown links in README/DESIGN/docs/
  pointing at files that moved or were renamed, and backticked
  ``benchmarks/*.py`` script paths in README/DESIGN naming scripts that
  no longer exist.
"""

import os
import re

from repro.cli import build_parser

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

DOC_FILES = ["README.md", "DESIGN.md"]
DOCS_DIR = os.path.join(REPO_ROOT, "docs")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _doc_paths():
    paths = [os.path.join(REPO_ROOT, name) for name in DOC_FILES]
    for name in sorted(os.listdir(DOCS_DIR)):
        if name.endswith(".md"):
            paths.append(os.path.join(DOCS_DIR, name))
    return paths


def _subcommands():
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        if hasattr(action, "choices") and action.choices:
            return dict(action.choices)
    raise AssertionError("CLI parser has no subcommands")


def test_readme_cli_excerpt_lists_every_subcommand():
    """The README's usage excerpt must show the real subcommand set."""
    readme = _read(os.path.join(REPO_ROOT, "README.md"))
    names = _subcommands()
    excerpt = "{" + ",".join(names) + "}"
    assert excerpt in readme, (
        f"README CLI excerpt is stale: expected the literal {excerpt!r} "
        "(regenerate it from `python -m repro --help`)"
    )
    for name in names:
        assert re.search(rf"\brepro {name}\b|^    {name} ", readme, re.M), (
            f"README never shows subcommand {name!r}"
        )


def test_readme_mentions_parallel_and_online_flags():
    """The flags the quickstart historically omitted stay documented."""
    readme = _read(os.path.join(REPO_ROOT, "README.md"))
    for flag in ("--parallel", "--mode online", "repro watch",
                 "repro collect"):
        assert flag in readme, f"README quickstart omits {flag!r}"


def test_readme_documents_facade_interface():
    """The façade-era CLI surface must appear in the README: the new
    check flags, the engines listing, and the api docs page."""
    readme = _read(os.path.join(REPO_ROOT, "README.md"))
    for token in ("--isolation", "--mode", "--engine", "repro engines",
                  "docs/api.md", "repro.check", "Report"):
        assert token in readme, f"README omits façade surface {token!r}"


def test_check_help_flags_documented():
    """Drift guard over `repro check --help`: every flag the check
    subcommand advertises must be named somewhere in README or
    docs/api.md (regenerate the excerpts when flags change)."""
    parser = _subcommands()["check"]
    corpus = (
        _read(os.path.join(REPO_ROOT, "README.md"))
        + _read(os.path.join(DOCS_DIR, "api.md"))
    )
    for action in parser._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                assert option in corpus, (
                    f"`repro check {option}` is undocumented in "
                    "README.md/docs/api.md"
                )


def test_api_docs_cover_every_registered_engine():
    """docs/api.md must name every registered engine and every isolation
    level (the migration table is regenerated when the registry grows)."""
    from repro.api import ISOLATION_LEVELS, engine_names

    api_md = _read(os.path.join(DOCS_DIR, "api.md"))
    for name in engine_names():
        assert name in api_md, f"docs/api.md omits engine {name!r}"
    for isolation in ISOLATION_LEVELS:
        assert f'"{isolation}"' in api_md or f"`{isolation}`" in api_md, (
            f"docs/api.md omits isolation level {isolation!r}"
        )


def test_collect_docs_linked_from_readme():
    readme = _read(os.path.join(REPO_ROOT, "README.md"))
    assert "docs/architecture.md" in readme
    assert "docs/collecting.md" in readme


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def test_no_dead_relative_links():
    """Every relative markdown link in README/DESIGN/docs resolves."""
    dead = []
    for path in _doc_paths():
        base = os.path.dirname(path)
        for target in _LINK.findall(_read(path)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(base, target.split("#", 1)[0])
            )
            if not os.path.exists(resolved):
                dead.append(f"{os.path.relpath(path, REPO_ROOT)} -> {target}")
    assert dead == [], f"dead relative links: {dead}"


_SCRIPT = re.compile(r"`(benchmarks/[\w/.-]+\.py)[`\s]")


def test_no_stale_benchmark_script_paths():
    """Every backticked ``benchmarks/….py`` path in README/DESIGN exists
    (a renamed or folded script leaves no reference behind)."""
    stale = []
    for name in DOC_FILES:
        for script in _SCRIPT.findall(_read(os.path.join(REPO_ROOT, name))):
            if not os.path.exists(os.path.join(REPO_ROOT, script)):
                stale.append(f"{name} -> {script}")
    assert stale == [], f"stale benchmark script paths: {stale}"


def test_design_has_collection_section():
    design = _read(os.path.join(REPO_ROOT, "DESIGN.md"))
    assert "## S8 — Live-database collection" in design
    assert "check_aborted_reads" in design  # the soundness argument
