"""Scripts and root JSON files named by CI, the README, the docs and the verify skill exist."""

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = (
    ".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md",
    *sorted(os.path.relpath(path, ROOT) for path in glob.glob(os.path.join(ROOT, "docs", "*.md"))),
)
#: (pattern, directory the match is relative to): scripts by path, bare
#: ``bench_*.py`` names (they live in ``benchmarks/``), and root JSON — root
#: files are upper-case here, which keeps artifact files (``metrics.json``) out.
#: A path after a colon is a ``git show <rev>:<path>`` citation of a file that
#: is gone on purpose, not a path in this tree.
PATTERNS = (
    (re.compile(r"(?<![\w/.:-])((?:benchmarks|examples)/[\w/]+\.py)"), ""),
    (re.compile(r"(?<![\w/])(bench_\w+\.py)"), "benchmarks"),
    (re.compile(r"(?<![\w/])([A-Z][A-Za-z_]*\.json)"), ""),
)
#: upper-case JSON that is not a repo file: the version store's live pointer
NOT_REPO_FILES = {"CURRENT.json"}


def named_paths(text):
    return {
        os.path.join(directory, name)
        for pattern, directory in PATTERNS
        for name in pattern.findall(text)
    } - NOT_REPO_FILES


@pytest.mark.parametrize("source", SOURCES)
def test_named_paths_exist(source):
    with open(os.path.join(ROOT, source)) as handle:
        named = named_paths(handle.read())
    assert named, f"{source} names no path at all: the patterns no longer match"
    missing = sorted(p for p in named if not os.path.exists(os.path.join(ROOT, p)))
    assert not missing, f"{source} names files that do not exist: {missing}"


def test_citations_and_store_files_are_not_repo_paths():
    assert len(SOURCES) > 3, "docs/*.md matched nothing"
    text = (
        "by the script `git show 21e69fe:benchmarks/bench_lifecycle.py`; promotion "
        "rewrites `CURRENT.json`; see benchmarks/lifecycle_smoke.py and `BENCHMARK.json`"
    )
    assert named_paths(text) == {"benchmarks/lifecycle_smoke.py", "BENCHMARK.json"}
