"""Scripts and root JSON files named by CI, the README and the verify skill exist."""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = (".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md")
#: (pattern, directory the match is relative to): scripts by path, bare
#: ``bench_*.py`` names (they live in ``benchmarks/``), and root JSON — root
#: files are upper-case here, which keeps artifact files (``metrics.json``) out
PATTERNS = (
    (re.compile(r"(?<![\w/.-])((?:benchmarks|examples)/[\w/]+\.py)"), ""),
    (re.compile(r"(?<![\w/])(bench_\w+\.py)"), "benchmarks"),
    (re.compile(r"(?<![\w/])([A-Z][A-Za-z_]*\.json)"), ""),
)


@pytest.mark.parametrize("source", SOURCES)
def test_named_paths_exist(source):
    with open(os.path.join(ROOT, source)) as handle:
        text = handle.read()
    named = {
        os.path.join(directory, name)
        for pattern, directory in PATTERNS
        for name in pattern.findall(text)
    }
    assert named, f"{source} names no path at all: the patterns no longer match"
    missing = sorted(p for p in named if not os.path.exists(os.path.join(ROOT, p)))
    assert not missing, f"{source} names files that do not exist: {missing}"
