"""The metric catalog in docs/observability.md names only real families.

A family is real when code under ``src/`` registers it: a
``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` call whose first
argument is that name, as a string literal or a module constant holding
one.  A row left behind after its code is deleted fails here.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
KINDS = ("counter", "gauge", "histogram")


def registered_families():
    names = {}
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(directory, filename)) as handle:
                tree = ast.parse(handle.read())
            constants = {
                node.targets[0].id: node.value.value
                for node in tree.body
                if isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
            }
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in KINDS
                    and node.args
                ):
                    continue
                first = node.args[0]
                if isinstance(first, ast.Name):
                    name = constants.get(first.id)
                elif isinstance(first, ast.Constant):
                    name = first.value
                else:
                    continue
                if isinstance(name, str):
                    names.setdefault(name, set()).add(node.func.attr)
    return names


def documented_families():
    with open(os.path.join(ROOT, "docs", "observability.md")) as handle:
        text = handle.read()
    catalog = text.split("### Metric catalog", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([a-z_]+)` \| (counter|gauge|histogram) \|", catalog, re.M)


def test_every_documented_family_is_registered_with_its_type():
    documented = documented_families()
    assert len(documented) >= 10  # the table was found and parsed
    registered = registered_families()
    for family, kind in documented:
        assert family in registered, f"{family} is documented but never registered"
        assert kind in registered[family], f"{family} is registered as {registered[family]}"
