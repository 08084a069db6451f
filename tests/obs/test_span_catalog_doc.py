"""The span catalog in docs/observability.md names exactly the spans ``src/`` opens.

A span is opened by a ``.span(name, ...)`` / ``.begin(name, ...)`` call or
by ``maybe_span(tracer, name, ...)``.  The scan reads each call's name
argument from the syntax tree: a string literal, or a conditional whose
branches are (``"ann.fine.adc" if ... else "ann.fine"``).  Only the tracer's
own module passes names through variables.  Both directions fail: a span
opened but not catalogued, and a catalogue row no code opens.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: the tracer itself forwards caller-supplied names
PASS_THROUGH = os.path.join(SRC, "repro", "obs", "trace.py")


def _literal_names(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        body, orelse = _literal_names(node.body), _literal_names(node.orelse)
        if body is not None and orelse is not None:
            return body | orelse
    return None


def _name_argument(call):
    func = call.func
    if isinstance(func, ast.Name) and func.id == "maybe_span":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr in ("span", "begin"):
        position = 0
    else:
        return None
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == "name"), None)


def emitted_spans():
    names, opaque = set(), []
    for directory, _, files in os.walk(SRC):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                argument = _name_argument(node)
                if argument is None:
                    continue
                literal = _literal_names(argument)
                if literal is not None:
                    names |= literal
                elif path != PASS_THROUGH:
                    opaque.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    return names, opaque


def documented_spans():
    with open(os.path.join(ROOT, "docs", "observability.md")) as handle:
        text = handle.read()
    catalog = text.split("### Span catalog", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `([a-z_.]+)` \|", catalog, re.M))


def test_the_scan_reads_conditional_names():
    names, _ = emitted_spans()
    assert {"ann.fine", "ann.fine.adc"} <= names  # serving/ann/ivf.py's IfExp
    assert {"train.step", "chunk.score", "request"} <= names


def test_every_emitted_span_is_catalogued():
    names, opaque = emitted_spans()
    assert not opaque, f"span names the scan cannot read: {opaque}"
    missing = sorted(names - documented_spans())
    assert not missing, f"spans opened in src/ but missing from the catalog: {missing}"


def test_every_catalogued_span_is_emitted():
    documented = documented_spans()
    assert len(documented) >= 20  # the table was found and parsed
    stale = sorted(documented - emitted_spans()[0])
    assert not stale, f"catalogued spans no code in src/ opens: {stale}"
