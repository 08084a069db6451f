"""The settable surface of the library, pinned per config dataclass and field.

``config_surface.json`` records, for every dataclass a ``repro`` package
exports under a name ending in ``Config``, ``Spec`` or ``Schedule``: each
field's annotation and its default.  A ``default_factory`` is recorded by
what it builds (a nested config as ``Name()``), a field without a default
as ``"required"``.  A new option, a removed one or a moved default is then
a reviewed diff of the golden, as ``cli_surface.json`` is for the flags.

Re-record after an intended surface change with::

    PYTHONPATH=src python tests/test_config_surface.py
"""

import dataclasses
import importlib
import json
import os
import pkgutil

import repro

GOLDEN = os.path.join(os.path.dirname(__file__), "config_surface.json")
SUFFIXES = ("Config", "Spec", "Schedule")


def config_classes():
    """{qualified name: class} for every exported config dataclass."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.ispkg:
            continue
        package = importlib.import_module(info.name)
        for name in getattr(package, "__all__", ()):
            obj = getattr(package, name)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and name.endswith(SUFFIXES):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def _encode(value):
    if dataclasses.is_dataclass(value):
        return f"{type(value).__qualname__}()"
    return value


def describe(cls):
    """{field: {"type", "default"}} in declaration order."""
    fields = {}
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            default = _encode(field.default)
        elif field.default_factory is not dataclasses.MISSING:
            default = _encode(field.default_factory())
        else:
            default = "required"
        kind = field.type if isinstance(field.type, str) else field.type.__name__
        fields[field.name] = {"type": kind, "default": default}
    return fields


def surface():
    # through JSON, so tuples compare as the lists the golden holds
    return json.loads(json.dumps({name: describe(cls) for name, cls in config_classes().items()}))


def test_every_config_field_matches_the_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    live = surface()
    assert sorted(live) == sorted(golden)
    for name in golden:
        assert live[name] == golden[name], f"`{name}` fields differ from the golden"


if __name__ == "__main__":
    tree = surface()
    # one line per field, so a diff of the golden names what moved
    classes = []
    for name, fields in sorted(tree.items()):
        lines = ",\n".join(
            f"  {json.dumps(field)}: {json.dumps(entry, sort_keys=True)}"
            for field, entry in fields.items()
        )
        classes.append(f" {json.dumps(name)}: " + (f"{{\n{lines}\n }}" if lines else "{}"))
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(classes) + "\n}\n")
    print(f"{GOLDEN}: {len(tree)} classes, {sum(map(len, tree.values()))} fields")
