"""The command line's option surface, pinned per subcommand and option.

``cli_surface.json`` records, for every (sub)command of ``build_parser()``
and each of its arguments except ``-h``: the option strings, the displayed
metavar, the default, choices, nargs, required, and the help text with
``%(default)s`` expanded.  Raw ``format_help()`` is not pinned, because
argparse words and wraps it differently across Python versions.

Two normalisations keep the pin about what a shell user sees:
``argparse.SUPPRESS`` is recorded as ``None`` (either way an absent flag
sets nothing of its own), and a zero-argument switch records no default
(absent means off, whatever its destination holds).

Re-record after an intended surface change with::

    PYTHONPATH=src python tests/experiments/test_cli_surface.py
"""

import argparse
import json
import os

from repro.cli import build_parser

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_surface.json")


def _parsers(parser, path=()):
    """(command path, parser) for the root and every nested subcommand."""
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, (*path, name))


def _describe(parser, action):
    formatter = parser._get_formatter()
    if action.option_strings:
        default_metavar = formatter._get_default_metavar_for_optional(action)
    else:
        default_metavar = formatter._get_default_metavar_for_positional(action)
    entry = {
        "options": list(action.option_strings),
        "metavar": None if action.nargs == 0 else formatter._format_args(action, default_metavar),
        "choices": None if action.choices is None else sorted(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "help": None if action.help is None else formatter._expand_help(action),
    }
    if action.nargs != 0:
        entry["default"] = None if action.default is argparse.SUPPRESS else action.default
    return entry


def surface():
    """{command path: {argument: description}} for the whole parser tree."""
    tree = {}
    for path, parser in _parsers(build_parser()):
        tree[path] = {
            (action.option_strings[0] if action.option_strings else action.dest):
                _describe(parser, action)
            for action in parser._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        }
    # through JSON, so tuples compare as the lists the golden holds
    return json.loads(json.dumps(tree))


def settable_pairs(tree):
    """How many (command, argument) pairs a shell user can set."""
    return sum(len(arguments) for arguments in tree.values())


def test_every_option_matches_the_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    live = surface()
    assert sorted(live) == sorted(golden)
    for path in golden:
        assert live[path] == golden[path], f"`{path}` options differ from the golden"


if __name__ == "__main__":
    tree = surface()
    # one line per argument, so a diff of the golden names what moved
    commands = []
    for path, arguments in sorted(tree.items()):
        lines = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
            for name, entry in sorted(arguments.items())
        )
        commands.append(f" {json.dumps(path)}: " + (f"{{\n{lines}\n }}" if lines else "{}"))
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(commands) + "\n}\n")
    print(f"{GOLDEN}: {len(tree)} commands, {settable_pairs(tree)} settable pairs")
