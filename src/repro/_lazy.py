"""PEP 562 lazy exports: a package names what it offers without importing it."""

import sys
from importlib import import_module
from typing import Callable, Dict, Tuple


def lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each name to the module that defines it, relative to
    ``package``: ``".spec"`` exports that module's attribute of the same
    name, ``".runner:run"`` its ``run``, and a name mapped to its own
    module (``"nn": ".nn"``) is that module.  Nothing is imported before
    the first access to a name.
    """

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, _, attr = exports[name].partition(":")
        loaded = import_module(module, package)
        return loaded if module == "." + name else getattr(loaded, attr or name)

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
