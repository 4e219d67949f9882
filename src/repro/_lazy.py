"""PEP 562 lazy package namespaces.

A package ``__init__`` declares which submodule defines each public name;
the submodule is imported the first time the name is looked up, not when
the package is.  ``repro.X``, ``from repro.X import Y``, ``dir()`` and
``from repro.X import *`` behave as with eager re-exports, but a cold
command imports only the modules its code path touches::

    __getattr__, __dir__ = attach(__name__, {
        "parser": ("parse", "parse_program"),
        "ast": ("Program",),
    }, submodules=("interp",))

A public name must not also be the name of a submodule of the same
package: importing the submodule would rebind the package attribute to the
module object.  :mod:`repro.translate`, whose functions are named after
their submodules, therefore stays eager.
"""

from __future__ import annotations

import importlib
import sys
from typing import Iterable, Mapping


def attach(package: str, attrs: Mapping[str, Iterable[str]],
           submodules: Iterable[str] = ()):
    """``(__getattr__, __dir__)`` for ``package``.

    ``attrs`` maps a submodule path relative to the package (``"parser"``,
    ``"core.types"``; a leading ``.`` climbs one package up, as in a
    relative import: ``".threesomes.runtime"`` from ``repro.machine``) to
    the names it exports through the package;
    ``submodules`` lists submodules exported as attributes themselves.  A
    resolved name is stored on the package, so each lookup pays the import
    once.
    """
    origin = {name: module for module, names in attrs.items() for name in names}
    modules = frozenset(submodules)

    def __getattr__(name: str):
        if name in modules:
            return importlib.import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | modules | set(origin))

    return __getattr__, __dir__
