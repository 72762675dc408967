"""Lazy package re-exports (PEP 562), shared by every ``__init__``.

A package says where each public name lives in one table,
``{submodule: (name, ...)}``, and hands it to :func:`lazy_exports`, which
installs the package's module ``__getattr__`` and ``__dir__`` and returns
the names for ``__all__``. A name's defining module is imported the first
time the name is read (``from repro.sched import schedule_to_svg``,
``repro.sched.schedule_to_svg`` or ``from repro.sched import *``); the
value is then bound in the package namespace, so later reads are plain
attribute hits. Importing a package costs only its own ``__init__``:
what a run loads is what it executes (DESIGN.md §6).
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict, List, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> List[str]:
    """Serve ``table``'s names from ``package``; returns them in order.

    ``table`` maps a module name relative to ``package`` (``".slicer"``)
    to the names it supplies.
    """
    where: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(where)
