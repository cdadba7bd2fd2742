"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that imports every submodule makes every user of
one submodule pay for all of them.  The optional subsystems (process
fan-out, span reconstruction, live metrics) are
never touched by a default simulation run, so their public names are
served by a module-level ``__getattr__`` instead: ``from repro.sim import
run_many`` still works, and is what imports :mod:`repro.sim.parallel`.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Iterable


def lazy_exports(
    package: str, modules: Dict[str, Iterable[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``.

    ``modules`` maps a module's full name to the public names the
    package re-exports from it.  The first access to one of those names
    imports the module and stores the value on the package, so the hook
    runs once per name.
    """
    home = {
        name: module for module, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
