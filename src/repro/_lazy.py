"""Package exports resolved on first access (PEP 562).

A package ``__init__`` that imports its whole subtree makes every import
of one submodule pay for all of them.  Instead, each package lists its
public names by home module and hands the table to :func:`lazy_exports`:
a name's home module is imported the first time the name is read from the
package, and the value is then bound in the package's namespace, so later
reads are plain attribute lookups.  ``from package import *``, ``dir()``
and ``__all__`` see every name as before.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, homes: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``homes`` maps a module path to the names ``package`` exports from it,
    in the order ``__all__`` lists them.  Names whose home is ``package``
    itself are its submodules.
    """
    home_of = {name: home for home, names in homes.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if home == package:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home_of})

    return __getattr__, __dir__, list(home_of)
