"""PEP 562 re-exports: a package imports a submodule when a name is read.

A package ``__init__`` lists each public name once, against the
submodule that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".engine": "FluidEngine FluidResult",
        ".": "runner",          # a submodule exported as itself
    })

Reading ``pkg.FluidEngine`` the first time imports ``pkg.engine`` and
caches the value in the package's globals, so the hook runs once per
name and ``import pkg.other`` never loads ``pkg.engine``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a relative submodule to the space-separated names it
    defines; names under ``"."`` are submodules of ``package``.
    """
    owner = {name: module for module, names in table.items()
             for name in names.split()}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, sorted(owner)
