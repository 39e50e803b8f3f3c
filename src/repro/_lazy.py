"""Lazy package exports (PEP 562).

A package lists what it re-exports and from which submodule; a name's
submodule is imported the first time the name is read.  A process then
loads only the code it uses: ``import repro.tools.session`` does not
pull in the sweep tier, the shard pool or the static validator just
because ``repro.tools``, ``repro.core`` and ``repro.static`` re-export
them.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Sequence, Tuple


class _ExportsOverSubmodules(types.ModuleType):
    """A package where an export shares its submodule's name.

    The import system binds every submodule it loads on the package;
    for ``repro.tools.recommend`` that would replace the exported
    function with its module.  The binding is dropped instead, so the
    name resolves to the export, as it did when packages imported their
    exports eagerly.
    """

    def __setattr__(self, name: str, value) -> None:
        if (isinstance(value, types.ModuleType)
                and name in self.__dict__["_SHADOWED"]):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the names
    re-exported from it, written like the import they replace:
    ``"export as export_xml"`` renames, and the key ``""`` lists
    submodules exported as themselves.  A resolved name is stored in
    the package, so only its first read pays.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            where[alias or attr] = (module, attr)
    shadowed = {name for name, (module, _) in where.items()
                if module == name}
    if shadowed:
        pkg = sys.modules[package]
        pkg._SHADOWED = frozenset(shadowed)
        pkg.__class__ = _ExportsOverSubmodules

    def __getattr__(name: str):
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if module:
            value = getattr(
                importlib.import_module(f"{package}.{module}"), attr)
        else:
            value = importlib.import_module(f"{package}.{attr}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
