"""Package re-exports imported on their first use (PEP 562)."""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """A module's ``__getattr__`` and ``__dir__`` for names it re-exports.

    ``exports`` maps each name to the module it lives in.  A name is
    imported on its first read and then kept in ``namespace`` (the
    package's ``globals()``), so later reads are plain lookups.
    """

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
