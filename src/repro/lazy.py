"""Lazy package re-exports (PEP 562).

A package names each re-exported symbol under its home module; the
symbol is imported on first access, so importing the package imports
none of its homes. A ``repro transform`` process then never loads the
§4 stochastic model, nor numpy with it.
"""

from importlib import import_module


def lazy_exports(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` of the package whose globals are
    *namespace*: a name listed under a module in *homes* is imported
    from that module on first access and kept in *namespace*."""
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        namespace[name] = value = getattr(import_module(home[name]), name)
        return value

    return __getattr__
