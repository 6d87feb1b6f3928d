"""Linear search on two rays ("cow path") with untrusted hints.

A searcher starts at the root of two half-lines and walks out and back in
segments until it steps on a hidden target.  This package builds classic
geometric strategies and three hint-aware families (exact position, target
direction, k-bit advice), scores them by consistency (hint trusted) and
robustness (hint adversarial) in closed form and by brute-force simulation,
and numerically verifies the growth inequalities and tradeoff frontiers those
scores obey.

Importing the package loads none of its modules (and so no numpy): the
first lookup of a name it does not hold yet imports all four and binds
every public name, and ``__all__``, at once.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("model", "ratios", "hints", "bounds")


def __getattr__(name: str):
    # importlib, not ``from . import``: that form looks the submodule up on
    # this package first, which would call back into this function.  Every
    # name is bound in one step, so the package namespace never holds a mix
    # of functions taken before and after someone swapped them in a module.
    namespace = globals()
    if "__all__" not in namespace:
        modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        for module in modules:
            namespace.update((n, getattr(module, n)) for n in module.__all__)
        namespace["__all__"] = [n for module in modules for n in module.__all__]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
