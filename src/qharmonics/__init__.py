"""Quaternion Fourier and linear canonical transforms, with the 2D
bounded-variation machinery behind their pointwise inversion results.

The package's names are its submodules and the ``__all__`` of each module
in ``_PUBLIC``; each module's ``__all__`` is the one list of its public
names.  Both are resolved lazily (PEP 562), so ``import qharmonics``
loads no submodule and entry points can apply process-level knobs such
as BLAS thread caps before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = ("quaternion", "grids", "variation", "qft", "qlct", "smoothing", "fileio")
_SUBMODULES = _PUBLIC + ("fixtures", "errors", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        return sorted(_SUBMODULES + tuple(n for m in _PUBLIC for n in __getattr__(m).__all__))
    if not name.startswith("_"):  # a private or dunder name is never exported
        for module in map(__getattr__, _PUBLIC):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __getattr__("__all__")
