"""Two-sided p-values for asymmetric null distributions.

A two-sided p-value needs a rule for combining the tails of a null
distribution that is not symmetric. This package implements the doubled,
weighted, conditional (tail probabilities as weights), modified
conditional, and minimum-likelihood constructions over a small library of
continuous and discrete distributions, wires them into variance, F,
binomial, and Fisher exact tests, and provides the power, bias, and
unbiased-weight analysis that discriminates between the constructions.

The namespace is lazy: ``import twoside`` loads none of the modules below,
and each module's ``__all__`` is the only list of its exports. A submodule is
imported on first access (PEP 562 ``__getattr__``), and loads only what it
imports itself (``from twoside import roots`` loads ``roots`` alone); any
other name is looked up, on every access, in ``dist``, ``pvalue``,
``stattests`` and ``analysis``, importing each in turn until one exports it.
So a name also loads the modules before its own (``twoside.bias`` loads
``stattests`` too), and ``__all__``, ``dir``, ``from twoside import *`` and
an unknown name load all four.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("dist", "pvalue", "stattests", "analysis")
_SUBMODULES = (*_MODULES, "cli", "roots", "specfun", "_record")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return ["__version__", *(export for module in _MODULES
                                 for export in __getattr__(module).__all__)]
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_MODULES})
