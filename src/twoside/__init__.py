"""Two-sided p-values for asymmetric null distributions.

A two-sided p-value needs a rule for combining the tails of a null
distribution that is not symmetric. This package implements the doubled,
weighted, conditional (tail probabilities as weights), modified
conditional, and minimum-likelihood constructions over a small library of
continuous and discrete distributions, wires them into variance, F,
binomial, and Fisher exact tests, and provides the power, bias, and
unbiased-weight analysis that discriminates between the constructions.

The namespace is lazy: ``import twoside`` loads none of the modules below.
An exported name, or a module such as ``twoside.analysis``, is imported from
its module on first access (PEP 562 ``__getattr__``), and is looked up there
again on every access rather than copied into this namespace. ``__all__``
lists every export, so ``from twoside import *`` loads all four modules.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports, in the order of that module's __all__
_EXPORTS = {
    "dist": ("Support", "Distribution", "ChiSquare", "FRatio", "Uniform", "Triangular",
             "TruncatedNormal", "Binomial", "Hypergeometric", "NoncentralHypergeometric"),
    "pvalue": ("DOUBLED", "WEIGHTED", "CONDITIONAL", "CONDITIONAL_MODIFIED", "MIN_LIKELIHOOD",
               "METHODS", "default_methods", "MEAN", "MODE", "MEDIAN", "TailAnchor", "Weights",
               "resolve_anchor", "tail_weights", "p_value", "p_weighted", "p_doubled",
               "p_conditional", "p_min_likelihood", "conjugate_point", "pc_equivalent_point"),
    "stattests": ("ContingencyTable", "DavisStatistics", "TestReport", "variance_test",
                  "variance_test_from_sample", "f_test", "binomial_test", "fisher_exact",
                  "davis_statistics", "davis_ordering", "glr_statistic", "DAVIS_STATISTIC_IDS"),
    "analysis": ("UMPU", "BIAS_METHODS", "CriticalRegion", "BiasReport",
                 "critical_region_from_weights", "variance_power", "power_derivative_at_null",
                 "umpu_weights", "minlik_region", "bias", "binomial_weight_table",
                 "fisher_pvalue_table", "figure_data", "TABLE1_NS", "TABLE1_PS", "FIGURES"),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
