"""The public API: what ``import twoside`` exports."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import twoside
from twoside import analysis, cli, dist, pvalue, specfun, stattests

# twoside.__all__ of version 0.1.0 before the conditional p-value became one
# function and the unused power-curve and accuracy API was removed
EXPORTS_0_1_0 = [
    "__version__", "Distribution", "Support", "ChiSquare", "FRatio", "Uniform", "Triangular",
    "TruncatedNormal", "Binomial", "Hypergeometric", "NoncentralHypergeometric", "DOUBLED",
    "WEIGHTED", "CONDITIONAL", "CONDITIONAL_MODIFIED", "MIN_LIKELIHOOD", "METHODS", "TailAnchor",
    "Weights", "resolve_anchor", "tail_weights", "p_value", "p_weighted", "p_doubled",
    "p_conditional_continuous", "p_conditional_discrete", "p_min_likelihood", "conjugate_point",
    "pc_equivalent_point", "ContingencyTable", "DavisStatistics", "TestReport", "variance_test",
    "variance_test_from_sample", "f_test", "binomial_test", "fisher_exact", "davis_statistics",
    "davis_ordering", "glr_statistic", "UMPU", "BIAS_METHODS", "CriticalRegion", "PowerCurve",
    "BiasReport", "critical_region_from_weights", "variance_power", "power_curve",
    "lower_partial_mean", "power_derivative_at_null", "umpu_weights", "minlik_region", "bias",
    "binomial_weight_table", "fisher_pvalue_table", "figure_data",
]
REMOVED = {"PowerCurve", "power_curve", "p_conditional_continuous", "p_conditional_discrete",
           "lower_partial_mean"}


def test_all_is_the_module_exports():
    assert twoside.__all__ == (["__version__"] + dist.__all__ + pvalue.__all__
                               + stattests.__all__ + analysis.__all__)
    assert len(set(twoside.__all__)) == len(twoside.__all__)
    for name in twoside.__all__:
        assert getattr(twoside, name) is not None, name


def test_exports_resolve_from_their_module_on_every_access():
    # nothing is copied into the package namespace, so a rebinding in the
    # module (as the benchmark's tracer makes) is what the package returns
    assert twoside.bias is analysis.bias
    assert twoside.p_value is pvalue.p_value
    assert twoside.ChiSquare is dist.ChiSquare
    assert twoside.stattests is stattests
    assert {"bias", "p_value", "ChiSquare", "f_test"}.isdisjoint(vars(twoside))
    assert set(twoside.__all__) <= set(dir(twoside))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        twoside.no_such_name


def test_earlier_exports_kept_except_the_removed_ones():
    assert set(EXPORTS_0_1_0) - set(twoside.__all__) == REMOVED
    for name in REMOVED:
        assert not hasattr(twoside, name)
    for name in ("Accuracy", "DEFAULT_ACCURACY", "log_gamma"):
        assert not hasattr(specfun, name)


def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_exists():
    # ``bench/run.py --trace 1`` stops at the first name in the tracer's list
    # that the package no longer defines
    tracer = _load_tracer()
    for layer, functions, _ in tracer.TRACED:
        module = importlib.import_module(f"twoside.{layer}")
        for fn in functions:
            assert callable(getattr(module, fn, None)), f"twoside.{layer}.{fn}"


def test_tracer_wraps_the_memoized_kernels_and_counts_cache_hits():
    # the tracer rebinds each kernel's module global around its memo, so
    # calls served from the memo are counted and uninstall restores the memo
    memo = specfun.inv_reg_gamma_lower
    memo.cache_clear()
    # the doubled region inverts the same two quantiles on every call
    argv = ["analyze", "bias", "--dist", "chisq:7", "--method", "doubled", "--alpha", "0.05"]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
            calls = tracer.metrics()["specfun.inv_reg_gamma_lower.calls"]
            misses = memo.cache_info().misses
            assert cli.main(argv) == 0
        assert tracer.unwrapped_references() == []
        assert calls > 0
        assert tracer.metrics()["specfun.inv_reg_gamma_lower.calls"] == 2 * calls
        assert memo.cache_info().misses == misses
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    assert specfun.inv_reg_gamma_lower is memo
    assert callable(specfun.inv_reg_gamma_lower.cache_info)


def test_package_imports_only_the_standard_library():
    # mpmath and other third-party packages may be installed where the tests
    # run, so an accidental import would not fail there; read the sources
    sources = sorted(Path(twoside.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)
