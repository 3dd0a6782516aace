"""The benchmark's tracer still finds every function and cache it wraps.

``bench/tracer.py`` replaces named bindings of the package at run time, so
a rename inside ``twoside`` breaks ``--trace 1`` without breaking any other
test. The tracer is loaded from its file, read-only, and its tables are
checked against the package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from twoside import dist

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_its_module():
    for layer, functions, _ in _tracer().TRACED:
        module = importlib.import_module(f"twoside.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"twoside.{layer}.{name}"


def test_every_law_defines_the_traced_methods():
    # the tracer wraps each method where a class of ``dist`` defines it; a law
    # must reach its own definition, not the abstract one of the base class
    classes = [c for c in vars(dist).values()
               if isinstance(c, type) and issubclass(c, dist.Distribution)
               and c.__module__ == dist.__name__]
    laws = [c for c in classes if not c.__name__.startswith("_") and c is not dist.Distribution]
    assert len(laws) >= 8
    for law in laws:
        for method in _tracer().DIST_METHODS:
            owner = next(c for c in law.__mro__ if method in vars(c))
            assert owner in classes and owner is not dist.Distribution, f"{law.__name__}.{method}"


def test_the_discrete_table_cache_reports_its_info():
    assert callable(dist._discrete_tables.cache_info)
