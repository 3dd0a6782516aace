"""The benchmark's tracer still finds every function and cache it wraps.

``bench/tracer.py`` replaces named bindings of the package at run time, so
a rename inside ``twoside`` breaks ``--trace 1`` without breaking any other
test. The tracer is loaded from its file, read-only, and its tables are
checked against the package.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import twoside
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


def test_tracer_reaches_the_layers_that_load_with_their_command():
    # cli imports stattests and analysis only when a command needs them; in a
    # fresh interpreter the tracer must still wrap what those commands call
    probe = f"""
import contextlib, importlib.util, io
import twoside.cli
spec = importlib.util.spec_from_file_location("_bench_tracer", {str(TRACER_PATH)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert twoside.cli.main(["analyze", "bias", "--dist", "chisq:5", "--method", "umpu",
                             "--alpha", "0.05"]) == 0
    assert twoside.cli.main(["test", "f", "--s1sq", "2", "--n1", "7", "--s2sq", "1",
                             "--n2", "12"]) == 0
metrics = tracer.metrics()
unwrapped = tracer.unwrapped_references()
tracer.uninstall()
print(metrics["analysis.bias.calls"] > 0, metrics["stattests.f_test.calls"] > 0,
      unwrapped, tracer.leftover_wrappers())
"""
    src = str(Path(twoside.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "True True [] []\n"
