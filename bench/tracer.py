"""Per-layer tracing of twoside from outside the package.

``Tracer.install()`` replaces every module-level binding of each traced
function in every loaded ``twoside`` module (and the traced methods of
the ``dist`` classes) with a wrapper that records a span: calls, errors,
and self time, which is the span's wall time minus the time covered by
the spans it encloses. Spans are aggregated in memory per name as they
close; nothing inside the package changes. ``uninstall()`` puts every
original back.

A few counters come from inside the wrappers: ``roots.brentq.evals``
counts objective evaluations by wrapping the objective passed in;
``specfun.large_shape_calls`` counts special-function calls with any shape
parameter of at least 500; the ``dist.table_*`` counters read the private
``dist._discrete_tables`` cache and are omitted when it is absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> (traced public functions, reported fields)
TRACED = (
    ("cli", ("main",), ("calls", "self_s")),
    ("stattests", ("variance_test", "f_test", "binomial_test", "fisher_exact"), ("calls", "self_s")),
    ("analysis", ("bias", "umpu_weights", "minlik_region", "fisher_pvalue_table",
                  "binomial_weight_table", "figure_data"), ("calls", "self_s", "errors")),
    ("pvalue", ("p_min_likelihood", "conjugate_point", "resolve_anchor", "tail_weights"),
     ("calls", "self_s")),
    ("pvalue", ("p_value",), ("calls",)),
    ("specfun", ("reg_gamma_lower", "reg_gamma_upper", "reg_beta", "inv_reg_gamma_lower",
                 "inv_reg_beta", "log_choose", "norm_cdf", "norm_quantile"),
     ("calls", "self_s", "errors")),
    ("roots", ("brentq",), ("calls", "evals", "self_s", "errors")),
)
DIST_METHODS = ("cdf", "sf", "quantile", "pdf_or_pmf")
DIST_FIELDS = ("calls", "self_s")
# positions of the shape parameters of the special functions
SHAPE_ARGS = {"reg_gamma_lower": (0,), "reg_gamma_upper": (0,), "inv_reg_gamma_lower": (0,),
              "reg_beta": (1, 2), "inv_reg_beta": (1, 2)}
LARGE_SHAPE = 500.0
TABLE_METRICS = ("dist.table_builds", "dist.table_points", "dist.table_build_s",
                 "dist.table_hit_ratio")


def metric_names(with_tables: bool = True) -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, functions, fields in TRACED:
        names += [f"{layer}.{fn}.{field}" for fn in functions for field in fields]
    names += [f"dist.{kind}.{m}.{field}" for kind in ("discrete", "continuous")
              for m in DIST_METHODS for field in DIST_FIELDS]
    names.append("specfun.large_shape_calls")
    if with_tables:
        names += TABLE_METRICS
    names.append("trace.overhead_ratio")
    return names


def _twoside_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "twoside" or name.startswith("twoside."))]


def _table_cache(dist_module):
    """The discrete-table cache, or None when the private name is gone."""
    cache = getattr(dist_module, "_discrete_tables", None)
    if cache is None or not callable(getattr(cache, "cache_info", None)):
        return None
    return cache


class Tracer:
    def __init__(self):
        self._stack: list[float] = []
        self._stats: dict[str, list] = {}  # name -> [calls, self_s, errors]
        self._counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)
        # the objects themselves are kept so that their ids stay unique
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, object] = {}
        self._table_cache = None
        self._table_info0 = None

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        stats = self._stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[2] += 1
                raise
            finally:
                elapsed = clock() - t0
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _counting_brentq(self, brentq):
        counts = self._counts

        def counted(f, *args, **kwargs):
            def objective(x):
                counts["roots.brentq.evals"] += 1
                return f(x)

            return brentq(objective, *args, **kwargs)

        return counted

    def _shape_counting(self, fn, positions):
        counts = self._counts

        def counted(*args, **kwargs):
            if any(i < len(args) and args[i] >= LARGE_SHAPE for i in positions):
                counts["specfun.large_shape_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _table_lookup(self, cache):
        counts = self._counts
        clock = time.perf_counter

        def lookup(d):
            misses = cache.cache_info().misses
            t0 = clock()
            result = cache(d)
            if cache.cache_info().misses != misses:
                counts["dist.table_build_s"] += clock() - t0
                counts["dist.table_builds"] += 1
                support = d.support()
                counts["dist.table_points"] += int(support.hi - support.lo) + 1
            return result

        return lookup

    # -- installation ----------------------------------------------------------

    def _remember(self, original, wrapper) -> None:
        self._originals[id(original)] = original
        self._wrappers[id(wrapper)] = wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        self._remember(original, wrapper)
        for module in _twoside_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for layer in {layer for layer, _, _ in TRACED}:
            importlib.import_module(f"twoside.{layer}")
        self.reset()
        for layer, functions, _ in TRACED:
            module = sys.modules[f"twoside.{layer}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                inner = original
                if layer == "roots" and fn_name == "brentq":
                    inner = self._counting_brentq(original)
                elif layer == "specfun" and fn_name in SHAPE_ARGS:
                    inner = self._shape_counting(original, SHAPE_ARGS[fn_name])
                self._replace_everywhere(original, self._span(f"{layer}.{fn_name}", inner))

        dist = sys.modules["twoside.dist"]
        for cls in self._dist_classes(dist):
            kind = "discrete" if cls.is_discrete else "continuous"
            for method in DIST_METHODS:
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                wrapper = self._span(f"dist.{kind}.{method}", original)
                self._remember(original, wrapper)
                setattr(cls, method, wrapper)
                self._patched.append((cls, method, original))

        cache = _table_cache(dist)
        if cache is not None:
            self._table_cache = cache
            self._table_info0 = cache.cache_info()
            self._replace_everywhere(cache, self._span("dist.table_lookup",
                                                       self._table_lookup(cache)))

    @staticmethod
    def _dist_classes(dist) -> list[type]:
        return [c for c in vars(dist).values()
                if isinstance(c, type) and issubclass(c, dist.Distribution)
                and c.__module__ == dist.__name__]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Zero every counter, e.g. after warm-up requests."""
        for stats in self._stats.values():
            stats[:] = [0, 0.0, 0]
        self._counts.update({"roots.brentq.evals": 0, "specfun.large_shape_calls": 0,
                             "dist.table_builds": 0, "dist.table_points": 0,
                             "dist.table_build_s": 0.0})
        if self._table_cache is not None:
            self._table_info0 = self._table_cache.cache_info()

    # -- self-checks -------------------------------------------------------------

    def _bindings(self):
        """(where, value) for every module attribute, one level into
        module-level containers, and every dist class attribute."""
        for module in _twoside_modules():
            for attr, value in vars(module).items():
                yield f"{module.__name__}.{attr}", value
                if isinstance(value, dict):
                    items = value.values()
                elif isinstance(value, (list, tuple, set, frozenset)):
                    items = value
                else:
                    continue
                for item in items:
                    yield f"{module.__name__}.{attr}[...]", item
        dist = sys.modules.get("twoside.dist")
        if dist is not None:
            for cls in self._dist_classes(dist):
                for attr, value in vars(cls).items():
                    yield f"{dist.__name__}.{cls.__name__}.{attr}", value

    def unwrapped_references(self) -> list[str]:
        """Bindings that still reach a traced function around its wrapper."""
        return sorted(where for where, value in self._bindings() if id(value) in self._originals)

    def leftover_wrappers(self) -> list[str]:
        """Bindings that still hold a wrapper (call after uninstall)."""
        return sorted(where for where, value in self._bindings() if id(value) in self._wrappers)

    # -- report --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, without ``trace.overhead_ratio`` (the caller
        measures that against an untraced run of the same requests)."""
        out: dict[str, float] = {}
        for layer, functions, fields in TRACED:
            for fn in functions:
                calls, self_s, errors = self._stats.get(f"{layer}.{fn}", (0, 0.0, 0))
                values = {"calls": calls, "self_s": self_s, "errors": errors,
                          "evals": self._counts["roots.brentq.evals"]}
                out.update({f"{layer}.{fn}.{field}": values[field] for field in fields})
        for kind in ("discrete", "continuous"):
            for method in DIST_METHODS:
                calls, self_s, _ = self._stats.get(f"dist.{kind}.{method}", (0, 0.0, 0))
                out[f"dist.{kind}.{method}.calls"] = calls
                out[f"dist.{kind}.{method}.self_s"] = self_s
        out["specfun.large_shape_calls"] = self._counts["specfun.large_shape_calls"]
        if self._table_cache is not None:
            info = self._table_cache.cache_info()
            hits = info.hits - self._table_info0.hits
            lookups = hits + info.misses - self._table_info0.misses
            out["dist.table_builds"] = self._counts["dist.table_builds"]
            out["dist.table_points"] = self._counts["dist.table_points"]
            out["dist.table_build_s"] = self._counts["dist.table_build_s"]
            out["dist.table_hit_ratio"] = hits / lookups if lookups else 0.0
        return out
