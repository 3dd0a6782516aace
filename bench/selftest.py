"""Self-tests of the benchmark: generators, tracer and oracles.

    python3 bench/selftest.py

Takes a few seconds. Needs the package sources under ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
import twoside.cli  # noqa: E402
import twoside.dist  # noqa: E402

STREAM_SESSIONS = 3


def _serve(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = twoside.cli.main(argv)
        except ArithmeticError:
            status = -1
    return status, out.getvalue()


def _stream(workload: str, seed: int, sessions: int = STREAM_SESSIONS):
    return list(itertools.islice(workloads.sessions(workload, seed), sessions))


def _bindings() -> dict[str, int]:
    return {where: id(value) for where, value in tracer.Tracer()._bindings()}


# a few requests touching every traced layer
SAMPLE_REQUESTS = [
    ["test", "binomial", "--x", "17", "--n", "101", "--p0", "0.1"],
    ["test", "fisher", "--table", "4,5,1,20"],
    ["pvalue", "--dist", "nchyper:30,40,100,1.7", "--x", "15", "--method", "all"],
    ["test", "variance", "--s2", "0.2", "--n", "6", "--sigma0sq", "1"],
    ["test", "f", "--s1sq", "2", "--n1", "7", "--s2sq", "1", "--n2", "12"],
    ["pvalue", "--dist", "truncnorm:0.5", "--x", "2.1", "--method", "all"],
    ["analyze", "bias", "--dist", "f:5,10", "--method", "umpu", "--alpha", "0.05"],
    ["analyze", "bias", "--dist", "chisq:6", "--method", "min_likelihood", "--alpha", "0.05"],
    ["analyze", "table2", "--margins", "9,5,30"],
    ["analyze", "table1", "--n", "10", "--p", "0.2"],
    ["analyze", "figure", "--which", "fig4"],
]


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_lists(self):
        for workload in workloads.SESSION_SIZE:
            self.assertEqual(_stream(workload, 7), _stream(workload, 7))
            self.assertNotEqual(_stream(workload, 7, 1), _stream(workload, 8, 1))
        self.assertEqual(_stream("paper_artifacts", 7, 2), _stream("paper_artifacts", 7, 2))
        self.assertNotEqual(_stream("paper_artifacts", 7, 1), _stream("paper_artifacts", 8, 1))
        _, order = _stream("paper_artifacts", 7, 1)[0]
        self.assertEqual(sorted(order), sorted(workloads.paper_pass()))

    def test_exact_tests_never_repeat_a_distribution(self):
        keys = []
        for warmup, timed in _stream("exact_tests", 3):
            self.assertEqual(len(warmup), workloads.WARMUP_SIZE)
            self.assertEqual(len(timed), workloads.SESSION_SIZE["exact_tests"])
            for argv in warmup + timed:
                family, params, _ = checks.discrete_request(argv)
                keys.append((family, params))
        self.assertEqual(len(keys), len(set(keys)))

    def test_warmup_disjoint_from_timed(self):
        for workload in workloads.SESSION_SIZE:
            sessions = _stream(workload, 5)
            warm = {tuple(a) for w, _ in sessions for a in w}
            timed = {tuple(a) for _, t in sessions for a in t}
            self.assertFalse(warm & timed, workload)

    def test_exact_tests_keep_full_support_range(self):
        sizes = []
        for _, timed in _stream("exact_tests", 11):
            for argv in timed:
                family, params, _ = checks.discrete_request(argv)
                sizes.append(checks._support_size(family, params))
        lo, hi = workloads.SUPPORT_RANGE
        self.assertGreaterEqual(min(sizes), lo)
        self.assertLessEqual(max(sizes), hi)
        self.assertLess(min(sizes), 1.1 * lo)
        self.assertGreater(max(sizes), 0.9 * hi)

    def test_continuous_tests_keep_large_chisq_df(self):
        # the known ArithmeticError regime (df >= ~1303) must stay in the stream
        dfs = []
        for _, timed in _stream("continuous_tests", 11, 1):
            for argv in timed:
                if argv[:2] == ["test", "variance"]:
                    dfs.append(int(argv[argv.index("--n") + 1]) - 1)
                elif argv[0] == "pvalue" and argv[2].startswith("chisq:"):
                    dfs.append(int(argv[2][len("chisq:"):]))
        self.assertGreater(max(dfs), 4500)
        self.assertLessEqual(min(dfs), 2)
        self.assertGreater(sum(df > 1303 for df in dfs), 0.1 * len(dfs))

    def test_requests_are_valid(self):
        # every generated request parses and runs; only the known numeric
        # failure may occur
        for workload in workloads.SESSION_SIZE:
            warmup, timed = _stream(workload, 13, 1)[0]
            for argv in warmup + timed[:40]:
                status, out = _serve(argv)
                self.assertIn(status, (0, -1), argv)
                if status == 0:
                    self.assertEqual(checks.check_response(argv, out), [], argv)


class TracerTests(unittest.TestCase):
    def test_wraps_every_binding_and_restores_them(self):
        before = _bindings()
        t = tracer.Tracer()
        t.install()
        try:
            self.assertEqual(t.unwrapped_references(), [])
            # bindings named in the tracer's contract
            import twoside.analysis as analysis
            import twoside.pvalue as pvalue
            import twoside.roots as roots
            import twoside.specfun as specfun
            wrapped = t._wrappers
            for module, name in ((roots, "brentq"), (pvalue, "brentq"), (analysis, "brentq"),
                                 (specfun, "reg_beta"), (analysis, "reg_beta"),
                                 (specfun, "reg_gamma_lower"), (analysis, "reg_gamma_lower"),
                                 (analysis, "p_min_likelihood"), (analysis, "tail_weights"),
                                 (analysis, "resolve_anchor"), (analysis, "conjugate_point")):
                self.assertIn(id(getattr(module, name)), wrapped, f"{module.__name__}.{name}")
            for argv in SAMPLE_REQUESTS:
                _serve(argv)
            # a distribution no other test builds, so its table is built here
            _serve(["pvalue", "--dist", "binom:137,0.377", "--x", "50"])
            self.assertEqual(t.unwrapped_references(), [])
            metrics = t.metrics()
        finally:
            t.uninstall()
        self.assertEqual(t.leftover_wrappers(), [])
        self.assertEqual(_bindings(), before)
        self.assertEqual(sorted(metrics), sorted(tracer.metric_names()[:-1]))
        self.assertGreater(metrics["roots.brentq.evals"], metrics["roots.brentq.calls"])
        self.assertEqual(metrics["analysis.bias.errors"], 1)
        self.assertGreaterEqual(metrics["dist.table_builds"], 1)
        self.assertGreaterEqual(metrics["dist.table_points"], 138)

    def test_self_time_excludes_children(self):
        t = tracer.Tracer()
        t.install()
        try:
            _serve(["analyze", "bias", "--dist", "chisq:5", "--method", "doubled",
                    "--alpha", "0.05"])
            m = t.metrics()
        finally:
            t.uninstall()
        self.assertGreater(m["specfun.reg_gamma_lower.calls"], 100)
        self.assertGreaterEqual(min(v for k, v in m.items() if k.endswith("self_s")), 0.0)

    def test_output_unchanged_by_tracing(self):
        plain = [_serve(a) for a in SAMPLE_REQUESTS]
        t = tracer.Tracer()
        t.install()
        try:
            traced = [_serve(a) for a in SAMPLE_REQUESTS]
        finally:
            t.uninstall()
        self.assertEqual(plain, traced)


class TableCacheAbsentTests(unittest.TestCase):
    """The dist.table_* counters read a private name; without it they are
    omitted and everything else is still reported."""

    def _metrics(self, requests):
        t = tracer.Tracer()
        t.install()
        try:
            for argv in requests:
                _serve(argv)
            self.assertEqual(t.unwrapped_references(), [])
            return t.metrics()
        finally:
            t.uninstall()
            self.assertEqual(t.leftover_wrappers(), [])

    def _expect_without_tables(self, metrics):
        self.assertEqual(sorted(metrics), sorted(tracer.metric_names(with_tables=False)[:-1]))

    def test_without_cache_info(self):
        original = twoside.dist._discrete_tables
        twoside.dist._discrete_tables = lambda d: original(d)
        try:
            self._expect_without_tables(self._metrics(SAMPLE_REQUESTS))
        finally:
            twoside.dist._discrete_tables = original

    def test_attribute_deleted(self):
        original = twoside.dist._discrete_tables
        del twoside.dist._discrete_tables
        try:
            continuous = [a for a in SAMPLE_REQUESTS if "binomial" not in a and "fisher" not in a
                          and "nchyper:30,40,100,1.7" not in a and "table1" not in a
                          and "table2" not in a and "fig4" not in a]
            self._expect_without_tables(self._metrics(continuous))
        finally:
            twoside.dist._discrete_tables = original


class OracleTests(unittest.TestCase):
    def test_exact_weights(self):
        a, d = (0.3).as_integer_ratio()
        self.assertEqual(checks.ExactDiscrete.binomial(12, 0.3).w,
                         [math.comb(12, k) * a**k * (d - a) ** (12 - k) for k in range(13)])
        h = checks.ExactDiscrete.hypergeometric(15, 12, 20)
        self.assertEqual((h.lo, h.w), (7, [math.comb(15, k) * math.comb(5, 12 - k)
                                           for k in range(7, 13)]))

    def test_published_values(self):
        # criterion 7 of the acceptance suite: binomial(10, 0.2) at x = 5
        pv = checks.ExactDiscrete.binomial(10, 0.2).p_values(5, 2.0)
        self.assertAlmostEqual(pv["conditional"], 0.052538, places=6)
        self.assertAlmostEqual(pv["min_likelihood"], 0.033, places=3)

    def test_checks_catch_a_wrong_value(self):
        argv = SAMPLE_REQUESTS[0]
        status, out = _serve(argv)
        self.assertEqual((status, checks.check_response(argv, out)), (0, []))
        body = json.loads(out)
        body["results"]["p_two_sided"]["min_likelihood"] *= 1.000001
        self.assertNotEqual(checks.check_response(argv, json.dumps(body)), [])
        body["results"]["p_two_sided"]["min_likelihood"] = 1.5
        self.assertNotEqual(checks.check_response(argv, json.dumps(body)), [])

    def test_pvalue_invariants_catch_a_wrong_value(self):
        # supports too large for the exact oracle, and continuous laws
        for argv in (["pvalue", "--dist", "chisq:1000", "--x", "950", "--method", "all"],
                     ["pvalue", "--dist", "f:30,4000", "--x", "1.3", "--method", "all"],
                     ["pvalue", "--dist", "binom:20000,0.3", "--x", "6050", "--method", "all"],
                     ["pvalue", "--dist", "hyper:3000,4000,9000", "--x", "1300", "--method", "all"],
                     ["pvalue", "--dist", "nchyper:3000,4000,9000,1.7", "--x", "1600",
                      "--method", "all"]):
            status, out = _serve(argv)
            self.assertEqual((status, checks.check_response(argv, out)), (0, []), argv)
            for group, key in (("p_values", "doubled"), ("weights", "w_left")):
                body = json.loads(out)
                body["results"][group][key] *= 1.00001
                self.assertNotEqual(checks.check_response(argv, json.dumps(body)), [], (argv, key))

    def test_paper_checks_pass_and_catch(self):
        for argv in (["analyze", "table2", "--margins", "9,5,40"],
                     ["analyze", "figure", "--which", "fig4"],
                     ["analyze", "table1", "--format", "csv"]):
            status, out = _serve(argv)
            self.assertEqual((status, checks.check_paper_response(argv, out)), (0, []))
        argv = ["analyze", "figure", "--which", "fig4"]
        _, out = _serve(argv)
        self.assertNotEqual(checks.check_paper_response(argv, out.replace("0.228248064", "0.228248065")), [])


class MetricTests(unittest.TestCase):
    def test_p99_blocks_hold_whole_sessions_of_at_least_1000(self):
        # six sessions of 250: one block of 1500, whose p99 is the pooled one
        sessions = [[float(i * 250 + j) for j in range(250)] for i in range(6)]
        pooled = [t for s in sessions for t in s]
        self.assertEqual(run.p99_of_blocks(sessions, 1000),
                         run.statistics.quantiles(pooled, n=100)[98])
        # eight sessions of 1000: eight blocks, mean of the middle four p99s
        sessions = [[float(j) + 1000 * i for j in range(1000)] for i in range(8)]
        p99s = [run.statistics.quantiles(s, n=100)[98] for s in sessions]
        self.assertEqual(run.p99_of_blocks(sessions, 1000), run.statistics.fmean(p99s[2:6]))
        # one block per session: a single outlying session is left out
        sessions = [[1.0] * 100 + [2.0] for _ in range(5)] + [[1.0] * 50 + [99.0] * 51]
        self.assertLess(run.p99_of_blocks(sessions, 1), 2.0)


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory(prefix=".bench_run_", dir=run.ROOT) as tmp:
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact_tests",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
