"""End-to-end command-line tests.

The CLI is a thin shell over the library: every numeric output is asserted
both against the historically printed value (where one exists) and against
the library call serialized the same way (bit-for-bit round-trip).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twoside
from twoside import analysis, cli, pvalue, stattests
from twoside._record import Record
from twoside.cli import main
from twoside.dist import (
    Binomial,
    ChiSquare,
    FRatio,
    Hypergeometric,
    NoncentralHypergeometric,
    Triangular,
    TruncatedNormal,
    Uniform,
)

MEAN5 = 5.0


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def round10(x: float) -> float:
    return float(f"{x:.10g}")


def _round_floats(value):
    # the reference for cli._json: a copy with every float rounded, which
    # json.dumps(indent=2, allow_nan=False) then writes; a finite float whose
    # rounding overflows is kept as it is
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        rounded = float(f"{value:.10g}")
        return value if math.isfinite(value) and not math.isfinite(rounded) else rounded
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    if isinstance(value, Record):
        return _round_floats(vars(value))
    return value


def _rendered(render, value) -> tuple[str, str]:
    try:
        return "text", render(value)
    except ValueError as exc:
        return "ValueError", str(exc)


def _assert_renders_like_the_reference(value):
    expected = _rendered(lambda v: json.dumps(_round_floats(v), indent=2, allow_nan=False),
                         value)
    assert _rendered(cli._json, value) == expected


_STRINGS = ["", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
            "caf\u00e9", "\u2028\u2029", "\U0001f600", "\ud800 lone surrogate", "/ <>&'"]

_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931344e308, -1.7976931344e308, 1e-310, 1.2345678901234e-320,
    # repr switches to exponent form below 1e-4 and from 1e16 on
    1e-4, 9.99999999999e-5, 1.00000000005e-4, 1e-5, 9.9999999995e-5, 0.000123456789012,
    1e16, 9999999999999998.0, 9999999999.5, 1e15 + 0.3, 12345678901234567.0,
    # .10g switches to exponent form from 1e10 on
    1e10, 9999999999.0, 9999999999.4, 10000000001.0, 123456789012.0,
    # ties at the 11th significant digit: exact in binary, or just either side
    10000000005.0, 10000000015.0, 99999999995.0, 12345678905.0, 1.00000000005,
    0.12345678905, 2.5000000005e-5, 0.30000000000000004, 1 / 3, -2 / 3, 2.0 ** -1074 * 3,
]


def _with_neighbours(value: float) -> list[float]:
    return [value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]


# every decimal exponent, either side of each power of ten, and nearly every
# binary exponent (subnormals, infinities and NaNs included) through seeded
# random bit patterns
_POWERS_OF_TEN = [v for k in range(-330, 309) for sign in (1.0, -1.0)
                  for v in _with_neighbours(sign * float(f"1e{k}"))]
_BITS = random.Random(2008)
_RANDOM_BITS = [struct.unpack("<d", _BITS.getrandbits(64).to_bytes(8, "little"))[0]
                for _ in range(20_000)]


def test_json_matches_the_reference_on_edge_values():
    for value in _FLOATS:
        _assert_renders_like_the_reference(value)
        _assert_renders_like_the_reference([value, {"v": value}])
    for value in _POWERS_OF_TEN + _RANDOM_BITS:
        _assert_renders_like_the_reference(value)
    for text in _STRINGS:
        _assert_renders_like_the_reference({text: text, "list": [text]})
    for value in [2**63, 2**64 + 1, -(2**100), 0, -1, True, False, None, [], {}, (), [[]],
                  {"e": {}}, ([], ()), [True, 1, 1.0, None, "1"]]:
        _assert_renders_like_the_reference(value)
        _assert_renders_like_the_reference({"v": value, "w": [value, value]})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_rejects_a_non_finite_float_like_the_reference(value):
    for wrapped in (value, [1.0, value], {"a": {"b": [value]}}):
        kind, message = _rendered(cli._json, wrapped)
        assert kind == "ValueError"
        assert message.startswith("Out of range float values are not JSON compliant: ")
        _assert_renders_like_the_reference(wrapped)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", 1j])
def test_json_rejects_a_value_json_cannot_write_like_the_reference(value):
    for wrapped in (value, [1.0, value], {"a": {"b": [value]}}):
        with pytest.raises(TypeError) as ours:
            cli._json(wrapped)
        with pytest.raises(TypeError) as reference:
            json.dumps(wrapped, indent=2, allow_nan=False)
        assert str(ours.value) == str(reference.value)


@pytest.mark.parametrize("value", [1.7976931345e308, 1.7976931348623157e308,
                                   -1.7976931348623157e308])
def test_json_writes_a_finite_float_that_rounds_to_infinity_unrounded(value):
    # floats from 1.7976931345e308 up round to infinity at 10 significant
    # digits; they are finite, so they are written as they are
    for wrapped in (value, [1.0, value], {"a": {"b": [value]}}):
        assert cli._json(wrapped) == json.dumps(wrapped, indent=2, allow_nan=False)
        _assert_renders_like_the_reference(wrapped)


def test_json_renders_nested_records_like_the_reference():
    report = stattests.TestReport(
        statistic=12.3456789012345, anchor=4.0,
        weights=pvalue.Weights(0.4158801869955079, 0.5841198130044921),
        p_left=1e-17, p_right=1.0, p_two_sided={"doubled": 2e-17, "conditional": 1.5e-17},
        direction="left")
    bias = analysis.BiasReport(method="umpu", level=0.05, min_power=0.05000000000000001,
                               bias=-1.3877787807814457e-17, argmin_rho=1.0)
    _assert_renders_like_the_reference({"report": report, "rows": [bias, (bias, report)]})


_json_leaves = (st.floats() | st.integers() | st.booleans() | st.none()
                | st.text() | st.sampled_from(_FLOATS))


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    _json_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)
                      | st.builds(analysis.BiasReport, st.text(), children, children,
                                  children, children)),
    max_leaves=24))
def test_json_matches_the_reference_on_nested_values(value):
    _assert_renders_like_the_reference(value)


def test_json_gives_a_report_its_fields_in_order():
    report = stattests.TestReport(
        statistic=1.23456789012345, anchor=5.0,
        weights=pvalue.Weights(0.4158801869955079, 0.5841198130044921),
        p_left=0.1, p_right=0.9000000000000001,
        p_two_sided={"doubled": 0.2000000000000002}, direction="left")
    out = json.loads(cli._json({"truncate": True, "report": report}))
    assert out["truncate"] is True
    # the declared field order of the record class
    assert list(out["report"]) == list(stattests.TestReport.__annotations__)
    assert out["report"] == {
        "statistic": 1.23456789,
        "anchor": 5.0,
        "weights": {"w_left": 0.415880187, "w_right": 0.584119813},
        "p_left": 0.1,
        "p_right": 0.9,
        "p_two_sided": {"doubled": 0.2},
        "direction": "left",
    }
    assert list(out["report"]["weights"]) == ["w_left", "w_right"]
    assert report.statistic == 1.23456789012345  # the report itself is not modified


# ---------------------------------------------------------------------------
# pvalue command


def test_pvalue_envelope_shape(capsys):
    code, out, err = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5")
    assert code == 0 and err == ""
    env = json.loads(out)
    assert list(env) == ["schema_version", "command", "inputs", "results", "warnings"]
    assert env["schema_version"] == "twoside/1"
    assert env["command"] == "pvalue"
    assert env["inputs"] == {"dist": "chisq:5", "x": 0.5, "anchor": "mean",
                             "method": "all", "truncate": True}
    assert env["warnings"] == []
    results = env["results"]
    assert results["anchor"] == 5.0
    assert results["weights"]["w_left"] == round10(ChiSquare(5).cdf(MEAN5))
    assert set(results["p_values"]) == {"doubled", "conditional", "min_likelihood"}


def test_pvalue_conditional_golden(capsys):
    code, out, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5",
                       "--anchor", "mean", "--method", "conditional")
    assert code == 0
    p = json.loads(out)["results"]["p_values"]["conditional"]
    assert p == pytest.approx(0.0135, abs=5e-5)
    lib = pvalue.p_conditional(ChiSquare(5), 0.5, MEAN5)
    assert p == round10(lib)
    assert "0.01348474507" in out  # 10-significant-digit serialization


def test_pvalue_continuous_all_round_trip(capsys):
    _, out, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5")
    p_values = json.loads(out)["results"]["p_values"]
    d = ChiSquare(5)
    assert p_values["doubled"] == round10(pvalue.p_doubled(d, 0.5, anchor_value=MEAN5))
    assert p_values["conditional"] == round10(
        pvalue.p_conditional(d, 0.5, MEAN5))
    assert p_values["min_likelihood"] == round10(pvalue.p_min_likelihood(d, 0.5))


def test_pvalue_binomial_all_methods(capsys):
    code, out, _ = run(capsys, "pvalue", "--dist", "binom:10,0.2", "--x", "5")
    assert code == 0
    p_values = json.loads(out)["results"]["p_values"]
    assert p_values["min_likelihood"] == pytest.approx(0.033, abs=5e-4)
    assert p_values["doubled"] == pytest.approx(0.066, abs=5e-4)
    # the conditional value is 0.0525377; a historically printed .052 was a
    # truncation of it
    assert p_values["conditional"] == pytest.approx(0.0525377, abs=5e-7)
    assert p_values["conditional_modified"] == pytest.approx(0.068, abs=5e-4)


def test_pvalue_uniform_min_likelihood_is_one(capsys):
    code, out, _ = run(capsys, "pvalue", "--dist", "unif:0,1", "--x", "0.3",
                       "--method", "minlik")
    assert code == 0
    assert json.loads(out)["results"]["p_values"]["min_likelihood"] == 1.0


def test_pvalue_uniform_min_likelihood_off_the_support_is_zero(capsys):
    code, out, err = run(capsys, "pvalue", "--dist", "unif:0,1", "--x", "2",
                         "--method", "min_likelihood")
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["p_values"]["min_likelihood"] == 0.0


@pytest.mark.parametrize("x", ["6.99999999", "7.0000001"])
def test_pvalue_min_likelihood_next_to_the_mode(capsys, x):
    # chi-square(9) has its mode at 7, where the density at x ties the
    # density at the mode within rounding
    code, out, err = run(capsys, "pvalue", "--dist", "chisq:9", "--x", x,
                         "--method", "min_likelihood")
    assert (code, err) == (0, "")
    assert 0.99999998 < json.loads(out)["results"]["p_values"]["min_likelihood"] <= 1.0


def test_pvalue_weighted_method(capsys):
    code, out, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5",
                       "--method", "weighted:0.731")
    assert code == 0
    p = json.loads(out)["results"]["p_values"]["weighted"]
    lib = pvalue.p_weighted(ChiSquare(5), 0.5, MEAN5, pvalue.Weights(0.731, 0.269))
    assert p == round10(lib)


def test_pvalue_no_truncate(capsys):
    _, out_raw, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "4.8",
                        "--method", "doubled", "--no-truncate")
    _, out_capped, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "4.8",
                           "--method", "doubled")
    raw = json.loads(out_raw)["results"]["p_values"]["doubled"]
    capped = json.loads(out_capped)["results"]["p_values"]["doubled"]
    assert raw == round10(2.0 * ChiSquare(5).cdf(4.8))
    assert raw > 1.0
    assert capped == 1.0
    assert json.loads(out_raw)["inputs"]["truncate"] is False


def test_pvalue_anchor_forms(capsys):
    _, out, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5",
                    "--anchor", "median", "--method", "conditional")
    median = ChiSquare(5).quantile(0.5)
    lib = pvalue.p_conditional(ChiSquare(5), 0.5, median)
    assert json.loads(out)["results"]["p_values"]["conditional"] == round10(lib)

    _, out, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5",
                    "--anchor", "value:6.407", "--method", "conditional")
    lib = pvalue.p_conditional(ChiSquare(5), 0.5, 6.407)
    assert json.loads(out)["results"]["p_values"]["conditional"] == round10(lib)


def test_pvalue_noncentral_hypergeometric_round_trip(capsys):
    code, out, _ = run(capsys, "pvalue", "--dist", "nchyper:12,9,26,3.7",
                       "--x", "7", "--method", "conditional", "--anchor", "median")
    assert code == 0
    parsed = json.loads(out)["results"]["p_values"]["conditional"]
    from twoside.dist import NoncentralHypergeometric

    d = NoncentralHypergeometric(12, 9, 26, 3.7)
    lib = pvalue.p_value(d, 7, pvalue.CONDITIONAL,
                         anchor_value=pvalue.resolve_anchor(d, "median"))
    assert parsed == round10(lib)


# ---------------------------------------------------------------------------
# test command


def test_variance_test_golden(capsys):
    code, out, _ = run(capsys, "test", "variance", "--s2", "0.2", "--n", "6",
                       "--sigma0sq", "1")
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "test.variance"
    results = env["results"]
    assert results["statistic"] == 1.0
    assert results["p_left"] == pytest.approx(0.0374, abs=5e-5)
    assert results["direction"] == "below"
    assert results["weights"]["w_left"] == pytest.approx(0.584, abs=5e-4)
    assert set(results["p_two_sided"]) == {"doubled", "conditional", "min_likelihood"}


def test_variance_test_far_in_the_upper_tail(capsys):
    # statistic 300 on chi-square(5): the min-likelihood partner sits near
    # 1e-41, which a bracket reaching down from the mode took too long to find
    code, out, err = run(capsys, "test", "variance", "--s2", "60", "--n", "6",
                         "--sigma0sq", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["p_two_sided"]["min_likelihood"] == 1.001530231e-62


def test_variance_test_round_trip(capsys):
    _, out, _ = run(capsys, "test", "variance", "--s2", "2.679", "--n", "6",
                    "--sigma0sq", "1")
    results = json.loads(out)["results"]
    report = stattests.variance_test(2.679, 6, 1.0)
    assert results["statistic"] == round10(report.statistic)
    for method, value in report.p_two_sided.items():
        assert results["p_two_sided"][method] == round10(value)


def test_variance_test_from_data_file(capsys, tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("1\n2\n3\n\n4\n5\n6\n", encoding="utf-8")
    code, out, _ = run(capsys, "test", "variance", "--data", str(path),
                       "--sigma0sq", "1")
    assert code == 0
    env = json.loads(out)
    assert env["inputs"]["n"] == 6
    report = stattests.variance_test_from_sample([1, 2, 3, 4, 5, 6], 1.0)
    assert env["results"]["statistic"] == round10(report.statistic) == 17.5


def test_f_test_round_trip(capsys):
    code, out, _ = run(capsys, "test", "f", "--s1sq", "2", "--n1", "7",
                       "--s2sq", "1", "--n2", "12")
    assert code == 0
    results = json.loads(out)["results"]
    report = stattests.f_test(2.0, 7, 1.0, 12)
    assert results["statistic"] == 2.0
    assert results["anchor"] == round10(11.0 / 9.0)
    for method, value in report.p_two_sided.items():
        assert results["p_two_sided"][method] == round10(value)


def test_binomial_test_golden(capsys):
    code, out, _ = run(capsys, "test", "binomial", "--x", "17", "--n", "101",
                       "--p0", "0.1")
    assert code == 0
    p_two = json.loads(out)["results"]["p_two_sided"]
    assert p_two["conditional"] == pytest.approx(0.052, abs=5e-4)
    assert p_two["doubled"] == pytest.approx(0.0450560, abs=5e-7)
    assert p_two["min_likelihood"] == pytest.approx(0.030, abs=5e-4)


def test_fisher_test_golden(capsys):
    code, out, _ = run(capsys, "test", "fisher", "--table", "4,5,1,20")
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "test.fisher"
    results = env["results"]
    assert results["statistic"] == 4
    assert results["p_two_sided"]["conditional"] == pytest.approx(11.0 / 271.0, rel=1e-9)
    assert results["p_two_sided"]["conditional"] == pytest.approx(0.040, abs=1e-3)


def test_fisher_test_round_trip(capsys):
    _, out, _ = run(capsys, "test", "fisher", "--table", "0,9,5,16")
    results = json.loads(out)["results"]
    report = stattests.fisher_exact(stattests.ContingencyTable(0, 9, 5, 16))
    assert results["statistic"] == 0
    for method, value in report.p_two_sided.items():
        assert results["p_two_sided"][method] == round10(value)


def test_test_method_subset(capsys):
    _, out, _ = run(capsys, "test", "binomial", "--x", "5", "--n", "10",
                    "--p0", "0.2", "--method", "conditional,minlik")
    p_two = json.loads(out)["results"]["p_two_sided"]
    assert set(p_two) == {"conditional", "min_likelihood"}


# ---------------------------------------------------------------------------
# analyze command


def test_analyze_umpu_golden(capsys):
    code, out, _ = run(capsys, "analyze", "umpu", "--dist", "chisq:5",
                       "--alpha", "0.05")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["w_left"] == pytest.approx(0.731, abs=5e-4)
    assert results["c_left"] == pytest.approx(0.989, abs=1e-3)
    assert results["c_right"] == pytest.approx(14.37, abs=1e-2)
    assert results["alpha_left"] == pytest.approx(0.037, abs=5e-4)
    assert results["alpha_right"] == pytest.approx(0.013, abs=5e-4)
    assert results["anchor"] == pytest.approx(6.407, abs=1e-3)
    w_star, region = analysis.umpu_weights(ChiSquare(5), 0.05)
    assert results["w_left"] == round10(w_star)
    assert results["c_right"] == round10(region.c_right)


def test_analyze_bias_golden(capsys):
    code, out, _ = run(capsys, "analyze", "bias", "--dist", "chisq:5",
                       "--method", "conditional", "--alpha", "0.05")
    assert code == 0
    env = json.loads(out)
    assert env["results"]["bias"] == pytest.approx(-0.0020, abs=2e-4)
    assert env["results"]["method"] == "conditional"
    assert env["warnings"] == []


def test_analyze_bias_without_a_mean_exits_three(capsys):
    code, out, err = run(capsys, "analyze", "bias", "--dist", "f:5,2",
                         "--method", "conditional", "--alpha", "0.05")
    assert code == 3
    assert out == ""
    assert err == "error: mean is undefined for denominator df <= 2, got 2\n"


def test_analyze_bias_unknown_method_exits_two(capsys):
    code, out, err = run(capsys, "analyze", "bias", "--dist", "chisq:5",
                         "--method", "foo", "--alpha", "0.05")
    assert (code, out) == (2, "")
    assert err == ("error: unknown bias method 'foo'; expected one of "
                   "doubled, conditional, umpu, min_likelihood\n")


def test_analyze_bias_with_the_median_anchor(capsys):
    # F(5, 2) has no mean, but its conditional region about the median exists
    code, out, err = run(capsys, "analyze", "bias", "--dist", "f:5,2",
                         "--method", "conditional", "--alpha", "0.05", "--anchor", "median")
    assert code == 0
    assert err == ""
    env = json.loads(out)
    assert env["warnings"] == []
    results = env["results"]
    assert results["min_power"] == 0.04717604358
    assert results["bias"] == -0.002823956421
    assert results["argmin_rho"] == 0.7812886848
    report = analysis.bias(FRatio(5, 2), "conditional", 0.05, anchor="median")
    assert results["bias"] == round10(report.bias)


def test_analyze_table1_json(capsys):
    code, out, _ = run(capsys, "analyze", "table1")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 28
    row = next(r for r in rows if r["n"] == 10 and r["p"] == 0.2)
    assert row["w_left"] == pytest.approx(0.678, abs=5e-4)


def test_analyze_table1_csv_golden_bytes(capsys):
    code, out, _ = run(capsys, "analyze", "table1", "--n", "10,11", "--p", "0.2",
                       "--format", "csv")
    assert code == 0
    assert out == ("n,p,w_left,weight_ratio,w_left_modified\n"
                   "10,0.2,0.6777995264,1.085885922,0.5205873968\n"
                   "11,0.2,0.6174015488,1.613706346,0.6174015488\n")
    assert "\r" not in out


def test_analyze_table2(capsys):
    code, out, _ = run(capsys, "analyze", "table2", "--margins", "9,5,30")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [r["n11"] for r in rows] == [0, 1, 2, 3, 4, 5]
    assert rows[5]["p_conditional"] == pytest.approx(1.0 / 542.0, rel=1e-9)
    assert rows[2]["p_conditional"] == 1.0

    code, out, _ = run(capsys, "analyze", "table2", "--margins", "9,5,30",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n11,prob,p_one_sided,p_min_likelihood,p_conditional"
    assert len(lines) == 7


def test_analyze_figure_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "figure", "--which", "fig1",
                       "--resolution", "16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho,power_min_likelihood,power_doubled,power_conditional,power_umpu"
    at_null = next(line for line in lines[1:] if line.startswith("1,"))
    assert all(float(v) == pytest.approx(0.05, abs=1e-10)
               for v in at_null.split(",")[1:])

    out_path = tmp_path / "fig4.csv"
    code, out, _ = run(capsys, "analyze", "figure", "--which", "fig4",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    content = out_path.read_text(encoding="utf-8")
    lines = content.splitlines()
    assert len(lines) == 1 + 11 + 12
    assert lines[0] == "panel,x,p_min_likelihood,p_conditional,p_conditional_modified,p_doubled"


# n -> (bias_doubled, bias_conditional) of the one-sample (chi-square, df = n - 1)
# panel of fig2, from 40-digit mpmath; tests/make_region_reference.py prints them
FIG2_ONE_SAMPLE = {
    3: ("-0.0095286358937690490406", "-0.0039397072601486376166"),
    4: ("-0.0070853234180725865727", "-0.0029943270280067466242"),
    5: ("-0.0055967874778360895923", "-0.0023866039969532441108"),
    6: ("-0.0046112578252634395754", "-0.00197553874445959681"),
    7: ("-0.0039154508837042850407", "-0.0016821230037482866043"),
    8: ("-0.0033996872774006030088", "-0.0014632168408008082491"),
    9: ("-0.0030027881561000754028", "-0.0012940489681152486594"),
    10: ("-0.0026882264608402384944", "-0.0011595814822618871282"),
    11: ("-0.0024329470914065960026", "-0.0010502214982935426848"),
    12: ("-0.0022217195830562241202", "-0.00095958554491046560416"),
    13: ("-0.0020440951779334171488", "-0.00088327117892849498568"),
    14: ("-0.0018926747486556507053", "-0.00081814851188127862285"),
    15: ("-0.0017620758085618392453", "-0.00076193370241434529357"),
    16: ("-0.0016482913764100413589", "-0.00071292238461792813046"),
    17: ("-0.0015482781239690628153", "-0.00066981750439851871162"),
    18: ("-0.0014596837793807111887", "-0.00063161488232274236051"),
    19: ("-0.0013806619107791619159", "-0.00059752519136534006341"),
    20: ("-0.0013097431358325930562", "-0.00056691955036547125656"),
    21: ("-0.0012457437071969706836", "-0.00053929081525724363652"),
    22: ("-0.0011876994234404332516", "-0.00051422553809493139563"),
    23: ("-0.0011348170529674144447", "-0.00049138332130959225684"),
    24: ("-0.0010864380927435590353", "-0.00047048139162062299808"),
    25: ("-0.0010420113603398313433", "-0.00045128291873244379305"),
    26: ("-0.0010010720082233352319", "-0.00043358806100761591497"),
    27: ("-0.00096322527234279761169", "-0.00041722702420168525382"),
    28: ("-0.00092813375524915014923", "-0.00040205462497281223541"),
    29: ("-0.00089550737902515214759", "-0.0003879459922751910229"),
    30: ("-0.00086509537671654492792", "-0.00037479313842805233232"),
    31: ("-0.00083667985586086462305", "-0.00036250220147676383992"),
    32: ("-0.00081007058572195820304", "-0.00035099121050126832482"),
    33: ("-0.00078510074531003131569", "-0.00034018826181347148499"),
    34: ("-0.00076162343186534806618", "-0.00033003002059067878861"),
    35: ("-0.00073950877580942637785", "-0.00032046048220158659415"),
    36: ("-0.00071864154278623391256", "-0.00031142994222361318211"),
    37: ("-0.00069891912952320555832", "-0.00030289413527753522792"),
    38: ("-0.00068024988010000045421", "-0.00029481351127569057804"),
    39: ("-0.00066255166444001642871", "-0.00028715262417964734613"),
    40: ("-0.00064575067260491003998", "-0.00027987961338851272296"),
    41: ("-0.00062978038762832280186", "-0.00027296576179222444919"),
    42: ("-0.00061458070679895125938", "-0.0002663851175919851504"),
    43: ("-0.00060009718696036936568", "-0.00026011416941051879146"),
    44: ("-0.0005862803938835829084", "-0.00025413156613625514499"),
    45: ("-0.00057308533935031743364", "-0.0002484178744796141177"),
    46: ("-0.00056047099245942065076", "-0.00024295536845109849334"),
    47: ("-0.00054839985398744405495", "-0.00023772784596475319847"),
    48: ("-0.00053683758451427915924", "-0.00023272046857659284248"),
    49: ("-0.00052575267855603263103", "-0.00022791962102444434429"),
    50: ("-0.0005151161782004518483", "-0.00022331278777335404731"),
}


def test_figure_two_one_sample_panel_prints_the_exact_digits(capsys):
    code, out, _ = run(capsys, "analyze", "figure", "--which", "fig2")
    assert code == 0
    printed = {int(n): (doubled, conditional)
               for panel, n, doubled, conditional in csv.reader(out.splitlines()[1:])
               if panel == "one_sample"}
    assert printed == {n: tuple(f"{float(ref):.10g}" for ref in refs)
                       for n, refs in FIG2_ONE_SAMPLE.items()}


def _csv_reference(header, rows) -> str:
    # the reference for cli._render_csv: csv.writer over the cells formatted
    # as the CLI always formatted them
    def cell(value):
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.10g}"
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("which", analysis.FIGURES)
def test_figure_csv_matches_the_csv_module(capsys, which):
    header, rows = analysis.figure_data(which, 64)
    assert cli._render_csv(header, rows) == _csv_reference(header, rows)
    code, out, _ = run(capsys, "analyze", "figure", "--which", which, "--resolution", "64")
    assert code == 0 and out == _csv_reference(header, rows)


_TABLE1_HEADER = ["n", "p", "w_left", "weight_ratio", "w_left_modified"]
_TABLE2_HEADER = ["n11", "prob", "p_one_sided", "p_min_likelihood", "p_conditional"]


@pytest.mark.parametrize("argv, header, table", [
    (("table1",), _TABLE1_HEADER, lambda: analysis.binomial_weight_table()),
    (("table1", "--n", "10,11,1001", "--p", "0.2,1e-5"), _TABLE1_HEADER,
     lambda: analysis.binomial_weight_table([10, 11, 1001], [0.2, 1e-5])),
    (("table2", "--margins", "9,5,30"), _TABLE2_HEADER,
     lambda: analysis.fisher_pvalue_table(9, 5, 30)),
    (("table2", "--margins", "40,60,200"), _TABLE2_HEADER,
     lambda: analysis.fisher_pvalue_table(40, 60, 200)),
], ids=["table1", "table1-custom", "table2-small", "table2-wide"])
def test_table_csv_matches_the_csv_module(capsys, argv, header, table):
    rows = table()
    # the CSV header is the keys of the library's rows
    assert all(list(row) == header for row in rows)
    code, out, _ = run(capsys, "analyze", *argv, "--format", "csv")
    assert code == 0
    assert out == _csv_reference(header, [[row[k] for k in header] for row in rows])


def test_csv_matches_the_csv_module_on_edge_cells():
    cells = [*_FLOATS, *[-v for v in _FLOATS], 2**63, 2**64 + 1, -(2**100), 0, -1, True, False,
             "one_sample", "chisq5", math.nan, math.inf, -math.inf]
    rows = [cells, cells[::-1], [-0.0], [5e-324], [1e-5, 9.99999999995e-6, 1e16, 9999999999999998.0]]
    header = ["a", "b_c"]
    assert cli._render_csv(header, rows) == _csv_reference(header, rows)
    assert cli._render_csv(header, []) == _csv_reference(header, [])


def test_out_file_json(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    env = json.loads(out_path.read_text(encoding="utf-8"))
    assert env["command"] == "pvalue"


@pytest.mark.parametrize("target", ["missing/result.json", "."],
                         ids=["missing-parent", "directory"])
def test_out_file_that_cannot_be_written_exits_two(capsys, tmp_path, target):
    out_path = str(tmp_path / target)
    code, out, err = run(capsys, "pvalue", "--dist", "chisq:5", "--x", "0.5", "--out", out_path)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file: ") and out_path in err


def test_byte_determinism(capsys):
    argv = ("pvalue", "--dist", "binom:10,0.2", "--x", "5")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ("analyze", "figure", "--which", "fig4")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "pvalue" in out and "analyze" in out


@pytest.mark.parametrize("command", [
    ("pvalue",),
    ("test", "variance"), ("test", "f"), ("test", "binomial"), ("test", "fisher"),
    ("analyze", "umpu"), ("analyze", "bias"), ("analyze", "table1"), ("analyze", "table2"),
    ("analyze", "figure"),
], ids=" ".join)
def test_every_subcommand_help_lists_out(capsys, command):
    code, out, _ = run(capsys, *command, "--help")
    assert code == 0
    assert "--out" in out


# ---------------------------------------------------------------------------
# distribution specs


def test_dist_help_text():
    assert cli._DIST_HELP == (
        "distribution as family:p1,p2,... — one of chisq:df; f:d1,d2; unif:lower,upper; "
        "tri:left,right; truncnorm:cutoff; binom:n,p; hyper:row1,col1,total; "
        "nchyper:row1,col1,total,odds")


@pytest.mark.parametrize("spec, law", [
    ("chisq:5", ChiSquare(5)),
    ("f:3,7", FRatio(3, 7)),
    ("unif:0,3", Uniform(0.0, 3.0)),
    ("tri:1,2", Triangular(1.0, 2.0)),
    ("truncnorm: 0.5", TruncatedNormal(0.5)),
    ("binom:10,0.2", Binomial(10, 0.2)),
    ("hyper:9,5,30", Hypergeometric(9, 5, 30)),
    ("nchyper:9,5,30,2", NoncentralHypergeometric(9, 5, 30, 2.0)),
])
def test_parse_dist_builds_each_family(spec, law):
    d = cli.parse_dist(spec)
    assert d == law
    assert repr(d) == repr(law)  # ints parsed as ints, the rest as floats


@pytest.mark.parametrize("spec, message", [
    ("chisq", "chisq takes 1 parameter(s) (df), got 0"),
    ("chisq:5,3", "chisq takes 1 parameter(s) (df), got 2"),
    ("chisq:2.5", "chisq parameter df: expected an integer, got '2.5'"),
    ("f:3", "f takes 2 parameter(s) (d1,d2), got 1"),
    ("f:3,x", "f parameter d2: expected an integer, got 'x'"),
    ("unif:0", "unif takes 2 parameter(s) (lower,upper), got 1"),
    ("unif:0,b", "unif parameter upper: expected a number, got 'b'"),
    ("tri:1,2,3", "tri takes 2 parameter(s) (left,right), got 3"),
    ("tri:a,2", "tri parameter left: expected a number, got 'a'"),
    ("truncnorm:", "truncnorm takes 1 parameter(s) (cutoff), got 0"),
    ("truncnorm:x", "truncnorm parameter cutoff: expected a number, got 'x'"),
    ("binom:10", "binom takes 2 parameter(s) (n,p), got 1"),
    ("binom:10.5,0.2", "binom parameter n: expected an integer, got '10.5'"),
    ("binom:10,abc", "binom parameter p: expected a number, got 'abc'"),
    ("hyper:9,5", "hyper takes 3 parameter(s) (row1,col1,total), got 2"),
    ("hyper:9,5,30.0", "hyper parameter total: expected an integer, got '30.0'"),
    ("hyper:9,5,30,1", "hyper takes 3 parameter(s) (row1,col1,total), got 4"),
    ("nchyper:9,5,30", "nchyper takes 4 parameter(s) (row1,col1,total,odds), got 3"),
    ("nchyper:9.0,5,30,2", "nchyper parameter row1: expected an integer, got '9.0'"),
    ("nchyper:9,5,30,odd", "nchyper parameter odds: expected a number, got 'odd'"),
])
def test_bad_dist_spec_exits_two(capsys, spec, message):
    code, out, err = run(capsys, "pvalue", "--dist", spec, "--x", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize(
    "argv",
    [
        ("pvalue", "--dist", "weird:1", "--x", "1"),
        ("pvalue", "--dist", "chisq:5,3", "--x", "1"),
        ("pvalue", "--dist", "chisq:2.5", "--x", "1"),
        ("pvalue", "--dist", "chisq", "--x", "1"),
        ("pvalue", "--dist", "chisq:5", "--x", "1", "--method", "sideways"),
        ("pvalue", "--dist", "chisq:5", "--x", "1", "--method", ""),
        ("pvalue", "--dist", "chisq:5", "--x", "1", "--anchor", "qq"),
        ("pvalue", "--dist", "chisq:5", "--x", "1", "--anchor", "value:abc"),
        ("pvalue", "--dist", "chisq:5", "--x", "1", "--method", "weighted:1.5"),
        ("test", "variance", "--sigma0sq", "1"),
        ("test", "variance", "--s2", "1", "--sigma0sq", "1"),
        ("test", "fisher", "--table", "1,2,3"),
        ("test", "binomial", "--x", "1", "--n", "10", "--p0", "0.1",
         "--method", "weighted:0.5"),
        ("analyze", "table2", "--margins", "9,5"),
    ],
    ids=lambda argv: " ".join(argv)[:48],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_unknown_family_lists_supported(capsys):
    code, _, err = run(capsys, "pvalue", "--dist", "weird:1", "--x", "1")
    assert code == 2
    assert "supported" in err and "chisq" in err and "binom" in err


def test_missing_required_flag_exits_two(capsys):
    code, _, err = run(capsys, "pvalue", "--dist", "chisq:5")
    assert code == 2
    assert "--x" in err


@pytest.mark.parametrize("argv, flag, abbreviation", [
    (("pvalue", "--dist", "chisq:5", "--x", "1"), "--dist", "--dis"),
    (("test", "binomial", "--x", "3", "--n", "10", "--p0", "0.2"), "--p0", "--p"),
    (("analyze", "bias", "--dist", "chisq:5", "--method", "doubled", "--alpha", "0.05"),
     "--alpha", "--alph"),
], ids=["pvalue", "test binomial", "analyze bias"])
def test_abbreviated_flag_exits_two(capsys, argv, flag, abbreviation):
    # a flag is read only when spelled out, so a later flag sharing its
    # prefix cannot make an existing command line ambiguous
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run(capsys, *(abbreviation if word == flag else word for word in argv))
    assert code == 2 and out == ""
    assert f"error: the following arguments are required: {flag}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("pvalue", "--dist", "unif:0,1", "--x", "0.3", "--anchor", "mode"),
        ("pvalue", "--dist", "chisq:0", "--x", "1"),
        ("pvalue", "--dist", "chisq:5", "--x", "1", "--anchor", "value:-3"),
        ("test", "fisher", "--table", "0,0,5,16"),
        ("test", "binomial", "--x", "11", "--n", "10", "--p0", "0.1"),
        ("analyze", "umpu", "--dist", "chisq:5", "--alpha", "1.5"),
    ],
    ids=lambda argv: " ".join(argv)[:48],
)
def test_domain_errors_exit_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:")
    assert out == ""


def test_figure_resolution_above_the_bound_exits_three(capsys):
    code, out, err = run(capsys, "analyze", "figure", "--which", "fig3",
                         "--resolution", "100000000")
    assert (code, out) == (3, "")
    assert err == "error: resolution must be at most 100000, got 100000000\n"


@pytest.mark.parametrize("margins, tables", [("100001,100001,300000", 100002),
                                             ("100000000,100000000,300000000", 100000001)])
def test_table2_above_the_row_bound_exits_three(capsys, margins, tables):
    code, out, err = run(capsys, "analyze", "table2", "--margins", margins, "--format", "csv")
    assert (code, out) == (3, "")
    assert err == f"error: the margin family has {tables} tables; at most 100001 are tabulated\n"


@pytest.mark.parametrize("flag, other, expected", [("--n", ("--p", "0.1"), "an integer"),
                                                   ("--p", ("--n", "10"), "a number")])
def test_table1_empty_list_exits_two(capsys, flag, other, expected):
    # an empty list is malformed; it does not stand for the default grid
    code, out, err = run(capsys, "analyze", "table1", flag, "", *other)
    assert (code, out) == (2, "")
    assert err == f"error: table1 {flag[2:]}: expected {expected}, got ''\n"


def test_figure_help_names_the_resolution_bound(capsys):
    code, out, _ = run(capsys, "analyze", "figure", "--help")
    assert code == 0
    assert ("grid resolution for continuous axes, 4 to 100000 (default 512)"
            in " ".join(out.split()))


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "umpu", "--dist", "truncnorm:0.5", "--alpha", "0.05"),
        ("analyze", "bias", "--dist", "unif:0,1", "--method", "umpu", "--alpha", "0.05"),
    ],
    ids=lambda argv: " ".join(argv)[:48],
)
def test_umpu_outside_the_variance_families_exits_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    what = "bias reports" if argv[1] == "bias" else "UMPU weights"
    assert err.startswith(f"error: {what} are defined for the chi-square and F variance tests")
    assert "partial mean" not in err


@pytest.mark.parametrize("argv, anchor", [
    (("pvalue", "--dist", "chisq:5", "--x", "1", "--anchor", "value:0"), 0.0),
    (("test", "variance", "--s2", "1", "--n", "6", "--sigma0sq", "1", "--anchor", "value:0"),
     0.0),
    (("analyze", "bias", "--dist", "chisq:5", "--method", "conditional", "--alpha", "0.05",
      "--anchor", "value:0"), 0.0),
    (("pvalue", "--dist", "tri:1,2", "--x", "1", "--anchor", "value:2"), 2.0),
], ids=lambda v: " ".join(v)[:40] if isinstance(v, tuple) else "")
def test_anchor_on_the_support_boundary_exits_three(capsys, argv, anchor):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (f"error: anchor {anchor!r} sits at or outside the support boundary; "
                   "the conditional p-value needs both tails to have positive probability\n")


@pytest.mark.parametrize("x", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("law", ["unif:0,1", "tri:1,2", "chisq:5", "f:5,10", "truncnorm:0.5",
                                 "binom:10,0.2", "hyper:9,5,30", "nchyper:9,5,30,2"])
def test_non_finite_x_exits_three(capsys, law, x):
    code, out, err = run(capsys, "pvalue", "--dist", law, "--x", x)
    assert code == 3
    assert out == ""
    assert err == f"error: x must be finite, got {float(x)!r}\n"


@pytest.mark.parametrize("x", ["nan", "-inf"])
@pytest.mark.parametrize("law, method", [
    *(("chisq:5", m) for m in ("doubled", "weighted:0.3", "conditional", "min_likelihood")),
    *(("binom:10,0.2", m)
      for m in ("doubled", "conditional", "conditional_modified", "min_likelihood")),
])
def test_non_finite_x_exits_three_under_each_method(capsys, law, method, x):
    # the library method raises; the CLI has no check of its own
    code, out, err = run(capsys, "pvalue", "--dist", law, f"--x={x}", "--method", method)
    assert (code, out, err) == (3, "", f"error: x must be finite, got {float(x)!r}\n")


@pytest.mark.parametrize("row1, col1, total, x", [
    (9, 5, 30, 4), (9, 5, 40, 0), (50, 700, 800, 50), (300, 20, 100000, 1), (1, 3, 4, 1),
    (17, 4, 21, 3),
])
def test_pvalue_is_the_same_for_transposed_margins(capsys, row1, col1, total, x):
    def output(r, c):
        code, out, err = run(capsys, "pvalue", "--dist", f"hyper:{r},{c},{total}", "--x", str(x))
        assert (code, err) == (0, "")
        return out

    # every byte but the echoed --dist text
    assert output(row1, col1).replace(f'"hyper:{row1},{col1},{total}"',
                                      f'"hyper:{col1},{row1},{total}"') == output(col1, row1)


@pytest.mark.parametrize("law, message", [
    ("tri:1e308,1e308",
     "need left > 0 and right > 0 with a finite width left + right, got 1e+308, 1e+308"),
    ("unif:-1e308,1e308",
     "need lower < upper with a finite width upper - lower, got -1e+308, 1e+308"),
])
def test_law_whose_width_overflows_exits_three(capsys, law, message):
    code, out, err = run(capsys, "pvalue", "--dist", law, "--x", "1")
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("law", ["binom:1000000000000,0.5",
                                 "hyper:1000000000000,1000000000000,3000000000000"])
def test_discrete_law_too_wide_to_tabulate_exits_three_at_once(capsys, law):
    # its window would hold some 4e7 points (about 7 GB); the check precedes the walk
    start = time.perf_counter()
    code, out, err = run(capsys, "pvalue", "--dist", law, "--x", "3")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {cli.parse_dist(law)!r} has mass on more than 1000000 points")


def test_wide_discrete_law_under_the_cap_exits_zero(capsys):
    code, out, err = run(capsys, "pvalue", "--dist", "binom:20000000,0.5", "--x", "10001000",
                         "--method", "doubled")
    assert (code, err) == (0, "")
    assert 0.0 < json.loads(out)["results"]["p_values"]["doubled"] < 1.0


def test_triangular_law_of_huge_finite_width(capsys):
    # p a (a + b) and a (a + b) overflow here; the law is tri:1,1 scaled by 1e200
    code, out, err = run(capsys, "pvalue", "--dist", "tri:1e200,1e200", "--x", "1",
                         "--anchor", "median")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["anchor"] == 0.0
    assert results["p_values"] == {"doubled": 1.0, "conditional": 1.0, "min_likelihood": 1.0}
    code, out, _ = run(capsys, "pvalue", "--dist", "tri:1e200,3e200", "--x", "1e200",
                       "--anchor", "median")
    _, unscaled, _ = run(capsys, "pvalue", "--dist", "tri:1,3", "--x", "1", "--anchor", "median")
    scaled, unscaled = json.loads(out)["results"], json.loads(unscaled)["results"]
    assert code == 0
    assert scaled["anchor"] == pytest.approx(1e200 * unscaled["anchor"], rel=1e-9)
    assert scaled["p_values"] == unscaled["p_values"]


@pytest.mark.parametrize("argv, message", [
    (("test", "f", "--s1sq", "1e308", "--n1", "5", "--s2sq", "1e-308", "--n2", "6"),
     "the statistic s1_sq / s2_sq overflows for s1_sq=1e+308, s2_sq=1e-308"),
    (("test", "f", "--s1sq", "0.5", "--n1", "1000", "--s2sq", "5e-324", "--n2", "1000"),
     "the statistic s1_sq / s2_sq overflows for s1_sq=0.5, s2_sq=5e-324"),
    (("test", "variance", "--s2", "1e308", "--n", "5", "--sigma0sq", "1e-308"),
     "the statistic (n - 1) * s2 / sigma0_sq overflows for n=5, s2=1e+308, sigma0_sq=1e-308"),
], ids=["f-huge-over-tiny", "f-over-subnormal", "variance-huge-over-tiny"])
def test_overflowing_statistic_exits_three(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_representable_variance_statistic_exits_zero(capsys):
    # 2 * 1.7e308 overflows, 1.7e308 / 2 * 2 does not
    code, out, err = run(capsys, "test", "variance", "--s2", "1.7e308", "--n", "3",
                         "--sigma0sq", "2")
    assert code == 0
    assert err == ""
    results = json.loads(out)["results"]
    assert results["statistic"] == 1.7e308
    assert results["p_right"] == 0.0


def test_largest_finite_statistic_is_written(capsys):
    # 1.7976931348623157e308 rounds to infinity at 10 digits; it is written unrounded
    code, out, err = run(capsys, "test", "variance", "--s2", "1.7976931348623157e308",
                         "--n", "2", "--sigma0sq", "1")
    assert code == 0
    assert err == ""
    env = json.loads(out)
    assert env["inputs"]["s2"] == 1.7976931348623157e308
    assert env["results"]["statistic"] == 1.7976931348623157e308


def test_numerical_failure_exits_four(capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise ArithmeticError("series did not converge")

    monkeypatch.setattr(stattests, "variance_test", diverge)
    code, out, err = run(capsys, "test", "variance", "--s2", "1.05", "--n", "2001",
                         "--sigma0sq", "1")
    assert code == 4
    assert err == "error: numerical failure: series did not converge\n"
    assert out == ""


def test_numerical_failure_names_the_kernel_arguments_and_cap(capsys):
    # shapes of 500000 are past what the beta continued fraction reaches in 200 terms
    code, out, err = run(capsys, "test", "f", "--s1sq", "1.1", "--n1", "1000001",
                         "--s2sq", "1", "--n2", "1000001")
    assert code == 4
    assert out == ""
    assert err.startswith("error: numerical failure: regularized beta continued fraction "
                          "did not converge in 200 iterations for x=")
    assert err.endswith(", a=500000.0, b=500000.0\n")


def test_large_df_variance_test_succeeds(capsys):
    # chi-square(2000) needs more incomplete-gamma terms than a fixed cap of
    # 200 allows; P(X >= 2100) = 0.0586711113773181 (mpmath, 40 digits)
    code, out, err = run(capsys, "test", "variance", "--s2", "1.05", "--n", "2001",
                         "--sigma0sq", "1")
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["statistic"] == 2100.0
    assert results["p_right"] == 0.05867111138


@pytest.mark.parametrize("x", ["-4.392e-05", "-2.4E-06", "-3", "-0.5", "-.5"])
def test_negative_numbers_are_values(capsys, x):
    code, out, err = run(capsys, "pvalue", "--dist", "truncnorm:0.3", "--x", x,
                         "--method", "doubled")
    assert code == 0 and err == ""
    assert json.loads(out)["inputs"]["x"] == float(x)


# ---------------------------------------------------------------------------
# one parser per process


def _main_into_fresh_streams(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_writes_to_the_streams_of_each_call():
    cli._tree()  # the parser exists before the calls under test
    code, out, err = _main_into_fresh_streams("pvalue", "--dist", "chisq:5")
    assert code == 2 and out == "" and "--x" in err
    code, out, err = _main_into_fresh_streams("pvalue", "--dist", "chisq:5", "--x", "0.5")
    assert code == 0 and err == "" and json.loads(out)["command"] == "pvalue"
    code, out, err = _main_into_fresh_streams("--help")
    assert code == 0 and err == "" and out.startswith("usage: twoside")


def test_reused_parser_leaks_no_attributes_between_parses(tmp_path):
    data = tmp_path / "sample.txt"
    data.write_text("1.21\n0.37\n2.05\n", encoding="utf-8")
    for parse in (cli._parse, cli._tree().parse_args):
        first = parse(["test", "variance", "--data", str(data), "--sigma0sq", "1"])
        second = parse(["test", "variance", "--s2", "1", "--n", "5", "--sigma0sq", "1"])
        assert first is not second
        assert first.data == str(data) and first.s2 is None and first.n is None
        assert second.data is None and (second.s2, second.n) == (1.0, 5)
    # through main, a leaked --data would make the second call a usage error
    assert _main_into_fresh_streams("test", "variance", "--data", str(data),
                                    "--sigma0sq", "1")[0] == 0
    assert _main_into_fresh_streams("test", "variance", "--s2", "1", "--n", "5",
                                    "--sigma0sq", "1")[0] == 0


def test_parser_is_built_once_across_main_calls(monkeypatch):
    cli._tree.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argvs = (["pvalue", "--dist", "chisq:5", "--x", "0.5"],
             ["pvalue", "--dist", "chisq:5"],
             ["test", "binomial", "--x", "3", "--n", "10", "--p0", "0.2"],
             ["--help"],
             ["pvalue", "--dist", "chisq:5", "--x", "0.5", "extra"])
    for argv in argvs:
        _main_into_fresh_streams(*argv)
    first_round = len(built)
    for argv in argvs:
        _main_into_fresh_streams(*argv)
    assert len(built) == first_round
    assert cli._tree.cache_info().misses == 1


# the leaf parsers, by the command words that reach them
LEAVES = {("pvalue",),
          ("test", "variance"), ("test", "f"), ("test", "binomial"), ("test", "fisher"),
          ("analyze", "umpu"), ("analyze", "bias"), ("analyze", "table1"),
          ("analyze", "table2"), ("analyze", "figure")}

GOLDEN_ARGVS = [record["argv"] for group in json.loads(
    Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8")).values()
    for record in group]

MALFORMED_ARGVS = [
    [], ["--help"], ["-h"], ["test"], ["analyze"], ["test", "--help"], ["analyze", "-h"],
    ["pvalue", "-h"], ["test", "f", "--help"], ["analyze", "figure", "-h"],
    ["pvalue", "--dist", "chisq:5", "--x", "1", "--help", "--bogus"],
    ["frobnicate", "--x", "1"], ["test", "chisq"], ["analyze", "fig9"],
    ["analyze", "--bogus", "umpu"],
    ["pvalue", "--dist", "chisq:5", "--x", "1", "extra", "words"],
    ["test", "f", "--s1sq", "1", "--n1", "5", "--s2sq", "1", "--n2", "6", "--bogus"],
    ["test", "fisher", "--table", "1,2,3,4", "--bogus=1", "-q"],
    ["pvalue", "--dis", "chisq:5", "--x", "1"], ["pvalue", "--dist", "chisq:5", "--x=-1e-5"],
    ["analyze", "bias", "--dist", "chisq:5", "--a", "0.05"],
    ["--", "pvalue", "--dist", "chisq:5", "--x", "1"], ["pvalue", "--", "--dist", "chisq:5"],
    ["pvalue"], ["pvalue", "--dist", "chisq:5", "--dist", "f:2,3", "--x", "1", "--x", "2"],
    ["pvalue", "--dist", "chisq:5", "--x"], ["pvalue", "--dist", "chisq:5", "--x", "abc"],
    ["analyze", "table1", "--format", "xml"], ["test", "variance", "--sigma0sq", "1", "-h"],
]


GOLDEN_USAGE = json.loads(Path(__file__).with_name("golden_usage.json").read_text(encoding="utf-8"))

# the help of the top parser, of both groups and of every leaf, then the malformed argvs
USAGE_ARGVS = [["--help"], ["test", "--help"], ["analyze", "--help"],
               *([*words, "--help"] for words in sorted(LEAVES))]
USAGE_ARGVS += [argv for argv in MALFORMED_ARGVS if argv not in USAGE_ARGVS]


def _usage_record(argv: list[str]) -> dict:
    code, out, err = _main_into_fresh_streams(*argv)
    return {"argv": argv, "status": code, "stdout": out, "stderr": err}


def test_usage_text_is_pinned(monkeypatch):
    # golden_usage.json holds, for each of USAGE_ARGVS, what main printed with
    # COLUMNS=80 on the Python minor version it names; re-record it with
    # {"python": ..., "records": [_usage_record(argv) for argv in USAGE_ARGVS]}
    recorded = GOLDEN_USAGE["python"]
    if sys.version_info[:2] != tuple(map(int, recorded.split("."))):
        pytest.skip(f"argparse's help layout differs between Python minor versions; "
                    f"the pins were recorded on {recorded}")
    monkeypatch.setenv("COLUMNS", "80")
    assert [r["argv"] for r in GOLDEN_USAGE["records"]] == USAGE_ARGVS
    for record in GOLDEN_USAGE["records"]:
        assert _usage_record(record["argv"]) == record


def _parsed(parse, argv: list[str]) -> tuple:
    # exit status, the namespace as a dict (None on exit) and both streams
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = 0, vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code, None
    return result, out.getvalue(), err.getvalue()


def _assert_parses_like_the_whole_parser(argv: list[str]) -> tuple:
    routed = _parsed(cli._parse, argv)
    assert routed == _parsed(cli._tree().parse_args, argv), argv
    return routed


def test_router_parses_the_golden_corpus_like_the_whole_parser():
    for argv in GOLDEN_ARGVS:
        (code, namespace), _, _ = _assert_parses_like_the_whole_parser(argv)
        assert code == 0 and list(namespace["command"]) == argv[:len(namespace["command"])]


@pytest.mark.parametrize("argv", MALFORMED_ARGVS, ids=lambda argv: " ".join(argv)[:40] or "empty")
def test_router_fails_like_the_whole_parser(argv):
    _assert_parses_like_the_whole_parser(argv)


def _read_from_the_table(argv: list[str]) -> bool:
    return any(words in cli._COMMANDS and cli._read(words, argv[len(words):]) is not None
               for words in (tuple(argv[:1]), tuple(argv[:2])))


# a valid command line of each leaf, from which the variants below are made
LEAF_ARGVS = [
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--method", "doubled"],
    ["test", "variance", "--s2", "0.2", "--n", "6", "--sigma0sq", "1"],
    ["test", "f", "--s1sq", "2", "--n1", "7", "--s2sq", "1", "--n2", "12"],
    ["test", "binomial", "--x", "3", "--n", "10", "--p0", "0.2"],
    ["test", "fisher", "--table", "1,2,3,4", "--anchor", "mode"],
    ["analyze", "umpu", "--dist", "chisq:5", "--alpha", "0.05"],
    ["analyze", "bias", "--dist", "chisq:5", "--method", "doubled", "--alpha", "0.05"],
    ["analyze", "table1", "--n", "10", "--format", "csv"],
    ["analyze", "table2", "--margins", "9,5,30"],
    ["analyze", "figure", "--which", "fig1", "--resolution", "16"],
]

PVALUE = LEAF_ARGVS[0]


def test_table_reads_every_golden_and_leaf_argv():
    assert [argv for argv in GOLDEN_ARGVS + LEAF_ARGVS if not _read_from_the_table(argv)] == []

READER_ARGVS = [
    # negative values, which argparse reads as flags unless they match _NEGATIVE_NUMBER
    *(["pvalue", "--dist", "chisq:5", "--x", x] for x in ("-4.4e-05", "-.5", "-1e5", "-3",
                                                          "-1.", "-1e", "-inf", "-x", "-")),
    ["test", "binomial", "--x", "-1e5", "--n", "10", "--p0", "0.2"],
    ["test", "binomial", "--x", "-3", "--n", "10", "--p0", "-0.2"],
    ["pvalue", "--dist", "--", "--x", "3"], ["pvalue", "--dist", "chisq:5", "--x", "3", "--"],
    ["pvalue", "--dist", "-", "--x", "3"],
    ["pvalue", "--out", "-", "--dist", "chisq:5", "--x", "3"],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--method", "-doubled"],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--method", "-a b"],
    # spellings only argparse takes, flags with no value or an empty one
    ["pvalue", "--dist", "chisq:5", "--x=3"], ["pvalue", "--dist=chisq:5", "--x", "3"],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--x", "4"],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--no-truncate", "--no-truncate"],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--out", "a", "--out", "b"],
    ["pvalue", "--dist", "chisq:5", "--x"], ["pvalue", "--x", "3", "--dist"],
    ["pvalue", "--dist", "", "--x", "3"], ["pvalue", "--dist", "chisq:5", "--x", ""],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--out", ""],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--no-truncate=1"],
    ["pvalue", "--dist", "chisq:5", "--x", "3", "--no-truncate", "yes"],
    # type and choices failures, and missing required flags
    ["pvalue", "--dist", "chisq:5", "--x", "abc"], ["pvalue", "--dist", "chisq:5", "--x", " 3 "],
    ["test", "binomial", "--x", "2.5", "--n", "10", "--p0", "0.2"],
    ["test", "binomial", "--x", "1_0", "--n", "10", "--p0", "0.2"],
    ["analyze", "figure", "--which", "fig9"], ["analyze", "figure", "--which", "fig2",
                                               "--resolution", "1e3"],
    ["analyze", "table1", "--format", "xml"], ["analyze", "table2", "--format", "csv"],
    ["analyze", "table2", "--margins", "9,5,30", "--format", ""],
    ["pvalue", "--x", "3"], ["pvalue"], ["test", "f", "--s1sq", "2", "--n1", "7"],
    ["analyze", "bias", "--dist", "chisq:5", "--alpha", "0.05"],
    # --no-truncate, --out and -h in every position
    *([*PVALUE[:i], "--no-truncate", *PVALUE[i:]] for i in range(len(PVALUE) + 1)),
    *([*PVALUE[:i], "--out", "o.json", *PVALUE[i:]] for i in range(len(PVALUE) + 1)),
    *([*PVALUE[:i], "-h", *PVALUE[i:]] for i in range(len(PVALUE) + 1)),
    ["test", "f", "--s1sq", "2", "--n1", "7", "--help", "--s2sq", "1", "--n2", "12"],
    # flags of another leaf, and words left over
    ["test", "f", "--dist", "chisq:5"], ["pvalue", "--dist", "chisq:5", "--x", "3", "f"],
    ["test", "f", "f", "--s1sq", "2", "--n1", "7", "--s2sq", "1", "--n2", "12"],
]


@pytest.mark.parametrize("argv", READER_ARGVS, ids=lambda argv: " ".join(argv)[:60])
def test_table_reader_parses_like_the_whole_parser(argv):
    _assert_parses_like_the_whole_parser(argv)


def _variants(count: int, seed: int) -> list[list[str]]:
    # each a leaf's command line with one token dropped, inserted or replaced, one
    # flag written --flag=value or repeated, or --out or --no-truncate inserted
    rng = random.Random(seed)
    tokens = ["-4.4e-05", "-.5", "-1e5", "-inf", "-x", "--", "-", "", "abc", "3", "2.5",
              "fig2", "csv", "-h", "--help", "--out", "--no-truncate", "--x", "--n", "--dist"]
    variants = []
    for _ in range(count):
        argv = list(rng.choice(LEAF_ARGVS))
        at = rng.randrange(len(argv) + 1)
        flags = [i for i, token in enumerate(argv) if token.startswith("--")]
        kind = rng.randrange(7)
        if kind == 0:
            del argv[rng.randrange(len(argv))]
        elif kind == 1:
            argv.insert(at, rng.choice(tokens))
        elif kind == 2:
            argv[rng.randrange(len(argv))] = rng.choice(tokens)
        elif kind == 3:
            i = rng.choice(flags)
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif kind == 4:
            i = rng.choice(flags)
            argv[at:at] = argv[i:i + 2]
        else:
            argv[at:at] = rng.choice([["--out", "o.json"], ["--no-truncate"]])
        variants.append(argv)
    return variants


def test_table_reader_parses_seeded_variants_like_the_whole_parser():
    variants = _variants(400, seed=23)
    read = [argv for argv in variants if _read_from_the_table(argv)]
    assert 0 < len(read) < len(variants)  # both paths are taken
    for argv in variants:
        _assert_parses_like_the_whole_parser(argv)


@pytest.mark.parametrize("argv", [
    ["pvalue", "--dist", "chisq:5", "--x", "0.5"],
    ["pvalue", "--dist", "chisq:5", "--x", "1", "extra"],
    ["test", "binomial", "--x", "3"],
    ["test"],
], ids=" ".join)
def test_main_reads_sys_argv_when_given_none(monkeypatch, argv):
    expected = _main_into_fresh_streams(*argv)
    monkeypatch.setattr(sys, "argv", ["twoside", *argv])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(None)
    assert (code, out.getvalue(), err.getvalue()) == expected


def _leaf_parsers(parser, words=()) -> dict[tuple[str, ...], argparse.ArgumentParser]:
    # every parser below ``parser`` that has no subcommands, by its command words
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {words: parser}
    return {path: leaf for name, sub in subparsers[0].choices.items()
            for path, leaf in _leaf_parsers(sub, words + (name,)).items()}


def test_router_covers_every_leaf_parser():
    leaves = _leaf_parsers(cli._tree())
    assert set(cli._COMMANDS) == LEAVES == set(leaves)
    for words, leaf in leaves.items():
        assert leaf.prog == " ".join(("twoside",) + words)
        assert leaf.get_default("command") == words


def _run_probe(probe: str) -> str:
    src = str(Path(twoside.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout


def _parsers_built(*argv: str) -> int:
    # ArgumentParsers constructed by importing twoside.cli and, given an argv, one main() call
    probe = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import twoside.cli\n"
        f"if {list(argv)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        twoside.cli.main({list(argv)!r})\n"
        "print(len(built))\n"
    )
    return int(_run_probe(probe))


def test_import_builds_no_parser():
    assert _parsers_built() == 0


def test_routed_one_shot_builds_no_parser():
    assert _parsers_built("pvalue", "--dist", "chisq:5", "--x", "3") == 0


def test_help_builds_the_whole_tree():
    # the top parser, the two groups, and each leaf
    assert _parsers_built("--help") == 3 + len(LEAVES)


def _modules_loaded_by_import(names: set[str], *argvs: list[str], status: int = 0) -> str:
    # modules that site already loaded in a bare interpreter do not count;
    # each argv runs through main() after the import and must exit with ``status``
    return _run_probe(
        "import contextlib, io, sys\n"
        "bare = set(sys.modules)\n"
        "import twoside.cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"        assert twoside.cli.main(argv) == {status}, argv\n"
        f"print(sorted({names!r} & (set(sys.modules) - bare)))\n"
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    assert _modules_loaded_by_import({"dataclasses", "inspect"}) == "[]\n"


def test_import_loads_no_csv():
    assert _modules_loaded_by_import({"csv"}) == "[]\n"


# the layers a command loads only when it needs them; argparse only for help and
# for a command line that the table reader does not take
DEFERRED = {"twoside.analysis", "twoside.stattests", "statistics", "argparse"}


def test_import_loads_no_deferred_layer():
    assert _modules_loaded_by_import(DEFERRED) == "[]\n"


def test_pvalue_loads_no_deferred_layer():
    loaded = _modules_loaded_by_import(DEFERRED,
                                       ["pvalue", "--dist", "chisq:5", "--x", "3"],
                                       ["pvalue", "--dist", "binom:10,0.2", "--x", "5"])
    assert loaded == "[]\n"


def test_variance_test_loads_stattests_alone():
    loaded = _modules_loaded_by_import(
        DEFERRED, ["test", "variance", "--s2", "0.2", "--n", "6", "--sigma0sq", "1"])
    assert loaded == "['twoside.stattests']\n"


def test_f_test_loads_stattests_alone():
    loaded = _modules_loaded_by_import(
        DEFERRED, ["test", "f", "--s1sq", "2", "--n1", "7", "--s2sq", "1", "--n2", "12"])
    assert loaded == "['twoside.stattests']\n"


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0),
    (["pvalue", "--dist", "chisq:5"], 2),
    (["pvalue", "--dist", "chisq:5", "--x=3"], 0),
], ids=["help", "usage error", "--x=3"])
def test_help_and_argvs_the_table_reader_declines_load_argparse(argv, status):
    assert _modules_loaded_by_import({"argparse"}, argv, status=status) == "['argparse']\n"


def test_figure_choices_are_the_analysis_figures():
    # the table lists them without importing analysis
    which = cli._COMMANDS[("analyze", "figure")][2]["--which"]
    assert which["choices"] == analysis.FIGURES


def test_bias_aliases_map_to_exactly_the_bias_methods(capsys):
    words = {method: method for method in analysis.BIAS_METHODS}
    words["minlik"] = pvalue.MIN_LIKELIHOOD
    for word, method in words.items():
        code, out, err = run(capsys, "analyze", "bias", "--dist", "chisq:5",
                             "--method", word, "--alpha", "0.05")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["method"] == method
    # p-value methods without a bias report, under their names and aliases
    for word in ("conditional_modified", "conditional-modified", "weighted:0.3"):
        code, out, err = run(capsys, "analyze", "bias", "--dist", "chisq:5",
                             "--method", word, "--alpha", "0.05")
        assert (code, out) == (2, "")
        assert err == (f"error: unknown bias method {word!r}; expected one of "
                       "doubled, conditional, umpu, min_likelihood\n")


ALL_FOUR = ("['twoside._record', 'twoside.analysis', 'twoside.dist', 'twoside.pvalue', "
            "'twoside.roots', 'twoside.specfun', 'twoside.stattests']")


@pytest.mark.parametrize("name, found, loaded", [
    ("ChiSquare", True, "['twoside._record', 'twoside.dist', 'twoside.specfun']"),
    ("p_value", True, "['twoside._record', 'twoside.dist', 'twoside.pvalue', 'twoside.roots', "
                      "'twoside.specfun']"),
    ("f_test", True, "['twoside._record', 'twoside.dist', 'twoside.pvalue', 'twoside.roots', "
                     "'twoside.specfun', 'twoside.stattests']"),
    # a name is looked for in dist, pvalue, stattests and analysis in turn
    ("bias", True, ALL_FOUR),
    ("no_such_name", False, ALL_FOUR),
])
def test_package_name_loads_the_modules_up_to_its_own(name, found, loaded):
    probe = (
        "import sys\n"
        "import twoside\n"
        "bare = set(sys.modules)\n"
        f"print(hasattr(twoside, {name!r}),"
        " sorted(m for m in set(sys.modules) - bare if m.startswith('twoside.')))\n"
    )
    assert _run_probe(probe) == f"{found} {loaded}\n"


@pytest.mark.parametrize("name, loaded", [
    ("roots", "['twoside.roots']"),
    ("specfun", "['twoside.specfun']"),
    ("_record", "['twoside._record']"),
    ("cli", "['twoside._record', 'twoside.cli', 'twoside.dist', 'twoside.pvalue', "
            "'twoside.roots', 'twoside.specfun']"),
])
def test_package_submodule_loads_only_its_own_imports(name, loaded):
    probe = (
        "import sys\n"
        "import twoside\n"
        "bare = set(sys.modules)\n"
        f"from twoside import {name}\n"
        "print(sorted(m for m in set(sys.modules) - bare if m.startswith('twoside.')))\n"
    )
    assert _run_probe(probe) == f"{loaded}\n"


def test_star_import_binds_every_export_in_a_fresh_interpreter():
    probe = (
        "import twoside\n"
        "names = {}\n"
        "exec('from twoside import *', names)\n"
        "print(sorted(set(twoside.__all__) - set(names)),"
        " sorted(set(names) - set(twoside.__all__) - {'__builtins__'}),"
        " sorted(set(twoside.__all__) - set(dir(twoside))))\n"
    )
    assert _run_probe(probe) == "[] [] []\n"


@pytest.mark.parametrize("argv", [
    ["pvalue", "--dist", "chisq:5", "--x", "3"],
    ["pvalue", "--dist", "f:5,10", "--x", "3"],
    ["pvalue", "--dist", "truncnorm:1", "--x", "3"],
    ["test", "variance", "--s2", "0.2", "--n", "6", "--sigma0sq", "1"],
    ["test", "f", "--s1sq", "2", "--n1", "7", "--s2sq", "1", "--n2", "12"],
    ["analyze", "bias", "--dist", "chisq:5", "--method", "conditional", "--alpha", "0.05"],
], ids=" ".join)
@pytest.mark.parametrize("value", ["inf", "1e400", "-inf"])
def test_non_finite_anchor_is_rejected_by_name(capsys, argv, value):
    # 1e400 parses to inf; no kernel sees the anchor
    code, out, err = run(capsys, *argv, "--anchor", f"value:{value}")
    assert code == 3 and out == ""
    assert err == f"error: anchor value must be finite, got {float(value)!r}\n"


def test_f_test_with_the_statistic_near_the_float_max_exits_zero(capsys):
    # d1 * statistic overflows inside the F cdf; the cdf is 1 there
    code, out, err = run(capsys, "test", "f", "--s1sq", "1e308", "--n1", "6",
                         "--s2sq", "1", "--n2", "11")
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["statistic"] == 1e308
    assert (results["p_left"], results["p_right"]) == (1.0, 0.0)


def test_f_anchor_near_the_float_max_is_a_support_error(capsys):
    code, out, err = run(capsys, "pvalue", "--dist", "f:5,10", "--x", "3",
                         "--anchor", "value:4e307")
    assert code == 3 and out == ""
    assert "support boundary" in err and "nan" not in err


@pytest.mark.parametrize("lines, message", [
    ("1\nnan\n3\n", "error: observation 2 must be finite, got nan\n"),
    ("1\n2\ninf\n", "error: observation 3 must be finite, got inf\n"),
    ("1e308\n-1e308\n", "error: the sample variance of the 2 observations overflows "
                         "the float range\n"),
], ids=["nan", "inf", "overflow"])
def test_data_file_edge_samples_are_domain_errors(capsys, tmp_path, lines, message):
    data = tmp_path / "edge.txt"
    data.write_text(lines, encoding="utf-8")
    code, out, err = run(capsys, "test", "variance", "--data", str(data), "--sigma0sq", "1")
    assert (code, out, err) == (3, "", message)


def test_data_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "test", "variance", "--data",
                       str(tmp_path / "absent.txt"), "--sigma0sq", "1")
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("1\ntwo\n3\n", encoding="utf-8")
    code, _, err = run(capsys, "test", "variance", "--data", str(bad),
                       "--sigma0sq", "1")
    assert code == 2 and "not a number" in err

    short = tmp_path / "short.txt"
    short.write_text("1\n", encoding="utf-8")
    code, _, err = run(capsys, "test", "variance", "--data", str(short),
                       "--sigma0sq", "1")
    assert code == 2 and "two observations" in err

    both = tmp_path / "both.txt"
    both.write_text("1\n2\n", encoding="utf-8")
    code, _, err = run(capsys, "test", "variance", "--data", str(both),
                       "--s2", "1", "--n", "2", "--sigma0sq", "1")
    assert code == 2 and "not both" in err
