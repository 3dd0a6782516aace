"""Power, bias, optimal-weight, and table/figure regeneration tests.

The chi-square partial-mean identity behind the UMPU condition is
cross-checked against a 10,000 panel corrected-trapezoid quadrature
(independent oracle), and the UMPU weights against 40-digit roots frozen
from mpmath (mpmath itself is not imported). Rounded three-digit
reference values come from the worked examples this package reproduces;
wherever a reference entry was itself derived from
already-rounded intermediate values (or is plainly a misprint), the exact
rational value is asserted instead and the offset documented.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from twoside import analysis, roots
from twoside.analysis import (
    BIAS_METHODS,
    FIGURES,
    TABLE1_NS,
    TABLE1_PS,
    CriticalRegion,
    bias,
    binomial_weight_table,
    critical_region_from_weights,
    figure_data,
    fisher_pvalue_table,
    minlik_region,
    power_derivative_at_null,
    umpu_weights,
    variance_power,
)
from twoside.dist import (
    Binomial,
    ChiSquare,
    FRatio,
    Hypergeometric,
    Triangular,
    TruncatedNormal,
    Uniform,
    _discrete_tables,
)
from twoside.pvalue import p_conditional, p_min_likelihood

CHISQ5 = ChiSquare(5)
ALPHA = 0.05


# ---------------------------------------------------------------------------
# the identity behind the chi-square UMPU condition


def _corrected_trapezoid(g, gp_a: float, gp_b: float, a: float, b: float,
                         panels: int) -> float:
    h = (b - a) / panels
    inner = math.fsum(g(a + i * h) for i in range(1, panels))
    total = h * (0.5 * (g(a) + g(b)) + inner)
    return total - h * h / 12.0 * (gp_b - gp_a)


def chi_square_partial_mean_oracle(k: int, t: float, panels: int = 10_000) -> float:
    """integral_0^t x f_k(x) dx via substitution x = u^2 (smooth integrand)."""
    c = 2.0 * math.exp(-(k / 2.0) * math.log(2.0) - math.lgamma(k / 2.0))

    def g(u: float) -> float:
        return c * u ** (k + 1) * math.exp(-u * u / 2.0)

    def gp(u: float) -> float:
        return c * math.exp(-u * u / 2.0) * ((k + 1) * u**k - u ** (k + 2))

    b = math.sqrt(t)
    return _corrected_trapezoid(g, gp(0.0), gp(b), 0.0, b, panels)


@pytest.mark.parametrize("k", [3, 5, 10])
@pytest.mark.parametrize("t", [1.0, 5.0, 15.0])
def test_chi_square_partial_mean_against_quadrature(k, t):
    # integral_0^t x dF_k = k F_k(t) - 2 t f_k(t): with it the natural-parameter
    # UMPU condition, integral_{tails} x dF = alpha k, is twice
    # c_R f(c_R) - c_L f(c_L), so power_derivative_at_null has the same root
    d = ChiSquare(k)
    assert k * d.cdf(t) - 2.0 * t * d.pdf_or_pmf(t) == pytest.approx(
        chi_square_partial_mean_oracle(k, t), abs=1e-8
    )


# ---------------------------------------------------------------------------
# critical regions


def test_critical_region_golden():
    r = critical_region_from_weights(CHISQ5, ALPHA, 0.731)
    assert r.c_left == pytest.approx(0.989, abs=5e-4)
    # exact value at the three-digit weight 0.731; the historically printed
    # 14.37 traces to the full-precision optimal weight (14.36861 -> 14.37),
    # while the rounded weight gives 14.36496 -- a knife-edge 5.04e-3 away
    assert r.c_right == pytest.approx(14.3649635, abs=1e-6)
    assert r.c_right == pytest.approx(14.37, abs=6e-3)
    w_star, region = umpu_weights(CHISQ5, ALPHA)
    assert region.c_right == pytest.approx(14.37, abs=5e-3)
    assert CHISQ5.cdf(r.c_left) == pytest.approx(0.037, abs=5e-4)
    assert CHISQ5.sf(r.c_right) == pytest.approx(0.013, abs=5e-4)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("w", [0.3, 0.5, 0.731, 0.9])
def test_critical_region_invariants(alpha, w):
    for d in (CHISQ5, FRatio(5, 11)):
        r = critical_region_from_weights(d, alpha, w)
        assert d.cdf(r.c_left) + d.sf(r.c_right) == pytest.approx(alpha, abs=1e-10)
        assert r.c_left < r.c_right
        assert d.cdf(r.c_left) == pytest.approx(w * alpha, abs=1e-12)
        assert d.cdf(r.anchor) == pytest.approx(w, abs=1e-10)
        # the conditional p-value anchored at r.anchor rejects exactly there
        assert p_conditional(d, r.c_left, r.anchor) == pytest.approx(
            alpha, abs=1e-9
        )
        assert p_conditional(d, r.c_right, r.anchor) == pytest.approx(
            alpha, abs=1e-9
        )


def test_critical_region_equal_tails():
    r = critical_region_from_weights(CHISQ5, ALPHA, 0.5)
    assert CHISQ5.cdf(r.c_left) == pytest.approx(0.025, abs=1e-12)
    assert CHISQ5.sf(r.c_right) == pytest.approx(0.025, abs=1e-12)


def test_critical_region_validation():
    with pytest.raises(ValueError):
        critical_region_from_weights(CHISQ5, 0.0, 0.5)
    with pytest.raises(ValueError):
        critical_region_from_weights(CHISQ5, 0.05, 1.0)
    with pytest.raises(ValueError, match="continuous"):
        critical_region_from_weights(Binomial(10, 0.2), 0.05, 0.5)


# ---------------------------------------------------------------------------
# power


def test_variance_power_is_alpha_at_null():
    for w in (0.3, 0.5, 0.731):
        r = critical_region_from_weights(CHISQ5, ALPHA, w)
        assert variance_power(CHISQ5, r.c_left, r.c_right, 1.0) == pytest.approx(ALPHA, abs=1e-12)
    with pytest.raises(ValueError):
        variance_power(CHISQ5, 1.0, 10.0, 0.0)


def test_umpu_power_has_zero_slope_at_null():
    w_star, region = umpu_weights(CHISQ5, ALPHA)
    h = 1e-4
    slope = (variance_power(CHISQ5, region.c_left, region.c_right, 1.0 + h)
             - variance_power(CHISQ5, region.c_left, region.c_right, 1.0 - h)) / (2.0 * h)
    assert abs(slope) < 1e-6


def test_doubled_and_conditional_power_minima():
    doubled = critical_region_from_weights(CHISQ5, ALPHA, 0.5)
    conditional = critical_region_from_weights(CHISQ5, ALPHA, CHISQ5.cdf(5.0))
    grid = [0.05 + 5.95 * i / 400 for i in range(401)]
    min_doubled = min(variance_power(CHISQ5, doubled.c_left, doubled.c_right, r) for r in grid)
    min_conditional = min(variance_power(CHISQ5, conditional.c_left, conditional.c_right, r)
                          for r in grid)
    assert min_doubled == pytest.approx(0.045, abs=5e-4)
    assert min_conditional == pytest.approx(0.048, abs=5e-4)


# ---------------------------------------------------------------------------
# the unbiased weight


def test_umpu_weights_chi_square_golden():
    w_star, region = umpu_weights(CHISQ5, ALPHA)
    assert w_star == pytest.approx(0.731, abs=5e-4)
    assert w_star == pytest.approx(0.7314011, abs=1e-6)
    assert region.c_left == pytest.approx(0.9892277, abs=1e-6)
    assert region.c_right == pytest.approx(14.3686119, abs=1e-5)
    # anchor computed from the full-precision weight
    assert region.anchor == pytest.approx(6.4070699, abs=1e-6)
    # the historically printed anchor 6.403 derives from the rounded weight:
    # quantile(0.731) = 6.402494, a half-up rounding knife edge at three
    # decimals (the full-precision anchor is 6.407)
    assert CHISQ5.quantile(0.731) == pytest.approx(6.403, abs=1e-3 + 1e-9)
    assert power_derivative_at_null(CHISQ5, ALPHA, w_star) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("df", [3, 5, 17])
def test_umpu_weights_equal_df_variance_ratio_is_half(df):
    w_star, _ = umpu_weights(FRatio(df, df), ALPHA)
    assert w_star == pytest.approx(0.5, abs=1e-10)


def test_umpu_weights_unequal_df_variance_ratio():
    w_star, _ = umpu_weights(FRatio(5, 11), ALPHA)
    assert w_star == pytest.approx(0.6078412, abs=1e-6)
    assert power_derivative_at_null(FRatio(5, 11), ALPHA, w_star) == pytest.approx(
        0.0, abs=1e-12
    )


def test_power_derivative_shape():
    # the anchored-at-the-mean weight is closer to optimal than equal tails
    w_mean = CHISQ5.cdf(5.0)
    assert w_mean == pytest.approx(0.584, abs=5e-4)
    assert abs(power_derivative_at_null(CHISQ5, ALPHA, w_mean)) < abs(
        power_derivative_at_null(CHISQ5, ALPHA, 0.5)
    )
    # sign change brackets the optimum
    assert power_derivative_at_null(CHISQ5, ALPHA, 0.5) > 0.0
    assert power_derivative_at_null(CHISQ5, ALPHA, 0.9) < 0.0


@pytest.mark.parametrize("d", [CHISQ5, ChiSquare(3), FRatio(5, 11), FRatio(4, 4)], ids=str)
def test_power_derivative_strictly_decreasing(d):
    grid = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95]
    vals = [power_derivative_at_null(d, ALPHA, w) for w in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("k", [3, 5, 10])
def test_mean_anchor_weight_beats_equal_tails_battery(alpha, k):
    d = ChiSquare(k)
    w_star, _ = umpu_weights(d, alpha)
    f_at_mean = d.cdf(float(k))
    # the mean-anchored weight must fall between equal tails and the optimum
    # for the comparison to be meaningful; it does for all these cases
    assert 0.5 < f_at_mean <= w_star
    assert abs(power_derivative_at_null(d, alpha, f_at_mean)) < abs(
        power_derivative_at_null(d, alpha, 0.5)
    )


def test_power_derivative_matches_numeric_rho_derivative():
    # central-difference derivative of the power in rho at the null; the
    # closed form is the scale derivative for both families, with Jacobian -1
    # (rho multiplies the statistic inside the power while the alternative
    # scales it down)
    h = 1e-4
    for d in (CHISQ5, FRatio(5, 11)):
        for w in (0.3, 0.6, 0.85):
            region = critical_region_from_weights(d, ALPHA, w)
            numeric = (variance_power(d, region.c_left, region.c_right, 1.0 + h)
                       - variance_power(d, region.c_left, region.c_right, 1.0 - h)) / (2.0 * h)
            closed = power_derivative_at_null(d, ALPHA, w)
            assert numeric == pytest.approx(-closed, abs=1e-5)


# w* = F(c_L)/alpha of the 5%-level UMPU region, from 40-digit mpmath roots of
# c_L f(c_L) = c_R f(c_R) with F(c_L) + S(c_R) = alpha
UMPU_ROOTS = [
    (ChiSquare(1), "0.8964764421022196183565456614082887993655"),
    (ChiSquare(2), "0.8295709118134154769150437049741034413004"),
    (ChiSquare(5), "0.7314010991171143273763939459523465730204"),
    (ChiSquare(30), "0.5996262912081397947481679100678597960994"),
    (ChiSquare(300), "0.5317829214739160597166771818524182249968"),
    (ChiSquare(2000), "0.5123195300023408396297420640515619818378"),
    (ChiSquare(5000), "0.5077922275971062559187970883971729950286"),
    (FRatio(5, 10), "0.5974067224088569801626927137880484630320"),
    (FRatio(10, 20), "0.5702941479692639203446389373283176068765"),
    (FRatio(50, 80), "0.5228931397041142707550010025402668926200"),
]


@pytest.mark.parametrize("d,w_ref", UMPU_ROOTS, ids=[str(d) for d, _ in UMPU_ROOTS])
def test_umpu_weights_against_frozen_mpmath(d, w_ref):
    w_star, _ = umpu_weights(d, ALPHA)
    assert w_star == pytest.approx(float(w_ref), rel=1e-12)


# small-alpha regions from mpmath bisection at 40 digits; tests/make_region_reference.py
# recomputes them
UMPU_SMALL_ALPHA = [
    (ChiSquare(1), 1e-12, 0.98357650485349534381, 1.5196240878632850354e-24,
     58.919755683202153371),
    (ChiSquare(5), 1e-12, 0.9314339487780004642, 4.981090066666351185e-05,
     70.838442487543683115),
]
MINLIK_SMALL_ALPHA = [
    (ChiSquare(5), 1e-12, 2.3455514896011991e-08, 65.238636222750051),
    (ChiSquare(3), 1e-6, 1.4759302185133726e-12, 30.664849706214583),
]


@pytest.mark.parametrize("d,alpha,w_ref,left,right", UMPU_SMALL_ALPHA, ids=str)
def test_umpu_weights_at_small_alpha_against_frozen_mpmath(d, alpha, w_ref, left, right):
    w_star, region = umpu_weights(d, alpha)
    assert w_star == pytest.approx(w_ref, abs=1e-12)
    assert region.c_left == pytest.approx(left, rel=5e-12)
    assert region.c_right == pytest.approx(right, rel=5e-12)


@pytest.mark.parametrize("d,alpha,left,right", MINLIK_SMALL_ALPHA, ids=str)
def test_minlik_region_at_small_alpha_against_frozen_mpmath(d, alpha, left, right):
    assert minlik_region(d, alpha) == pytest.approx((left, right), rel=5e-12)


def test_umpu_weight_of_the_symmetric_variance_ratio_at_small_alpha():
    # c f(c) and the two tails of F(1, 1) are symmetric under c -> 1/c
    w_star, region = umpu_weights(FRatio(1, 1), 1e-6)
    assert w_star == pytest.approx(0.5, abs=1e-12)
    assert region.c_left * region.c_right == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.05, 1e-6, 1e-12])
@pytest.mark.parametrize("k", range(1, 29))
def test_umpu_region_of_chi_square_is_the_minlik_region_two_df_up(k, alpha):
    # c f_k(c) is proportional to f_{k+2}(c), and k F_{k+2} = k F_k - 2 t f_k
    # makes the two tail conditions agree where the levels are equal
    _, region = umpu_weights(ChiSquare(k), alpha)
    assert (region.c_left, region.c_right) == pytest.approx(
        minlik_region(ChiSquare(k + 2), alpha), rel=1e-11)


def _outer_search_ends(monkeypatch, run) -> tuple[list[float], list[tuple[float, float]]]:
    """The points where the region search sums its tails, and its brentq brackets.

    Tail sums and the right cut's partner search solve with the same brentq;
    only the brackets solved outside them are the outer search's.
    """
    sums, brackets, depth = [], [], [0]
    tail_sum, partner, solve = analysis._tail_sum, analysis._partner, roots.brentq

    def nested(fn):
        def call(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return call

    def counted_sum(d, level, peak, x):
        sums.append(x)
        return nested(tail_sum)(d, level, peak, x)

    def counted_solve(f, a, b):
        if not depth[0]:
            brackets.append((a, b))
        return solve(f, a, b)

    monkeypatch.setattr(analysis, "_tail_sum", counted_sum)
    monkeypatch.setattr(analysis, "_partner", nested(partner))
    monkeypatch.setattr(roots, "brentq", counted_solve)
    run()
    return sums, brackets


def test_umpu_weights_evaluates_each_bracket_end_once(monkeypatch):
    sums, brackets = _outer_search_ends(
        monkeypatch, lambda: umpu_weights.__wrapped__(CHISQ5, ALPHA))
    [(lo, hi)] = brackets
    assert 0.0 < lo < hi < CHISQ5.df
    assert sums.count(lo) == 1
    assert sums.count(hi) == 1


def test_umpu_weights_is_memoized_and_errors_are_not():
    cold = umpu_weights.__wrapped__(FRatio(7, 9), ALPHA)
    assert umpu_weights(FRatio(7, 9), ALPHA) == cold
    hits = umpu_weights.cache_info().hits
    assert umpu_weights(FRatio(7, 9), ALPHA) == cold
    assert umpu_weights.cache_info().hits == hits + 1
    assert umpu_weights.cache_info().maxsize == 256
    size = umpu_weights.cache_info().currsize
    for d, alpha in ((CHISQ5, 1.5), (Uniform(0.0, 1.0), ALPHA)):
        for _ in range(2):
            with pytest.raises(ValueError):
                umpu_weights(d, alpha)
    assert umpu_weights.cache_info().currsize == size


@pytest.mark.parametrize("d", [Uniform(0.0, 1.0), Triangular(1.0, 2.0), TruncatedNormal(0.5)],
                         ids=str)
def test_umpu_weights_only_for_the_variance_families(d):
    with pytest.raises(ValueError, match="UMPU") as excinfo:
        umpu_weights(d, ALPHA)
    assert type(d).__name__ in str(excinfo.value)
    assert "partial mean" not in str(excinfo.value)
    for method in BIAS_METHODS:
        with pytest.raises(ValueError) as excinfo:
            bias(d, method, ALPHA)
        assert str(excinfo.value) == ("bias reports are defined for the chi-square and F "
                                      f"variance tests, not {type(d).__name__}")


# ---------------------------------------------------------------------------
# minimum-likelihood acceptance region


def test_minlik_region_defining_equations():
    left, right = minlik_region(CHISQ5, ALPHA)
    assert left == pytest.approx(0.2962385, abs=1e-6)
    assert right == pytest.approx(11.1914636, abs=1e-6)
    assert CHISQ5.pdf_or_pmf(left) == pytest.approx(CHISQ5.pdf_or_pmf(right), rel=1e-8)
    assert CHISQ5.cdf(left) + CHISQ5.sf(right) == pytest.approx(ALPHA, abs=1e-10)


@pytest.mark.parametrize("d", [ChiSquare(k) for k in (6, 9, 10, 13, 16, 20, 21, 22, 27)]
                         + [FRatio(5, 10), FRatio(50, 80)], ids=repr)
def test_minlik_region_when_a_density_ties_the_mode(d):
    # the bracket's upper end sits within 1e-9 of the mode, where the rounded
    # density can tie or exceed the computed density at the mode itself
    left, right = minlik_region(d, ALPHA)
    assert left < d.mode_set()[0] < right
    assert d.pdf_or_pmf(left) == pytest.approx(d.pdf_or_pmf(right), rel=1e-8)
    assert d.cdf(left) + d.sf(right) == pytest.approx(ALPHA, abs=1e-10)


def test_minlik_region_evaluates_each_bracket_end_once(monkeypatch):
    sums, brackets = _outer_search_ends(monkeypatch, lambda: minlik_region(CHISQ5, ALPHA))
    [(lo, hi)] = brackets
    assert 0.0 < lo < hi < CHISQ5.mode_set()[0]
    assert sums.count(lo) == 1
    assert sums.count(hi) == 1


def test_minlik_region_steps_toward_the_lower_end_once_per_point(monkeypatch):
    # at 1e-12 the opposite tail of the start point still holds more than
    # alpha; each step's tail sum is reused as the next bracket end
    sums, brackets = _outer_search_ends(monkeypatch, lambda: minlik_region(CHISQ5, 1e-12))
    [(lo, hi)] = brackets
    assert sums.index(lo) > 1
    assert len(sums) == len(set(sums))


def test_minlik_region_min_power():
    report = bias(CHISQ5, "min_likelihood", ALPHA)
    assert report.min_power == pytest.approx(0.01, abs=5e-3)
    assert report.min_power == pytest.approx(0.00988, abs=1e-4)
    assert report.argmin_rho > 1.0


def test_minlik_region_small_alpha_degenerates():
    left, right = minlik_region(CHISQ5, 1e-6)
    assert left < 0.05
    assert right > 25.0
    assert CHISQ5.cdf(left) + CHISQ5.sf(right) == pytest.approx(1e-6, rel=1e-6)


def test_minlik_region_boundary_mode():
    # when the density is decreasing from the boundary the region is a
    # single upper-tail cut
    for d in (ChiSquare(2), ChiSquare(1), FRatio(2, 8)):
        left, right = minlik_region(d, ALPHA)
        assert left == d.support().lo
        assert right == pytest.approx(d.quantile(1.0 - ALPHA), rel=1e-12)


@pytest.mark.parametrize("d, alpha, cut", [
    # S(c) = e^(-c/2) for chi-square(2)
    (ChiSquare(2), 1e-300, 1381.5510557964274),
    # S(c) = (1 + c/4)^(-4) for F(2, 8)
    (FRatio(2, 8), 1e-12, 3996.0),
    # mpmath at 40 digits
    (FRatio(1, 1), 1e-12, 4.0528473456935109e23),
    (ChiSquare(1), 1e-300, 1373.8726312223941),
], ids=repr)
def test_one_sided_minlik_cut_is_taken_from_the_upper_tail(d, alpha, cut):
    # 1 - alpha rounds at these levels, so no quantile of it holds the cut
    left, right = minlik_region(d, alpha)
    assert left == d.support().lo
    assert right == pytest.approx(cut, rel=1e-14, abs=0.0)


def test_one_sided_minlik_bias_at_a_small_level():
    # F(1, 1): min power alpha e^-2 at rho = e^4, from mpmath
    report = bias(FRatio(1, 1), "min_likelihood", 1e-12)
    assert report.min_power == pytest.approx(1.35335283237e-13, rel=1e-9, abs=0.0)
    assert report.bias < 0.0


def test_one_sided_minlik_cut_beyond_the_float_range_is_refused():
    # F(1, 1) at 1e-300 cuts near 4e599
    with pytest.raises(ValueError, match="leaves the float range"):
        minlik_region(FRatio(1, 1), 1e-300)


@pytest.mark.parametrize("alpha", [0.05, 1e-6, 1e-12])
@pytest.mark.parametrize("d", [ChiSquare(k) for k in range(3, 31)]
                         + [FRatio(5, 10), FRatio(10, 20), FRatio(20, 40), FRatio(50, 80)],
                         ids=repr)
def test_minlik_p_value_equals_alpha_at_the_region_cuts(d, alpha):
    # the region is where the p-value crosses alpha, and both solve for the
    # partner with the same walk and tolerance
    for cut in minlik_region(d, alpha):
        assert p_min_likelihood(d, cut) == pytest.approx(alpha, rel=1e-13, abs=0.0)


def test_minlik_region_truncation_above_the_cut_level():
    # the density at the truncation point -0.5 exceeds the density at the
    # upper 5% cut, so the highest-density region is one-sided; a deeper
    # truncation keeps both cuts
    d = TruncatedNormal(0.5)
    left, right = minlik_region(d, ALPHA)
    assert left == -0.5
    assert d.pdf_or_pmf(left) > d.pdf_or_pmf(right)
    assert d.cdf(left) + d.sf(right) == pytest.approx(ALPHA, rel=1e-12)
    deep = TruncatedNormal(2.0)
    left, right = minlik_region(deep, ALPHA)
    assert -2.0 < left < 0.0 < right
    assert deep.pdf_or_pmf(left) == pytest.approx(deep.pdf_or_pmf(right), rel=1e-8)
    assert deep.cdf(left) + deep.sf(right) == pytest.approx(ALPHA, abs=1e-10)


def test_minlik_region_validation():
    with pytest.raises(ValueError, match="continuous"):
        minlik_region(Binomial(10, 0.2), ALPHA)
    with pytest.raises(ValueError):
        minlik_region(CHISQ5, 1.5)


# ---------------------------------------------------------------------------
# bias


def test_bias_golden_chi_square():
    assert bias(CHISQ5, "doubled", ALPHA).bias == pytest.approx(-0.0046, abs=2e-4)
    assert bias(CHISQ5, "conditional", ALPHA).bias == pytest.approx(-0.0020, abs=2e-4)
    assert abs(bias(CHISQ5, "umpu", ALPHA).bias) < 1e-6


def test_bias_report_invariants():
    for method in BIAS_METHODS:
        report = bias(CHISQ5, method, ALPHA)
        assert report.method == method and report.level == ALPHA
        assert report.bias == pytest.approx(report.min_power - ALPHA, abs=1e-15)
        assert report.bias <= 1e-12  # rho = 1 already attains power alpha
        assert report.argmin_rho > 0.0


def test_bias_equal_samples_variance_ratio_unbiased():
    # with equal degrees of freedom the equal-tails region is the optimum
    assert abs(bias(FRatio(5, 5), "doubled", ALPHA).bias) < 1e-6
    assert abs(bias(FRatio(5, 5), "umpu", ALPHA).bias) < 1e-6


def test_bias_crossover_for_unequal_samples():
    # second sample twice the first: conditional (mean-anchored) is less
    # biased than doubled
    for d2, frozen_doubled, frozen_conditional in (
        (11, -0.001035, -0.000089),
        (17, -0.001910, -0.000072),
    ):
        d = FRatio(5, d2)
        b_doubled = bias(d, "doubled", ALPHA).bias
        b_conditional = bias(d, "conditional", ALPHA).bias
        assert abs(b_conditional) < abs(b_doubled)
        assert b_doubled == pytest.approx(frozen_doubled, abs=2e-5)
        assert b_conditional == pytest.approx(frozen_conditional, abs=2e-5)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("k", [3, 5, 10])
def test_bias_comparison_battery(alpha, k):
    d = ChiSquare(k)
    w_star, _ = umpu_weights(d, alpha)
    f_at_mean = d.cdf(float(k))
    assert 0.5 < f_at_mean <= w_star  # comparison hypothesis
    b_doubled = bias(d, "doubled", alpha).bias
    b_conditional = bias(d, "conditional", alpha).bias
    assert b_conditional >= b_doubled
    assert abs(b_conditional) <= abs(b_doubled)


def test_bias_median_anchor_equals_doubled():
    via_median = bias(CHISQ5, "conditional", ALPHA, anchor="median").bias
    via_doubled = bias(CHISQ5, "doubled", ALPHA).bias
    assert via_median == pytest.approx(via_doubled, abs=1e-9)


def test_bias_needs_a_defined_anchor():
    # F(5, 2) has no mean: the conditional region needs an anchor that exists
    with pytest.raises(ValueError, match="mean is undefined for denominator df <= 2, got 2"):
        bias(FRatio(5, 2), "conditional", ALPHA)
    report = bias(FRatio(5, 2), "conditional", ALPHA, anchor="median")
    assert report.bias <= 0.0
    with pytest.raises(ValueError, match="unknown bias method"):
        bias(CHISQ5, "weighted", ALPHA)


# the laws of the umpu/bias sweep: chi-square(1..30) and four variance ratios
SWEEP_LAWS = [ChiSquare(k) for k in range(1, 31)] + [
    FRatio(5, 10), FRatio(10, 20), FRatio(20, 40), FRatio(50, 80)]
# the log grid the closed form replaces, used here as a reference
REFERENCE_RHOS = [math.exp(-4.0 + 8.0 * i / 399) for i in range(400)]


@pytest.mark.parametrize("k", range(3, 31))
def test_bias_min_likelihood_chi_square_argmin_is_k_over_k_minus_2(k):
    # f(c_L) = f(c_R) gives log(c_R/c_L)/(c_R - c_L) = 1/(k - 2), so rho* = k/(k - 2)
    report = bias(ChiSquare(k), "min_likelihood", ALPHA)
    assert report.argmin_rho == pytest.approx(k / (k - 2), rel=1e-12)


@pytest.mark.parametrize("d", SWEEP_LAWS, ids=str)
def test_bias_umpu_argmin_is_the_null(d):
    # the UMPU region has zero power slope at rho = 1, the one stationary point
    assert bias(d, "umpu", ALPHA).argmin_rho == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("method", ["doubled", "conditional"])
@pytest.mark.parametrize("d", SWEEP_LAWS, ids=str)
def test_bias_closed_form_is_the_stationary_minimum(d, method):
    w_left = 0.5 if method == "doubled" else d.cdf(d.mean())
    region = critical_region_from_weights(d, ALPHA, w_left)
    c_left, c_right = region.c_left, region.c_right
    report = bias(d, method, ALPHA)
    rho = report.argmin_rho
    left = c_left * d.pdf_or_pmf(rho * c_left)
    right = c_right * d.pdf_or_pmf(rho * c_right)
    assert left == pytest.approx(right, rel=1e-10)
    assert report.min_power == variance_power(d, c_left, c_right, rho)
    for grid_rho in REFERENCE_RHOS:
        assert report.min_power <= variance_power(d, c_left, c_right, grid_rho)


@pytest.mark.parametrize("k", [1, 2])
def test_bias_boundary_mode_clamps_to_the_range_end(k):
    # c_L = 0: the power falls for every rho, so the minimum is the range end
    assert bias(ChiSquare(k), "min_likelihood", ALPHA).argmin_rho == math.exp(4.0)


def test_bias_closed_form_against_frozen_mpmath():
    # mpmath at 40 digits: chi-square(45) cuts at the mean anchor, closed-form rho*
    report = bias(ChiSquare(45), "conditional", ALPHA)
    assert report.argmin_rho == pytest.approx(1.00979178613812, rel=1e-12)
    assert report.bias == pytest.approx(-0.000242955368451098493, rel=1e-10)


# ---------------------------------------------------------------------------
# binomial weight table


REFERENCE_WEIGHTS = {
    (10, 0.1): (0.736, 1.130, 0.531), (10, 0.2): (0.678, 1.086, 0.521),
    (11, 0.1): (0.697, 2.304, 0.697), (11, 0.2): (0.617, 1.614, 0.617),
    (20, 0.1): (0.677, 1.113, 0.527), (20, 0.2): (0.630, 1.070, 0.517),
    (21, 0.1): (0.648, 1.844, 0.648), (21, 0.2): (0.586, 1.416, 0.586),
    (50, 0.1): (0.616, 1.083, 0.520), (50, 0.2): (0.584, 1.049, 0.512),
    (51, 0.1): (0.598, 1.485, 0.598), (51, 0.2): (0.556, 1.250, 0.556),
    (100, 0.1): (0.583, 1.063, 0.515), (100, 0.2): (0.559, 1.036, 0.509),
    (101, 0.1): (0.570, 1.325, 0.570), (101, 0.2): (0.540, 1.172, 0.540),
    (200, 0.1): (0.559, 1.046, 0.511), (200, 0.2): (0.542, 1.026, 0.507),
    (201, 0.1): (0.550, 1.221, 0.550), (201, 0.2): (0.528, 1.119, 0.528),
    (500, 0.1): (0.538, 1.030, 0.507), (500, 0.2): (0.527, 1.017, 0.504),
    (501, 0.1): (0.532, 1.135, 0.532), (501, 0.2): (0.518, 1.074, 0.518),
    (1000, 0.1): (0.527, 1.022, 0.505), (1000, 0.2): (0.519, 1.012, 0.503),
    (1001, 0.1): (0.522, 1.094, 0.522), (1001, 0.2): (0.513, 1.052, 0.513),
}


def test_binomial_weight_table_full_regeneration():
    rows = binomial_weight_table()
    assert len(rows) == len(TABLE1_NS) * len(TABLE1_PS) == 28
    for row in rows:
        expect = REFERENCE_WEIGHTS[(row["n"], row["p"])]
        assert row["w_left"] == pytest.approx(expect[0], abs=1e-3)
        assert row["weight_ratio"] == pytest.approx(expect[1], abs=1e-3)
        assert row["w_left_modified"] == pytest.approx(expect[2], abs=1e-3)
    # tail_weights and _modified_scale are memoized, so a second table (the
    # CLI's JSON after its CSV) builds no discrete table
    misses = _discrete_tables.cache_info().misses
    assert binomial_weight_table() == rows
    assert _discrete_tables.cache_info().misses == misses


def test_binomial_weight_table_spot_rows():
    rows = {(r["n"], r["p"]): r for r in binomial_weight_table()}
    r10 = rows[(10, 0.2)]
    assert r10["w_left"] == pytest.approx(0.6777995264, abs=1e-9)
    assert r10["weight_ratio"] == pytest.approx(1.085885922, abs=1e-8)
    assert r10["w_left_modified"] == pytest.approx(0.5205873968, abs=1e-9)
    # odd n (and any non-integer mean): the anchor is unattainable, so the
    # modified weight equals the unmodified one exactly
    for key in ((11, 0.2), (51, 0.2), (1001, 0.1)):
        assert rows[key]["w_left_modified"] == rows[key]["w_left"]
    assert rows[(10, 0.2)]["w_left_modified"] < rows[(10, 0.2)]["w_left"]
    custom = binomial_weight_table([4], [0.5])
    assert len(custom) == 1 and custom[0]["n"] == 4


# ---------------------------------------------------------------------------
# margin-family p-value table


REFERENCE_FAMILY1 = {
    # n11: (prob, p_one_sided, p_min_likelihood, p_conditional)
    0: (0.143, 0.143, 0.286, 0.274),
    1: (0.378, 0.521, 1.0, 1.0),
    2: (0.336, 0.479, 0.622, 1.0),
    3: (0.124, 0.143, 0.143, 0.299),
    4: (0.019, 0.019, 0.019, 0.040),
    5: (0.001, 0.001, 0.001, 0.002),
}

REFERENCE_FAMILY2 = {
    0: (0.258, 0.258, 0.570, 0.374),
    1: (0.430, 0.689, 1.0, 1.0),
    2: (0.246, 0.311, 0.311, 1.0),
    3: (0.059, 0.065, 0.065, None),  # see exact-rational assertions below
    4: (0.006, 0.006, 0.006, None),
    5: (0.0002, 0.0002, 0.0002, 0.0006),
}

# conditional column as exact rationals (derived by hand from the integer
# table counts; the two None cells above divide already-rounded entries or
# are misprints, and sit more than 0.001 from these exact values)
EXACT_CONDITIONAL_FAMILY1 = [
    Fraction(17, 62), Fraction(1), Fraction(1),
    Fraction(81, 271), Fraction(11, 271), Fraction(1, 542),
]
EXACT_CONDITIONAL_FAMILY2 = [
    Fraction(3, 8), Fraction(1), Fraction(1),
    Fraction(1197, 5692), Fraction(28, 1423), Fraction(7, 11384),
]


def _tolerance(reference: float) -> float:
    # half a unit would be the printing tolerance; rounded-entry division in
    # the source tables needs the full last-digit unit (values below 0.001
    # are printed with four decimals)
    return (5e-4 if reference < 0.001 else 1e-3) + 1e-9


@pytest.mark.parametrize(
    "margins,reference,exact_pc",
    [
        ((9, 5, 30), REFERENCE_FAMILY1, EXACT_CONDITIONAL_FAMILY1),
        ((9, 5, 40), REFERENCE_FAMILY2, EXACT_CONDITIONAL_FAMILY2),
    ],
    ids=["total30", "total40"],
)
def test_fisher_pvalue_table_regeneration(margins, reference, exact_pc):
    rows = fisher_pvalue_table(*margins)
    assert [r["n11"] for r in rows] == list(range(6))
    for row in rows:
        prob, one_sided, p_min, p_cond = reference[row["n11"]]
        assert row["prob"] == pytest.approx(prob, abs=_tolerance(prob))
        assert row["p_one_sided"] == pytest.approx(one_sided, abs=_tolerance(one_sided))
        assert row["p_min_likelihood"] == pytest.approx(p_min, abs=_tolerance(p_min))
        if p_cond is not None:
            assert row["p_conditional"] == pytest.approx(p_cond, abs=_tolerance(p_cond))
        assert row["p_conditional"] == pytest.approx(
            float(exact_pc[row["n11"]]), abs=1e-12
        )


def test_fisher_pvalue_table_documented_reference_offsets():
    rows = {r["n11"]: r for r in fisher_pvalue_table(9, 5, 40)}
    # .209 was formed as .065/.311 (division of rounded entries); the exact
    # value 1197/5692 = 0.21030 sits 0.0013 away
    assert abs(rows[3]["p_conditional"] - 0.209) > 1e-3
    # .028 is a misprint: the exact value is 28/1423 = 0.0197
    assert abs(rows[4]["p_conditional"] - 0.028) > 8e-3


def test_fisher_pvalue_table_golden_rows():
    rows30 = fisher_pvalue_table(9, 5, 30)
    row5 = rows30[5]
    assert row5["prob"] == pytest.approx(0.001, abs=5e-4)
    assert row5["p_conditional"] == pytest.approx(0.002, abs=5e-4)
    assert rows30[2]["p_conditional"] == 1.0
    assert list(rows30[0]) == ["n11", "prob", "p_one_sided", "p_min_likelihood",
                               "p_conditional"]


@pytest.mark.parametrize("margins", [
    (9, 5, 30), (9, 5, 40), (2000, 2000, 6000), (50, 700, 800),
    (300, 20, 100000),   # tails in the subnormal range
    (0, 5, 10), (10, 0, 10), (5, 10, 10), (3, 3, 3), (1, 1, 2),   # one or two tables
], ids=str)
def test_fisher_pvalue_table_rows_are_the_per_point_values(margins):
    rows = fisher_pvalue_table(*margins)
    # the per-point calls start from the core window, as a lone query does
    _discrete_tables.cache_clear()
    d = Hypergeometric(*margins)
    lo, hi = d._bounds()
    a = d.mean()
    assert [r["n11"] for r in rows] == list(range(lo, hi + 1))
    for row in rows:
        x = float(row["n11"])
        assert row == {"n11": row["n11"],
                       "prob": d.pdf_or_pmf(x),
                       "p_one_sided": min(d.cdf(x), d.sf(x)),
                       "p_min_likelihood": p_min_likelihood(d, x),
                       "p_conditional": p_conditional(d, x, a)}


# ---------------------------------------------------------------------------
# figure data


def test_figure_data_validation():
    with pytest.raises(ValueError, match="unknown figure"):
        figure_data("fig9")
    with pytest.raises(ValueError, match="resolution"):
        figure_data("fig1", 3)
    with pytest.raises(ValueError, match="resolution"):
        figure_data("fig1", True)
    with pytest.raises(ValueError) as too_coarse:
        figure_data("fig3", 3)
    assert str(too_coarse.value) == "resolution must be an integer >= 4, got 3"
    with pytest.raises(ValueError) as too_fine:
        figure_data("fig3", 100_001)
    assert str(too_fine.value) == "resolution must be at most 100000, got 100001"
    assert set(FIGURES) == {"fig1", "fig2", "fig3", "fig4"}


def test_figure_one_power_curves():
    header, rows = figure_data("fig1", 128)
    assert header == ["rho", "power_min_likelihood", "power_doubled",
                      "power_conditional", "power_umpu"]
    at_null = [r for r in rows if r[0] == 1.0]
    assert len(at_null) == 1
    assert all(v == pytest.approx(ALPHA, abs=1e-10) for v in at_null[0][1:])
    mins = [min(r[i] for r in rows) for i in range(1, 5)]
    assert mins[0] == pytest.approx(0.00988, abs=1e-3)
    assert mins[1] == pytest.approx(0.0454, abs=1e-3)
    assert mins[2] == pytest.approx(0.0480, abs=1e-3)
    assert mins[3] == pytest.approx(0.05, abs=1e-6)
    for r in rows:
        assert all(0.0 <= v <= 1.0 for v in r[1:])


def test_figure_two_bias_series():
    header, rows = figure_data("fig2")
    assert header == ["panel", "n", "bias_doubled", "bias_conditional"]
    one = [r for r in rows if r[0] == "one_sample"]
    two = [r for r in rows if r[0] == "two_sample"]
    assert [r[1] for r in one] == list(range(3, 51))
    assert [r[1] for r in two] == list(range(4, 51))
    n12 = next(r for r in two if r[1] == 12)
    assert n12[2] == pytest.approx(-0.001035, abs=2e-5)
    assert n12[3] == pytest.approx(-0.000089, abs=2e-5)
    assert all(r[2] <= 1e-12 and r[3] <= 1e-12 for r in rows)


def test_figure_three_pvalue_curves():
    header, rows = figure_data("fig3", 40)
    assert header == ["panel", "x", "p_min_likelihood", "p_doubled_raw",
                      "p_conditional"]
    chisq_rows = [r for r in rows if r[0] == "chisq5"]
    trunc_rows = [r for r in rows if r[0] == "truncnorm05"]
    assert len(chisq_rows) == 41 and len(trunc_rows) == 41
    at5 = next(r for r in chisq_rows if r[1] == 5.0)
    assert at5[2] == pytest.approx(0.517208, abs=1e-5)
    assert at5[4] == 1.0
    # the doubled series is deliberately not truncated at 1
    assert max(r[3] for r in chisq_rows) > 1.0
    assert max(r[3] for r in trunc_rows) > 1.0


def test_figure_four_discrete_curves():
    header, rows = figure_data("fig4")
    assert header == ["panel", "x", "p_min_likelihood", "p_conditional",
                      "p_conditional_modified", "p_doubled"]
    assert len(rows) == 11 + 12
    at5 = next(r for r in rows if r[0] == "binom10" and r[1] == 5.0)
    assert at5[2] == pytest.approx(0.032793, abs=1e-6)
    assert at5[3] == pytest.approx(0.052538, abs=1e-6)
    assert at5[4] == pytest.approx(0.068403, abs=1e-6)
    assert at5[5] == pytest.approx(0.065587, abs=1e-6)


def test_figure_data_deterministic():
    assert figure_data("fig1", 64) == figure_data("fig1", 64)
    assert figure_data("fig4") == figure_data("fig4")
