"""Distribution-layer tests.

Discrete families are checked cell-by-cell against exact rational
arithmetic (``fractions.Fraction`` over integer binomial coefficients),
continuous families against closed forms and round-trip identities.
Golden three-to-four digit values come from the worked chi-square,
binomial, and Fisher-table examples this package reproduces.
"""

from __future__ import annotations

import inspect
import math
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from twoside import dist
from twoside.dist import (
    Binomial,
    ChiSquare,
    FRatio,
    Hypergeometric,
    NoncentralHypergeometric,
    Support,
    Triangular,
    TruncatedNormal,
    Uniform,
    _Tables,
    _build_tables,
    _discrete_tables,
    _exact_sum,
)

# ---------------------------------------------------------------------------
# exact oracles


def binom_pmf_exact(n: int, p: float, k: int) -> Fraction:
    """Binomial mass as an exact rational in the actual float parameter."""
    fp = Fraction(p)
    return math.comb(n, k) * fp**k * (1 - fp) ** (n - k)


def hyper_pmf_exact(row1: int, col1: int, total: int, k: int) -> Fraction:
    return Fraction(
        math.comb(row1, k) * math.comb(total - row1, col1 - k),
        math.comb(total, col1),
    )


# ---------------------------------------------------------------------------
# the law interface

LAWS = [getattr(dist, name) for name in dist.__all__
        if name not in ("Support", "Distribution")]


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.__name__)
def test_every_law_defines_the_interface_below_distribution(law):
    # Distribution and _Discrete declare no stubs, so a missing method shows here
    interface = [(dist.Distribution, name) for name in
                 ("support", "cdf", "sf", "pdf_or_pmf", "quantile", "mean", "mode_set")]
    if issubclass(law, dist._Discrete):
        interface += [(dist._Discrete, "_bounds"), (dist._Discrete, "_ratios")]
    for base, name in interface:
        owner = next((k for k in law.__mro__ if name in vars(k)), base)
        assert owner is not base and issubclass(owner, base), name


# ---------------------------------------------------------------------------
# golden values


def test_chi_square_golden_values():
    d = ChiSquare(5)
    assert d.cdf(1.0) == pytest.approx(0.0374, abs=5e-5)
    assert d.pdf_or_pmf(1.0) == pytest.approx(0.0807, abs=5e-5)
    assert d.cdf(0.5) == pytest.approx(0.0079, abs=5e-5)
    assert d.pdf_or_pmf(0.5) == pytest.approx(0.0366, abs=5e-5)
    # the printed 1-sided value 0.2431 for the conjugate of x=1 traces to a
    # conjugate rounded *down* (6.710...); at 6.711 itself, and at the exact
    # conjugate, the tail is 0.24304/0.24300, so the exact value is frozen here
    assert d.sf(6.711) == pytest.approx(0.2430359582, abs=1e-9)
    assert d.quantile(0.0374) == pytest.approx(1.0, abs=1e-3)
    assert d.mean() == 5.0
    assert d.mode_set() == [3.0]
    assert d.cdf(5.0) == pytest.approx(0.5841198130, abs=1e-9)


def test_binomial_golden_values():
    d = Binomial(10, 0.2)
    assert d.cdf(2) == pytest.approx(0.678, abs=5e-4)
    assert d.sf(5) == pytest.approx(0.0328, abs=5e-5)
    assert d.mean() == pytest.approx(2.0)
    assert d.mode_set() == [2.0]
    d11 = Binomial(11, 0.2)
    assert d11.mean() == pytest.approx(2.2)
    assert d11.mode_set() == [2.0]  # floor(12 * 0.2)


def test_hypergeometric_golden_values():
    d = Hypergeometric(9, 5, 30)
    assert d.cdf(1) == pytest.approx(0.521, abs=5e-4)
    assert d.pdf_or_pmf(1) == pytest.approx(0.378, abs=5e-4)
    # inclusive upper tail at 4 is the sum of the two last masses
    exact = float(hyper_pmf_exact(9, 5, 30, 4) + hyper_pmf_exact(9, 5, 30, 5))
    assert d.sf(4) == pytest.approx(exact, abs=1e-12)
    assert d.support().points() == range(0, 6)


def test_truncated_normal_golden_values():
    d = TruncatedNormal(0.5)
    assert d.mean() == pytest.approx(0.509, abs=5e-4)
    assert d.cdf(d.mean()) == pytest.approx(0.558, abs=5e-4)
    assert d.mode_set() == [0.0]
    assert d.support().lo == -0.5
    assert math.isinf(d.support().hi)


@pytest.mark.parametrize("x, ref", [
    # P(Z >= x) / P(Z >= -0.5) for a standard normal Z, mpmath at 40 digits
    (5.0, 4.1455840039536069297e-07),
    (8.0, 8.9968160568105498831e-16),
    (8.3, 7.5283475769589003614e-17),
    (30.0, 7.0961392728502030908e-198),
])
def test_truncated_normal_upper_tail_against_high_precision_reference(x, ref):
    # 1 - cdf(x) would give 9.99e-16 at x = 8 and 0.0 at x = 8.3
    assert TruncatedNormal(0.5).sf(x) == pytest.approx(ref, rel=1e-12)


def test_truncated_normal_sf_is_one_up_to_the_cutoff():
    d = TruncatedNormal(0.5)
    assert d.sf(-0.5) == 1.0
    assert d.sf(-3.0) == 1.0


def _exact_sf(d, x: Fraction) -> Fraction:
    if isinstance(d, Uniform):
        lower, upper = Fraction(d.lower), Fraction(d.upper)
        return (upper - x) / (upper - lower)
    a, b = Fraction(d.left), Fraction(d.right)
    if x <= 0:
        return 1 - (x + a) ** 2 / (a * (a + b))
    return (b - x) ** 2 / (b * (a + b))


@pytest.mark.parametrize("d, xs", [
    (Triangular(1.0, 2.0), (-0.999999999, -0.5, 0.0, 1e-300, 0.5, 1.5, 1.9999999, 1.999999999,
                            2.0 - 2.0**-51)),
    (Triangular(0.5, 3.5), (-0.25, 0.1, 3.0, 3.4999999999, 3.5 - 2.0**-50)),
    (Uniform(0.0, 3.0), (1e-300, 1.5, 2.9, 2.999999999999, 3.0 - 2.0**-51)),
    (Uniform(-1.0, 3.0), (-0.999, 0.0, 2.0, 2.99999999999, 3.0 - 2.0**-51)),
], ids=str)
def test_upper_tail_against_exact_rationals(d, xs):
    # 1 - cdf(x) would give 1.6653e-15 for tri:1,2 at 1.9999999 and 0.0 at 1.999999999
    for x in xs:
        exact = _exact_sf(d, Fraction(x))
        assert abs(Fraction(d.sf(x)) - exact) <= exact * Fraction(1e-15), x
    lo, hi = d.support().lo, d.support().hi
    assert d.sf(lo) == d.sf(lo - 1.0) == 1.0
    assert d.sf(hi) == d.sf(hi + 1.0) == 0.0


# ---------------------------------------------------------------------------
# discrete conventions: floor cdf, inclusive ceil sf, quantile


@pytest.mark.parametrize(
    "d",
    [Binomial(10, 0.2), Binomial(7, 0.5), Hypergeometric(9, 5, 30), Hypergeometric(9, 5, 40)],
    ids=str,
)
def test_discrete_tail_conventions(d):
    pts = d.support().points()
    for k in pts:
        assert d.cdf(k + 0.7) == d.cdf(k)
        assert d.sf(k + 0.3) == d.sf(k + 1) if k + 1 in pts else True
        # complementary inclusive/exclusive split
        assert d.cdf(k) + d.sf(k + 1) == pytest.approx(1.0, abs=1e-12)
        assert d.cdf(k) + d.sf(k) == pytest.approx(1.0 + d.pdf_or_pmf(k), abs=1e-12)
    assert d.cdf(pts.start - 1) == 0.0
    assert d.sf(pts.stop - 1) == pytest.approx(d.pdf_or_pmf(pts.stop - 1), abs=1e-12)
    assert d.sf(pts.stop) == 0.0
    assert d.sf(pts.stop + 5) == 0.0
    assert d.cdf(pts.stop - 1) == 1.0


def test_discrete_quantile_convention_knife_edge():
    d = Binomial(10, 0.2)
    # exact cdf(2) = 0.677799...; the rounded three-digit weight 0.678 sits
    # just above it, so the two probe points land on different support points
    assert d.quantile(0.6777) == 2.0
    assert d.quantile(0.678) == 3.0
    assert d.quantile(d.cdf(1)) == 1.0
    # above 1/2 the quantile reads sf: the running sum cdf(2) lies just above
    # the exact P(X <= 2), so the exact quantile at that level is 3
    assert Fraction(d.cdf(2)) > sum(binom_pmf_exact(10, 0.2, k) for k in range(3))
    assert d.quantile(d.cdf(2)) == 3.0


@pytest.mark.parametrize("d", [Binomial(12, 0.35), Hypergeometric(8, 6, 20)], ids=str)
def test_discrete_quantile_cdf_round_trip(d):
    pts = d.support().points()
    for k in list(pts)[:-1]:
        if d.cdf(k) <= 0.5:
            assert d.quantile(d.cdf(k)) == float(k)
        else:  # the upper quantiles read sf, where 1 - p is exact
            q = d.quantile(d.cdf(k))
            assert d.sf(q + 1) <= 1.0 - d.cdf(k) < d.sf(q)
    for p in (1e-9, 0.25, 0.5, 0.75, 1 - 1e-12):
        q = d.quantile(p)
        assert d.cdf(q) >= p - 1e-15
        if q > pts.start:
            assert d.cdf(q - 1) < p


def test_discrete_upper_quantile_is_exact_near_one():
    # the smallest k with P(X > k) <= 2^-53, from exact integer tail sums
    n = 20000
    term, tail, k = 1, 1, n  # term = C(n, k), tail = the sum of C(n, j) for j >= k
    while tail <= 2 ** (n - 53):
        term = term * k // (n - k + 1)  # C(n, k - 1)
        tail += term
        k -= 1
    assert k == 10580
    assert Binomial(n, 0.5).quantile(1 - 2.0 ** -53) == float(k)


@pytest.mark.parametrize("d", [Binomial(12, 0.35), Binomial(300, 0.01), Hypergeometric(8, 6, 20),
                               Hypergeometric(90, 150, 300)], ids=str)
def test_discrete_upper_quantile_against_exact_masses(d):
    pts = d.support().points()
    exact = _exact_masses(d)
    for p in (0.5 + 2.0 ** -53, 0.75, 0.99, 1 - 1e-6, 1 - 1e-12, 1 - 2.0 ** -40, 1 - 2.0 ** -53):
        cum = Fraction(0)
        for k, mass in zip(pts, exact):
            cum += mass
            if cum >= Fraction(p):
                break
        assert d.quantile(p) == float(k), p


def test_discrete_pmf_requires_integers():
    with pytest.raises(ValueError):
        Binomial(10, 0.2).pdf_or_pmf(2.5)
    assert Binomial(10, 0.2).pdf_or_pmf(2.0) > 0.0  # integral float is fine
    assert Binomial(10, 0.2).pdf_or_pmf(11) == 0.0  # outside support


# ---------------------------------------------------------------------------
# exact-mass comparisons


@pytest.mark.parametrize("n", [1, 4, 10, 11])
@pytest.mark.parametrize("p", [0.1, 0.2, 0.5])
def test_binomial_pmf_exact(n, p):
    d = Binomial(n, p)
    running = Fraction(0)
    for k in range(n + 1):
        exact = binom_pmf_exact(n, p, k)
        running += exact
        assert d.pdf_or_pmf(k) == pytest.approx(float(exact), abs=1e-14)
        assert d.cdf(k) == pytest.approx(float(running), abs=1e-13)
    assert running == 1


@pytest.mark.parametrize("margins", [(9, 5, 30), (9, 5, 40), (6, 6, 12), (3, 9, 10)])
def test_hypergeometric_pmf_exact(margins):
    r, c, t = margins
    d = Hypergeometric(r, c, t)
    lo = max(0, r + c - t)
    hi = min(r, c)
    assert d.support().points() == range(lo, hi + 1)
    total = Fraction(0)
    for k in range(lo, hi + 1):
        exact = hyper_pmf_exact(r, c, t, k)
        total += exact
        assert d.pdf_or_pmf(k) == pytest.approx(float(exact), abs=1e-14)
    assert total == 1


def test_mass_normalization_and_top_cdf():
    for d in (
        Binomial(25, 0.07),
        Binomial(40, 0.5),
        Hypergeometric(12, 9, 26),
        NoncentralHypergeometric(12, 9, 26, 3.7),
    ):
        pts = d.support().points()
        assert math.fsum(d.pdf_or_pmf(k) for k in pts) == pytest.approx(1.0, abs=1e-12)
        assert d.cdf(pts.stop - 1) == 1.0


def _mass_and_tails(d):
    points = d.support().points()
    return ([d.pdf_or_pmf(k) for k in points], [d.cdf(k) for k in points],
            [d.sf(k) for k in points])


def test_noncentral_odds_one_matches_central():
    # the central law is the odds-1 noncentral law, float for float
    rng = random.Random(20260)
    margins = [(9, 5, 30), (9, 5, 40), (7, 11, 20)]
    for _ in range(4):
        total = rng.randint(1, 3000)
        margins.append((rng.randint(0, total), rng.randint(0, total), total))
    for m in margins:
        assert (_mass_and_tails(NoncentralHypergeometric(*m, odds=1.0))
                == _mass_and_tails(Hypergeometric(*m))), m


def test_central_hypergeometric_takes_only_the_margins():
    assert "odds" not in inspect.signature(Hypergeometric).parameters
    odds = inspect.signature(NoncentralHypergeometric).parameters["odds"]
    assert odds.default is inspect.Parameter.empty
    with pytest.raises(TypeError):
        NoncentralHypergeometric(9, 5, 30)
    assert repr(Hypergeometric(9, 5, 30)) == "Hypergeometric(row1=9, col1=5, total=30)"
    assert Hypergeometric(9, 5, 30) != NoncentralHypergeometric(9, 5, 30, 1.0)


def test_noncentral_pmf_against_direct_tilting():
    r, c, t, rho = 9, 5, 30, 2.5
    d = NoncentralHypergeometric(r, c, t, rho)
    lo, hi = max(0, r + c - t), min(r, c)
    raw = [math.comb(r, k) * math.comb(t - r, c - k) * rho**k for k in range(lo, hi + 1)]
    norm = math.fsum(raw)
    for k in range(lo, hi + 1):
        assert d.pdf_or_pmf(k) == pytest.approx(raw[k - lo] / norm, rel=1e-12)
    # the mean shifts up for odds > 1
    assert d.mean() > Hypergeometric(r, c, t).mean()


# ---------------------------------------------------------------------------
# modes


def test_two_mode_families(capsys):
    from twoside import cli

    assert Binomial(4, 0.2).mode_set() == [0.0, 1.0]
    assert Binomial(9, 0.5).mode_set() == [4.0, 5.0]
    assert Hypergeometric(5, 5, 10).mode_set() == [2.0, 3.0]
    # two masses that differ only by rounding are tied within dist._TIE_TOL
    assert Binomial(4, 0.4).mode_set() == [1.0, 2.0]
    assert Binomial(9, 0.3).mode_set() == [2.0, 3.0]
    assert cli.main(["pvalue", "--dist", "binom:4,0.4", "--x", "1", "--anchor", "mode"]) == 3
    assert "mode is not unique" in capsys.readouterr().err


@pytest.mark.parametrize("p", [0.1, 0.2, 0.5, 0.77])
def test_binomial_mode_closed_form(p):
    for n in range(1, 26):
        modes = Binomial(n, p).mode_set()
        m = math.floor((n + 1) * p)
        assert float(min(m, n)) in modes
        assert len(modes) <= 2
        assert all(abs(v - m) <= 1 for v in modes)


def test_hypergeometric_mode_closed_form():
    for r, c, t in [(9, 5, 30), (9, 5, 40), (10, 10, 20), (4, 17, 23), (6, 6, 12)]:
        modes = Hypergeometric(r, c, t).mode_set()
        m = math.floor((r + 1) * (c + 1) / (t + 2))
        assert float(m) in modes
        assert len(modes) <= 2


def test_mean_within_one_of_mode():
    for d in (
        Binomial(10, 0.2),
        Binomial(11, 0.2),
        Binomial(33, 0.5),
        Hypergeometric(9, 5, 30),
        Hypergeometric(9, 5, 40),
        Hypergeometric(13, 11, 29),
    ):
        mean = d.mean()
        assert min(abs(mean - mode) for mode in d.mode_set()) < 1.0


def test_uniform_mode_not_unique():
    with pytest.raises(ValueError, match="mode is not unique"):
        Uniform(0.0, 1.0).mode_set()


# ---------------------------------------------------------------------------
# continuous families


@pytest.mark.parametrize(
    "d",
    [ChiSquare(5), ChiSquare(1), FRatio(5, 11), FRatio(2, 2), Uniform(-1, 3),
     Triangular(1.0, 2.0), TruncatedNormal(0.5)],
    ids=str,
)
def test_continuous_quantile_cdf_round_trip(d):
    for p in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-9):
        x = d.quantile(p)
        assert d.cdf(x) == pytest.approx(p, abs=1e-10)
    with pytest.raises(ValueError):
        d.quantile(0.0)
    with pytest.raises(ValueError):
        d.quantile(1.0)


@pytest.mark.parametrize(
    "d", [ChiSquare(5), FRatio(5, 11), Triangular(2.0, 3.0), TruncatedNormal(0.7)], ids=str
)
def test_continuous_cdf_sf_complement(d):
    for p in (0.03, 0.2, 0.5, 0.9, 0.999):
        x = d.quantile(p)
        assert d.cdf(x) + d.sf(x) == pytest.approx(1.0, abs=1e-12)


def test_triangular_exact_shapes():
    for a, b in [(1.0, 2.0), (0.5, 3.5), (2.0, 2.0)]:
        tri = Triangular(a, b)
        assert tri.cdf(0.0) == a / (a + b)  # exact, not approximate
        assert tri.mean() == pytest.approx((b - a) / 3.0, abs=1e-15)
        assert tri.mode_set() == [0.0]
        assert tri.support().lo == -a and tri.support().hi == b
        assert tri.pdf_or_pmf(-a) == 0.0 and tri.pdf_or_pmf(b) == 0.0
        assert tri.pdf_or_pmf(0.0) == pytest.approx(2.0 / (a + b), rel=1e-14)
        assert tri.cdf(-a - 1) == 0.0 and tri.cdf(b + 1) == 1.0


def test_uniform_shapes():
    u = Uniform(2.0, 6.0)
    assert u.cdf(3.0) == 0.25
    assert u.quantile(0.25) == 3.0
    assert u.mean() == 4.0
    assert u.pdf_or_pmf(5.0) == 0.25
    assert u.pdf_or_pmf(7.0) == 0.0


def test_f_ratio_moments_and_mode():
    assert FRatio(5, 11).mean() == pytest.approx(11.0 / 9.0, rel=1e-14)
    with pytest.raises(ValueError, match="denominator df <= 2"):
        FRatio(5, 2).mean()
    assert FRatio(5, 11).mode_set() == [pytest.approx((3.0 / 5.0) * (11.0 / 13.0))]
    assert FRatio(1, 11).mode_set() == [0.0]
    # reciprocal symmetry of the equal-df family: P(F <= 1/q) = P(F >= q)
    d = FRatio(7, 7)
    for q in (1.7, 2.9):
        assert d.cdf(1.0 / q) == pytest.approx(d.sf(q), abs=1e-12)


@pytest.mark.parametrize("x", [4e307, 1e308, sys.float_info.max])
def test_f_ratio_cdf_is_one_where_d1_x_overflows(x):
    # d1*x/(d1*x + d2) would be inf/inf; the cdf is 1 to the last float
    assert FRatio(5, 10).cdf(x) == 1.0
    assert FRatio(5, 10).sf(x) == 0.0
    with pytest.raises(ValueError, match="got nan"):
        FRatio(5, 10).cdf(math.nan)  # NaN is no overflow


def test_chi_square_small_df_density_limits():
    assert ChiSquare(2).pdf_or_pmf(0.0) == 0.5
    assert math.isinf(ChiSquare(1).pdf_or_pmf(0.0))
    assert ChiSquare(5).pdf_or_pmf(0.0) == 0.0


@pytest.mark.parametrize("d", [ChiSquare(5), FRatio(5, 10), Uniform(0.0, 1.0),
                               Triangular(1.0, 2.0), TruncatedNormal(0.5)], ids=str)
def test_density_is_zero_outside_the_support(d):
    sup = d.support()
    for x in (sup.lo - 1.0, sup.hi + 1.0):
        if math.isfinite(x):
            assert d.pdf_or_pmf(x) == 0.0


# ---------------------------------------------------------------------------
# parameter validation and Support behavior


def test_parameter_validation():
    for bad in (lambda: ChiSquare(0), lambda: FRatio(0, 3), lambda: FRatio(3, -1),
                lambda: Uniform(1.0, 1.0), lambda: Triangular(0.0, 1.0),
                lambda: Triangular(1.0, math.inf), lambda: TruncatedNormal(0.0),
                lambda: TruncatedNormal(-0.5), lambda: Binomial(0, 0.5),
                lambda: Binomial(10, 0.0), lambda: Binomial(10, 1.0),
                lambda: Hypergeometric(9, 5, 0), lambda: Hypergeometric(31, 5, 30),
                lambda: NoncentralHypergeometric(9, 5, 30, 0.0),
                lambda: NoncentralHypergeometric(9, 5, 30, -2.0)):
        with pytest.raises(ValueError):
            bad()


def test_laws_of_huge_finite_width():
    # no product or sum of the parameters may overflow on the way
    assert Uniform(1e308, 1.5e308).mean() == 1.25e308
    tri = Triangular(1e200, 3e200)
    assert tri.quantile(0.25) == pytest.approx(1e200 * Triangular(1.0, 3.0).quantile(0.25),
                                               rel=1e-15)
    assert tri.quantile(0.75) == pytest.approx(1e200 * Triangular(1.0, 3.0).quantile(0.75),
                                               rel=1e-15)
    assert tri.pdf_or_pmf(1e200) == pytest.approx(1e-200 * Triangular(1.0, 3.0).pdf_or_pmf(1.0),
                                                  rel=1e-15)
    for bad in (lambda: Uniform(-1e308, 1e308), lambda: Triangular(1e308, 1e308)):
        with pytest.raises(ValueError, match="finite width"):
            bad()


def test_support_object():
    s = Support(0.0, 5.0, True)
    assert s.points() == range(0, 6)
    assert s.contains(3.0) and not s.contains(5.5)
    with pytest.raises(TypeError):
        Support(0.0, 1.0, False).points()


def test_hypergeometric_support_lower_bound():
    d = Hypergeometric(9, 25, 30)
    assert d.support().points() == range(4, 10)
    assert d.pdf_or_pmf(3) == 0.0
    assert d.cdf(3) == 0.0


# ---------------------------------------------------------------------------
# windowed tables: the tables cover a window around the mode, cut where the
# weights underflow; outside it the mass is 0 and the tails are constant


def test_outside_window_semantics():
    n = 20000
    d = Binomial(n, 0.5)
    window = _discrete_tables(d)[0]
    assert window.first > 100 and window.first + len(window.pmf) - 1 < n - 100
    for k in [*range(0, 101), *range(n - 100, n + 1)]:
        assert d.pdf_or_pmf(k) == 0.0
    assert d.sf(0) == 1.0
    for k in range(0, 101):
        assert d.cdf(k) == 0.0
    for k in range(1, 101):
        # as in a full-support table: the running sum at the window's start
        assert d.sf(k) == window.sf[0] == pytest.approx(1.0, abs=1e-15)
    for k in range(n - 100, n):
        assert d.cdf(k) == window.cdf[-1] == pytest.approx(1.0, abs=1e-15)
        assert d.sf(k + 1) == 0.0
    assert d.cdf(n) == 1.0
    # the smallest point whose upper tail beyond it is at most 1 - p
    p = 1 - 2**-53
    q = d.quantile(p)
    assert d.sf(q + 1) <= 1 - p < d.sf(q)


def test_support_ends_build_no_table():
    # cdf and sf answer at and past the support ends before reading a table,
    # so a law too wide to tabulate still answers there
    d = Binomial(10**12, 0.5)
    _discrete_tables.cache_clear()
    assert (d.cdf(-1.0), d.sf(-1.0), d.cdf(1e12), d.sf(1e12 + 1)) == (0.0, 1.0, 1.0, 0.0)
    assert _discrete_tables.cache_info().misses == 0


def _exact_masses(d) -> list[Fraction]:
    lo, hi = int(d.support().lo), int(d.support().hi)
    if isinstance(d, Binomial):
        return [binom_pmf_exact(d.n, d.p, k) for k in range(lo, hi + 1)]
    odds = Fraction(getattr(d, "odds", 1.0))
    raw = [math.comb(d.row1, k) * math.comb(d.total - d.row1, d.col1 - k) * odds**k
           for k in range(lo, hi + 1)]
    norm = sum(raw)
    return [v / norm for v in raw]


@pytest.mark.parametrize(
    "d, modes",
    [
        (Hypergeometric(5, 5, 5), [5.0]),
        (Binomial(1, 0.3), [0.0]),
        (Binomial(40, 1e-9), [0.0]),
        (Binomial(40, 1 - 1e-9), [40.0]),
        (NoncentralHypergeometric(30, 40, 100, 1e-6), [0.0]),
        (NoncentralHypergeometric(30, 40, 100, 1e6), [30.0]),
    ],
    ids=str,
)
def test_edge_supports(d, modes):
    lo, hi = int(d.support().lo), int(d.support().hi)
    exact = _exact_masses(d)
    running = Fraction(0)
    for k, mass in zip(range(lo, hi + 1), exact):
        running += mass
        got = d.pdf_or_pmf(k)
        if mass < 1e-300:
            assert got == pytest.approx(float(mass), abs=1e-300)
        else:
            assert got == pytest.approx(float(mass), rel=1e-13)
        assert d.cdf(k) == pytest.approx(float(running), rel=1e-13, abs=1e-300)
    assert d.mode_set() == modes
    assert d.cdf(hi) == 1.0 and d.sf(lo) == 1.0
    assert d.median() == modes[0]


def test_window_is_bounded_for_large_supports():
    # the full support has 2 * 10**7 + 1 points; weights stop where they
    # underflow or stop shrinking among the subnormals
    assert len(_build_tables(Binomial(20_000_000, 0.5)).pmf) < 200_000


@pytest.mark.parametrize("d, wide", [
    (Binomial(10**6, 1e-5), "right"),      # Poisson(10)-like: 293 points right, 10 left
    (Binomial(10**6, 1 - 1e-5), "left"),   # its mirror: the support ends 10 right
    (Binomial(2000, 0.5), "both"),
    (Binomial(10**6, 1e-12), None),        # 45 points, in a support of 10**6 + 1
], ids=str)
def test_window_past_the_side_cap_is_refused(monkeypatch, d, wide):
    t = _build_tables(d)
    sides = {"left": t.mode, "right": len(t.pmf) - 1 - t.mode}
    assert [side for side, size in sides.items() if size > 100] == (
        ["left", "right"] if wide == "both" else [wide] if wide else [])
    monkeypatch.setattr(dist, "_MAX_SIDE", 100)
    if wide is None:
        assert tuple(_build_tables(d)) == tuple(t)
        return
    # the refusal comes before any walk, the core's too
    for build in (_build_tables, _discrete_tables.__wrapped__,
                  lambda d: _build_tables(d, dist._FLOOR)):
        with pytest.raises(ValueError) as caught:
            build(d)
        assert str(caught.value) == (f"{d!r} has mass on more than 100 points on one side "
                                     "of its mode; the tables hold at most 100")


def test_binomial_tail_against_high_precision_reference():
    # 40-digit mpmath value for the exact binary parameter 0.5597
    ref = 8.1545579575038013042e-05
    assert Binomial(10975, 0.5597).sf(6339) == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# property sweeps


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.01, max_value=0.99),
    data=st.data(),
)
def test_binomial_tail_identities(n, p, data):
    d = Binomial(n, p)
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert d.cdf(k) + d.sf(k) == pytest.approx(1.0 + d.pdf_or_pmf(k), abs=1e-12)
    assert 0.0 <= d.cdf(k) <= 1.0
    if k < n:
        assert d.cdf(k) <= d.cdf(k + 1) + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=2, max_value=40),
    data=st.data(),
)
def test_hypergeometric_exact_against_fraction(total, data):
    row1 = data.draw(st.integers(min_value=1, max_value=total - 1))
    col1 = data.draw(st.integers(min_value=1, max_value=total - 1))
    d = Hypergeometric(row1, col1, total)
    pts = d.support().points()
    k = data.draw(st.sampled_from(list(pts)))
    assert d.pdf_or_pmf(k) == pytest.approx(
        float(hyper_pmf_exact(row1, col1, total, k)), abs=1e-13
    )


def test_median_definition():
    for d in (Binomial(10, 0.2), Hypergeometric(9, 5, 30)):
        m = d.median()
        assert d.cdf(m) >= 0.5
        assert d.cdf(m - 1) < 0.5
    c = ChiSquare(5)
    assert c.cdf(c.median()) == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# table builder against the straightforward one: the same floats


def _reference_ratio(d):
    """pmf(k + 1) / pmf(k) as a per-point call, one expression per family."""
    if isinstance(d, Binomial):
        return lambda k: (d.n - k) * d.p / ((k + 1) * (1.0 - d.p))

    def hyper(k):
        return (d.row1 - k) * (d.col1 - k) / ((k + 1) * (d.total - d.row1 - d.col1 + k + 1))

    if isinstance(d, NoncentralHypergeometric):
        return lambda k: hyper(k) * d.odds
    return hyper


def _reference_tables(d):
    """(first, mode, pmf, cdf, sf) by a ratio call per step, fsum and min clamps."""
    lo, hi = d._bounds()
    ratio = _reference_ratio(d)
    mode = lo + bisect_left(range(lo, hi), True, key=lambda k: ratio(k) <= 1.0)
    right = []
    w = 1.0
    for k in range(mode, hi):
        nxt = w * min(1.0, ratio(k))
        if nxt == 0.0 or (nxt == w and right):
            break
        right.append(nxt)
        w = nxt
    left = []
    w = 1.0
    for k in range(mode - 1, lo - 1, -1):
        nxt = w / max(1.0, ratio(k))
        if nxt == 0.0 or (nxt == w and left):
            break
        left.append(nxt)
        w = nxt
    left.reverse()
    raw = left + [1.0] + right
    total = math.fsum(raw)
    pmf = [v / total for v in raw]
    cdf = [min(v, 1.0) for v in accumulate(pmf)]
    sf = [min(v, 1.0) for v in accumulate(reversed(pmf))]
    sf.reverse()
    return (mode - len(left), len(left), pmf, cdf, sf)


def _seeded_laws(count: int, seed: int = 20081):
    """Binomial, central and noncentral hypergeometric laws with supports
    log-uniform in 2..5e4, p near 0, near 1 and inside, odds in 1e-2..1e2."""
    rng = random.Random(seed)
    laws = []
    for i in range(count):
        size = int(math.exp(rng.uniform(math.log(2), math.log(5e4))))
        kind = i % 3
        if kind == 0:
            tiny = 10.0 ** rng.uniform(-9, -6)
            p = (tiny, 1.0 - tiny, rng.uniform(0.001, 0.999))[i // 3 % 3]
            laws.append(Binomial(size - 1, p))
            continue
        row1 = size - 1
        col1 = rng.randint(row1, 3 * row1 + 1)
        total = rng.randint(col1, row1 + col1 + 3 * row1 + 1)
        if rng.random() < 0.5:
            row1, col1 = col1, row1
        if kind == 1:
            laws.append(Hypergeometric(row1, col1, total))
        else:
            laws.append(NoncentralHypergeometric(row1, col1, total, 10.0 ** rng.uniform(-2, 2)))
    return laws


def _assert_same_tables(d):
    t = _build_tables(d)
    assert tuple(t[:5]) == _reference_tables(d)
    # the full window serves every query
    assert (t.cdf_from, t.sf_to, t.left_out, t.right_out) == (0, len(t.pmf) - 1, 0.0, 0.0)


def test_tables_match_reference_builder_on_seeded_laws():
    laws = _seeded_laws(330)
    spans = [int(d.support().hi - d.support().lo) + 1 for d in laws]
    assert min(spans) <= 3 and max(spans) >= 20_000
    for d in laws:
        _assert_same_tables(d)


_EDGE_LAWS = [
    Hypergeometric(0, 5, 10),      # a single support point
    Binomial(10, 1e-6),            # mode on the lower bound
    Binomial(10, 1 - 1e-6),        # mode on the upper bound
    Binomial(3, 0.5),              # two tied modes
    NoncentralHypergeometric(30, 40, 100, 1e-6),
    Binomial(5, 1e-9),             # the core drops the last support point
    Binomial(20_000_000, 0.5),     # a window inside a huge support
]


@pytest.mark.parametrize("d", _EDGE_LAWS, ids=str)
def test_tables_match_reference_builder_at_edges(d):
    _assert_same_tables(d)


def test_noncentral_mean_is_the_fsum_of_the_table():
    for d in _seeded_laws(60, seed=7)[2::3]:
        t = _build_tables(d)
        assert d.mean() == math.fsum((t.first + i) * v for i, v in enumerate(t.pmf))


# ---------------------------------------------------------------------------
# the core window: every float it serves is the full window's


def _reference_query(ref, kind: str, k: int) -> float:
    """The mass, P(X <= k) or P(X >= k) at any support point k, from
    (first, mode, pmf, cdf, sf) of ``_reference_tables``."""
    first, _, pmf, cdf, sf = ref
    i = k - first
    if kind == "mass":
        return pmf[i] if 0 <= i < len(pmf) else 0.0
    if kind == "lower":
        return cdf[min(i, len(cdf) - 1)] if i >= 0 else 0.0
    return sf[max(i, 0)] if i < len(sf) else 0.0


def _assert_core_serves_the_reference(d) -> int:
    """Check every point query the core serves, a few points past the full
    window included, and its quantiles and mass_at_most against the full
    window's; return the core's length."""
    core = _build_tables(d, dist._FLOOR)
    full = _build_tables(d)
    ref = _reference_tables(d)
    lo, hi = d._bounds()
    last = ref[0] + len(ref[2]) - 1
    for k in range(max(lo, ref[0] - 3), min(hi, last + 3) + 1):
        for kind in ("mass", "lower", "upper"):
            got = getattr(core, kind)(k)
            assert got is None or got == _reference_query(ref, kind, k), (kind, k)
    for p in (1e-300, 1e-12, 1e-6, 0.3, 0.5, 0.7, 1 - 1e-6, 1 - 2**-53):
        got = core.quantile(p)
        assert got is None or got == full.quantile(p)
    for v in (*core.pmf[:: max(1, len(core.pmf) // 16)], 0.0, 2.0**-121, 1.0):
        got = core.mass_at_most(v)
        assert got is None or got == full.mass_at_most(v)
    got = core.mean(hi)
    assert got is None or got == full.mean(hi)
    return len(core.pmf)


def test_core_serves_the_full_windows_floats_on_seeded_laws():
    core = sum(_assert_core_serves_the_reference(d) for d in _seeded_laws(330))
    full = sum(len(_build_tables(d).pmf) for d in _seeded_laws(330))
    # the saving itself: the core walks at most 0.45 of the points (100,608
    # of 285,162 when this was written)
    assert core <= 0.45 * full


@pytest.mark.parametrize("d", _EDGE_LAWS, ids=str)
def test_core_serves_the_full_windows_floats_at_edges(d):
    _assert_core_serves_the_reference(d)


def _cached(d):
    return _discrete_tables(d)[0]


@pytest.mark.parametrize("query, d, arg", [
    ("cdf", Binomial(2000, 0.5), 0),
    ("sf", Binomial(2000, 0.5), 2000),
    ("pdf_or_pmf", Binomial(2000, 0.5), 0),
    ("pdf_or_pmf", Binomial(2000, 0.5), 2000),
    ("cdf", Hypergeometric(2000, 2000, 6000), 79),
    ("sf", Hypergeometric(2000, 2000, 6000), 1000),
    ("pdf_or_pmf", Hypergeometric(2000, 2000, 6000), 79),
    ("quantile", Hypergeometric(2000, 2000, 6000), 1e-300),
    ("quantile", Hypergeometric(2000, 2000, 6000), 1e-30),
    ("mass_at_most", Hypergeometric(2000, 2000, 6000), 1e-300),
], ids=str)
def test_reads_past_the_core_swap_in_the_full_window(query, d, arg):
    _discrete_tables.cache_clear()
    full = _build_tables(d)
    assert _cached(d) != full   # the core is cached first
    got = getattr(d, query)(arg)
    assert _cached(d) == full   # the full window replaces it
    assert getattr(d, query)(arg) == got
    ref = _reference_tables(d)
    if query == "cdf":
        assert got == _reference_query(ref, "lower", arg)
    elif query == "sf":
        assert got == _reference_query(ref, "upper", arg)
    elif query == "pdf_or_pmf":
        assert got == _reference_query(ref, "mass", arg)
    elif query == "quantile":
        assert got == full.quantile(arg)
    else:
        assert got == full.mass_at_most(arg)


@pytest.mark.parametrize("d", [Hypergeometric(2000, 2000, 6000), Binomial(40, 0.5)], ids=str)
def test_full_tables_swaps_the_full_window_into_the_cached_slot(d):
    # the second law's core leaves nothing out, so it is the full window
    _discrete_tables.cache_clear()
    t = d._read(_Tables.full, None)
    assert t == _build_tables(d)
    assert _cached(d) is t
    assert _discrete_tables.cache_info().misses == 1


def test_noncentral_mean_swaps_in_the_full_window_when_the_core_cannot_decide(monkeypatch):
    # a higher floor widens the mean's omitted bound past its rounding
    monkeypatch.setattr(dist, "_FLOOR", 2.0**-50)
    _discrete_tables.cache_clear()
    d = NoncentralHypergeometric(20, 60, 400, 0.5)
    core = _cached(d)
    assert core.right_out and core.mean(d._bounds()[1]) is None
    t = _build_tables(d)
    assert d.mean() == math.fsum((t.first + i) * v for i, v in enumerate(t.pmf))
    assert _cached(d) == t


@pytest.mark.parametrize("patch, d", [
    (("_FLOOR", 2.0**-30), Binomial(20, 0.3)),       # the total is not decided
    (("_MAX_LEFT_OUT", 0), Binomial(2000, 0.5)),    # no side has a bound
], ids=str)
def test_core_that_cannot_prove_its_floats_is_not_cached(monkeypatch, patch, d):
    monkeypatch.setattr(dist, *patch)
    _discrete_tables.cache_clear()
    assert _build_tables(d, dist._FLOOR) is None
    assert _cached(d) == _build_tables(d)


@pytest.mark.parametrize("spec, d", [
    ("binom:2000,0.3", Binomial(2000, 0.3)),
    ("binom:50000,0.01", Binomial(50000, 0.01)),
    ("hyper:2000,2000,6000", Hypergeometric(2000, 2000, 6000)),
    ("hyper:50,57,270", Hypergeometric(50, 57, 270)),
    ("nchyper:300,500,2000,2.5", NoncentralHypergeometric(300, 500, 2000, 2.5)),
    ("nchyper:5000,8000,30000,0.4", NoncentralHypergeometric(5000, 8000, 30000, 0.4)),
], ids=str)
def test_every_method_within_five_sd_reads_only_the_core(monkeypatch, capsys, spec, d):
    from twoside import cli, specfun

    xs = sorted({int(d.quantile(specfun.norm_cdf(z))) for z in (-5, -3, -1, 0, 1, 3, 5)})
    builds = []
    build = dist._build_tables

    def counted(law, floor=0.0):
        builds.append(floor)
        return build(law, floor)

    monkeypatch.setattr(dist, "_build_tables", counted)
    for x in xs:
        _discrete_tables.cache_clear()
        assert cli.main(["pvalue", "--dist", spec, "--x", str(x), "--method", "all"]) == 0
    capsys.readouterr()
    assert builds == [dist._FLOOR] * len(xs)


def test_core_holds_the_whole_law_where_no_weight_falls_below_the_floor():
    d = Binomial(40, 0.5)
    assert _build_tables(d, dist._FLOOR) == _build_tables(d)


def test_exact_sum_falls_back_when_the_tail_decides_the_rounding():
    values = [1.0, 2.0**-53, 2.0**-200]
    # the core alone sits on a tie that rounds to 1; the tiny value breaks it
    assert math.fsum(values[:2]) == 1.0
    assert _exact_sum(values) == math.fsum(values) == 1.0 + 2.0**-52


@pytest.mark.parametrize(
    "values",
    [
        [0.0],
        [0.0, 0.0, 0.0],
        [5e-324, 1e-320, 2.2e-308, 3e-315],          # all subnormal
        [0.0, 5e-324, 4e-323],                       # subnormal maximum
        [2.0**-960, 2.0**-1060, 3 * 2.0**-1070, 5e-324],  # subnormal cut
        [1.0, 2.0**-60, 2.0**-120, 2.0**-900, 0.0],
    ],
    ids=str,
)
def test_exact_sum_equals_fsum_at_the_edges(values):
    assert _exact_sum(values) == math.fsum(values)


_SPREAD_FLOATS = st.one_of(
    st.floats(min_value=0.0, max_value=2.0**1000, allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
              st.integers(min_value=-1074, max_value=1000)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SPREAD_FLOATS, min_size=1, max_size=60))
def test_exact_sum_equals_fsum(values):
    assert _exact_sum(values) == math.fsum(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SPREAD_FLOATS, min_size=1, max_size=60), _SPREAD_FLOATS)
def test_exact_sum_with_omitted_mass_is_exact_or_undecided(values, omitted):
    got = _exact_sum(values, omitted)
    assert got is None or got == math.fsum([*values, 0.0]) == math.fsum([*values, omitted])


def test_exact_sum_reports_an_undecided_total():
    # 1 + 2**-52 and 1 are both sums of 1 and a mass in [0, 2**-52]
    assert _exact_sum([1.0], 2.0**-52) is None
    # past the cut the core alone is not decided, but the whole sum is
    values = [1.0, 2.0**-53, 2.0**-200]
    assert _exact_sum(values, 2.0**-300) == 1.0 + 2.0**-52
