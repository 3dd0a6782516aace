"""End-user statistical test layer.

Discrete tests are validated against exact rational tail sums; the 2x2
table statistics are validated against inline re-derivations of their
formulas, and the table orderings against exhaustively hand-checked margin
families.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from twoside.dist import Binomial, ChiSquare, Hypergeometric
from twoside.pvalue import p_conditional
from twoside.stattests import (
    DAVIS_STATISTIC_IDS,
    ContingencyTable,
    davis_ordering,
    davis_statistics,
    binomial_test,
    f_test,
    fisher_exact,
    glr_statistic,
    variance_test,
    variance_test_from_sample,
)


def binom_tail_fraction(n: int, p: float, lo: int, hi: int) -> Fraction:
    fp = Fraction(p)
    return sum(math.comb(n, k) * fp**k * (1 - fp) ** (n - k) for k in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# variance test


def test_variance_test_golden():
    r = variance_test(0.2, 6, 1.0)
    assert r.statistic == pytest.approx(1.0, abs=1e-15)
    assert r.p_left == pytest.approx(0.0374, abs=5e-5)
    assert r.anchor == 5.0
    assert r.direction == "below"

    r2 = variance_test(0.1, 6, 1.0)
    assert r2.statistic == pytest.approx(0.5)
    assert r2.p_two_sided["conditional"] == pytest.approx(0.0135, abs=5e-5)

    r3 = variance_test(1.0, 6, 1.0)
    assert r3.statistic == 5.0
    assert r3.p_two_sided["conditional"] == 1.0
    assert r3.direction == "at"


def test_variance_test_report_contents():
    r = variance_test(0.2, 6, 1.0)
    assert set(r.p_two_sided) == {"doubled", "conditional", "min_likelihood"}
    for v in r.p_two_sided.values():
        assert 0.0 < v <= 1.0
    assert 0.0 <= r.p_left <= 1.0 and 0.0 <= r.p_right <= 1.0
    assert r.p_left + r.p_right == pytest.approx(1.0, abs=1e-12)
    assert r.weights.w_left == pytest.approx(ChiSquare(5).cdf(5.0), abs=1e-12)
    only = variance_test(0.2, 6, 1.0, methods=["doubled"])
    assert list(only.p_two_sided) == ["doubled"]


def test_variance_test_validation():
    with pytest.raises(ValueError):
        variance_test(0.0, 6, 1.0)
    with pytest.raises(ValueError):
        variance_test(0.2, 1, 1.0)
    with pytest.raises(ValueError):
        variance_test(0.2, 6, 0.0)
    with pytest.raises(ValueError):
        variance_test(0.2, 6.0, 1.0)  # n must be an integer count
    with pytest.raises(ValueError):
        variance_test(0.2, 6, 1.0, methods=["smallest"])


def test_variance_test_from_sample():
    sample = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]  # unbiased variance 3.5
    r = variance_test_from_sample(sample, 2.0)
    assert r.statistic == pytest.approx(5 * 3.5 / 2.0, rel=1e-15)
    direct = variance_test(3.5, 6, 2.0)
    assert r.p_two_sided == direct.p_two_sided
    with pytest.raises(ValueError, match="two observations"):
        variance_test_from_sample([1.0], 1.0)


@pytest.mark.parametrize("sample, message", [
    ([1.0, math.nan, 3.0], "observation 2 must be finite, got nan"),
    ([1.0, 2.0, math.inf], "observation 3 must be finite, got inf"),
    ([-math.inf, 2.0], "observation 1 must be finite, got -inf"),
])
def test_variance_test_from_sample_names_a_non_finite_observation(sample, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        variance_test_from_sample(sample, 1.0)


@pytest.mark.parametrize("sample", [[1e308, -1e308], [1e308, 1e308, -1e308]])
def test_variance_test_from_sample_overflowing_variance_is_a_domain_error(sample):
    # statistics.variance raises OverflowError; the test reports a ValueError
    with pytest.raises(ValueError, match="sample variance .* overflows"):
        variance_test_from_sample(sample, 1.0)


class _LogImage:
    """Distribution of log(X) for a positive-support base distribution."""

    is_discrete = False

    def __init__(self, base):
        self._base = base

    def cdf(self, y: float) -> float:
        return self._base.cdf(math.exp(y))

    def sf(self, y: float) -> float:
        return self._base.sf(math.exp(y))


def test_variance_test_invariant_under_log_transform():
    # judging the statistic through |log(s^2/sigma0^2)| is the same test:
    # the conditional p-value of log(X) anchored at log(E) is unchanged
    for s2 in (0.1, 0.2, 0.9, 1.7):
        r = variance_test(s2, 6, 1.0)
        img = _LogImage(ChiSquare(5))
        transformed = p_conditional(img, math.log(r.statistic), math.log(5.0))
        assert transformed == pytest.approx(r.p_two_sided["conditional"], abs=1e-10)


def test_variance_test_scale_invariance():
    a = variance_test(0.2, 6, 1.0)
    b = variance_test(2.0, 6, 10.0)
    assert a.statistic == b.statistic
    assert a.p_two_sided == b.p_two_sided


# ---------------------------------------------------------------------------
# variance-ratio test


def test_f_test_statistic_and_median_anchor():
    r = f_test(1.3, 6, 1.3, 6, anchor="median")
    assert r.statistic == 1.0
    assert r.p_two_sided["doubled"] == pytest.approx(r.p_two_sided["conditional"], abs=1e-9)
    r2 = f_test(2.0, 6, 1.0, 12)
    assert r2.statistic == 2.0
    assert r2.anchor == pytest.approx(11.0 / 9.0, rel=1e-12)
    for v in r2.p_two_sided.values():
        assert 0.0 < v <= 1.0


def test_f_test_validation():
    with pytest.raises(ValueError):
        f_test(1.0, 1, 1.0, 6)
    with pytest.raises(ValueError):
        f_test(-1.0, 6, 1.0, 6)
    with pytest.raises(ValueError):
        f_test(1.0, 6, 0.0, 6)
    # the mean anchor needs denominator df > 2
    with pytest.raises(ValueError, match="denominator df"):
        f_test(1.0, 6, 1.0, 3)
    assert f_test(1.0, 6, 1.0, 3, anchor="median").statistic == 1.0


@pytest.mark.parametrize("test, args, message", [
    (variance_test, (1e308, 5, 1e-308),
     "the statistic (n - 1) * s2 / sigma0_sq overflows for n=5, s2=1e+308, sigma0_sq=1e-308"),
    (f_test, (1e308, 5, 1e-308, 6),
     "the statistic s1_sq / s2_sq overflows for s1_sq=1e+308, s2_sq=1e-308"),
    (f_test, (0.5, 1000, 5e-324, 1000),
     "the statistic s1_sq / s2_sq overflows for s1_sq=0.5, s2_sq=5e-324"),
], ids=["variance-huge-over-tiny", "f-huge-over-tiny", "f-over-subnormal"])
def test_an_overflowing_statistic_is_a_domain_error(test, args, message):
    # finite inputs whose ratio overflows: the kernels would get inf
    with pytest.raises(ValueError) as raised:
        test(*args)
    assert str(raised.value) == message


def test_variance_statistic_survives_an_overflowing_product():
    # (n - 1) * s2 overflows but the statistic is representable: the ratio
    # is taken first instead, and the test goes on
    r = variance_test(1.7e308, 3, 2.0)
    assert r.statistic == 1.7e308
    assert r.p_right == 0.0
    for p in (r.p_left, r.p_right, *r.p_two_sided.values()):
        assert 0.0 <= p <= 1.0
    # a finite product keeps the bits of the original expression
    for s2, n, sigma0_sq in [(0.2, 6, 1.0), (1.05, 2001, 1.0), (3.7e-300, 17, 9e-301),
                             (8.9e307, 2, 0.5), (1.3, 10_000_000, 7.1)]:
        assert variance_test(s2, n, sigma0_sq).statistic == (n - 1) * s2 / sigma0_sq


# ---------------------------------------------------------------------------
# binomial test


def test_binomial_test_golden_quadruple():
    r = binomial_test(5, 10, 0.2)
    assert r.p_two_sided["min_likelihood"] == pytest.approx(0.033, abs=5e-4)
    assert r.p_two_sided["doubled"] == pytest.approx(0.066, abs=5e-4)
    # exact conditional value: P(X>=5)/P(X>=2) = 0.0525377...; a three-digit
    # truncation gives .052 though correct rounding gives .053, so the exact
    # rational value is the anchor here
    exact_pc = binom_tail_fraction(10, 0.2, 5, 10) / binom_tail_fraction(10, 0.2, 2, 10)
    assert float(exact_pc) == pytest.approx(0.0525377, abs=5e-8)
    assert r.p_two_sided["conditional"] == pytest.approx(float(exact_pc), abs=1e-12)
    assert r.p_two_sided["conditional"] == pytest.approx(0.052, abs=1e-3)
    assert r.p_two_sided["conditional_modified"] == pytest.approx(0.068, abs=5e-4)


def test_binomial_test_large_sample_quadruple():
    r = binomial_test(17, 101, 0.1)
    assert r.p_two_sided["min_likelihood"] == pytest.approx(0.030, abs=5e-4)
    # doubled: exactly 2 P(X>=17) = 0.04506 from rational arithmetic (the
    # one-sided tail is 0.0225, so any doubled value near 0.06 would
    # contradict its own one-sided component)
    exact_double = 2 * binom_tail_fraction(101, 0.1, 17, 101)
    assert float(exact_double) == pytest.approx(0.0450560, abs=5e-8)
    assert r.p_two_sided["doubled"] == pytest.approx(float(exact_double), abs=1e-12)
    # the mean 10.1 is unattainable, so modified == unmodified
    assert r.p_two_sided["conditional"] == r.p_two_sided["conditional_modified"]
    assert r.p_two_sided["conditional"] == pytest.approx(0.052, abs=5e-4)


def test_binomial_test_at_attainable_anchor():
    r = binomial_test(2, 10, 0.2)
    assert r.direction == "at"
    assert r.p_two_sided["conditional"] == 1.0
    assert r.p_two_sided["conditional_modified"] == 1.0


def test_binomial_test_validation():
    with pytest.raises(ValueError):
        binomial_test(11, 10, 0.2)
    with pytest.raises(ValueError):
        binomial_test(-1, 10, 0.2)
    with pytest.raises(ValueError):
        binomial_test(5.0, 10, 0.2)
    with pytest.raises(ValueError):
        binomial_test(5, 10, 1.0)


# ---------------------------------------------------------------------------
# Fisher's exact test


def test_fisher_exact_golden_family_one():
    # margins 9/21 by 5/25, observed n11 = 4
    r = fisher_exact(ContingencyTable(4, 5, 1, 20))
    assert r.statistic == 4.0
    assert r.p_two_sided["min_likelihood"] == pytest.approx(0.019, abs=5e-4)
    # exactly 11/271; the three-digit reference .040 divides already-rounded
    # tails (.019/.479) and carries a ±0.001 tolerance
    assert r.p_two_sided["conditional"] == pytest.approx(11.0 / 271.0, abs=1e-12)
    assert r.p_two_sided["conditional"] == pytest.approx(0.040, abs=1e-3)
    # one-sided tails are inclusive of the observed table
    d = Hypergeometric(9, 5, 30)
    assert r.p_left == pytest.approx(d.cdf(4), abs=1e-15)
    assert r.p_right == pytest.approx(d.sf(4), abs=1e-15)


def test_fisher_exact_golden_family_two():
    # margins 9/31 by 5/35, observed n11 = 3
    r = fisher_exact(ContingencyTable(3, 6, 2, 29))
    assert r.p_two_sided["min_likelihood"] == pytest.approx(0.065, abs=5e-4)
    # exactly 1197/5692 = 0.21030; the historically tabulated .209 divides
    # rounded tails (.065/.311 = .2090) and misses even a ±0.001 band, so
    # the exact rational value is asserted instead
    assert r.p_two_sided["conditional"] == pytest.approx(1197.0 / 5692.0, abs=1e-12)
    assert abs(r.p_two_sided["conditional"] - 0.209) > 1e-3  # documents the offset
    assert r.p_two_sided["conditional"] == pytest.approx(0.2103, abs=5e-5)


def test_fisher_exact_anchor_adjacent_capped_at_one():
    # anchor E = 1.5 is unattainable; the adjacent support points cap at 1
    r1 = fisher_exact(ContingencyTable(1, 8, 4, 17))
    assert r1.p_two_sided["conditional"] == 1.0
    r2 = fisher_exact(ContingencyTable(2, 7, 3, 18))
    assert r2.p_two_sided["conditional"] == 1.0


def test_fisher_exact_conditional_capped_everywhere():
    for r1, c1, t in ((9, 5, 30), (9, 5, 40), (7, 6, 20)):
        d = Hypergeometric(r1, c1, t)
        for k in d.support().points():
            n11 = k
            table = ContingencyTable(n11, r1 - n11, c1 - n11, t - r1 - c1 + n11)
            rep = fisher_exact(table)
            assert rep.p_two_sided["conditional"] <= 1.0


def test_fisher_exact_degenerate_margins():
    with pytest.raises(ValueError, match="margin"):
        fisher_exact(ContingencyTable(0, 0, 5, 25))
    with pytest.raises(ValueError, match="margin"):
        fisher_exact(ContingencyTable(0, 9, 0, 25))


# ---------------------------------------------------------------------------
# contingency-table object


def test_contingency_table_derived_quantities():
    t = ContingencyTable(4, 5, 1, 20)
    assert (t.row1_total, t.row2_total, t.col1_total, t.col2_total, t.total) == (9, 21, 5, 25, 30)
    assert t.expected(1, 1) == pytest.approx(1.5)
    assert t.expected(2, 2) == pytest.approx(21 * 25 / 30)
    assert t.odds_ratio_estimate() == pytest.approx(16.0)
    assert t.cell(1, 2) == 5 and t.cell(2, 1) == 1


def test_contingency_table_odds_ratio_edges():
    assert math.isinf(ContingencyTable(4, 0, 1, 20).odds_ratio_estimate())
    assert ContingencyTable(0, 5, 1, 20).odds_ratio_estimate() == 0.0
    assert math.isnan(ContingencyTable(0, 5, 0, 20).odds_ratio_estimate())


def test_contingency_table_validation():
    with pytest.raises(ValueError):
        ContingencyTable(-1, 5, 1, 20)
    with pytest.raises(ValueError):
        ContingencyTable(1.5, 5, 1, 20)
    with pytest.raises(ValueError):
        ContingencyTable(True, 5, 1, 20)
    with pytest.raises(ValueError):
        ContingencyTable(4, 5, 1, 20).expected(3, 1)
    with pytest.raises(ValueError):
        ContingencyTable(4, 5, 1, 20).cell(0, 1)


# ---------------------------------------------------------------------------
# the six table orderings


def test_davis_statistics_formulas():
    t = ContingencyTable(4, 5, 1, 20)
    s = davis_statistics(t)
    d = Hypergeometric(9, 5, 30)
    assert s.t1 == pytest.approx(-d.pdf_or_pmf(4), abs=1e-15)
    assert s.t2 == pytest.approx(abs(4 / 5 - 5 / 25), abs=1e-15)
    assert s.t3 == pytest.approx(abs(4 / 9 - 1 / 21), abs=1e-15)
    assert s.t4 == pytest.approx(abs(math.log(16.0)), abs=1e-15)
    assert s.t5 == pytest.approx(30**3 * (4 - 1.5) ** 2 / (9 * 21 * 5 * 25), abs=1e-12)
    m = (1.5, 7.5, 3.5, 17.5)
    expect_t6 = 2.0 * (
        4 * math.log(4 / m[0]) + 5 * math.log(5 / m[1])
        + 1 * math.log(1 / m[2]) + 20 * math.log(20 / m[3])
    )
    assert s.t6 == pytest.approx(expect_t6, abs=1e-12)
    assert s.by_id("t5") == s.t5
    with pytest.raises(ValueError, match="unknown statistic id"):
        s.by_id("t7")


def test_davis_statistics_balanced_table_zero():
    s = davis_statistics(ContingencyTable(3, 3, 3, 3))  # n11 equals m11 = 3
    assert s.t2 == 0.0 and s.t3 == 0.0 and s.t5 == 0.0
    assert s.t4 == 0.0 and s.t6 == pytest.approx(0.0, abs=1e-15)


def test_davis_statistics_zero_cell_conventions():
    s = davis_statistics(ContingencyTable(0, 9, 5, 16))
    assert math.isinf(s.t4)
    # zero cells contribute nothing to the likelihood-ratio sum
    t = ContingencyTable(0, 9, 5, 16)
    expect_t6 = 2.0 * (
        9 * math.log(9 / t.expected(1, 2))
        + 5 * math.log(5 / t.expected(2, 1))
        + 16 * math.log(16 / t.expected(2, 2))
    )
    assert s.t6 == pytest.approx(expect_t6, abs=1e-12)
    assert math.isfinite(s.t6)


def test_davis_ordering_golden_family():
    assert davis_ordering(9, 5, 30, "t1") == [(1,), (2,), (0,), (3,), (4,), (5,)]
    assert davis_ordering(9, 5, 30, "t4") == [(2,), (1,), (3,), (4,), (0,), (5,)]
    assert davis_ordering(9, 5, 30, "t5") == [(1, 2), (0, 3), (4,), (5,)]
    assert davis_ordering(9, 5, 30, "t6") == [(2,), (1,), (3,), (0,), (4,), (5,)]


def test_davis_ordering_t2_t3_t5_identical():
    for margins in ((9, 5, 30), (9, 5, 40), (7, 6, 20), (6, 6, 12)):
        o2 = davis_ordering(*margins, "t2")
        o3 = davis_ordering(*margins, "t3")
        o5 = davis_ordering(*margins, "t5")
        assert o2 == o3 == o5


def test_davis_ordering_validation():
    for margins, which, message in (((9, 5, 30), "t9", "unknown statistic id"),
                                    ((0, 5, 30), "t1", "degenerate table")):
        with pytest.raises(ValueError, match=message):
            davis_ordering(*margins, which)


@pytest.mark.parametrize("margins", [(9, 5, 30), (9, 5, 40), (7, 6, 20)])
@pytest.mark.parametrize("which", DAVIS_STATISTIC_IDS)
def test_statistics_v_shaped_in_n11(margins, which):
    r1, c1, total = margins
    d = Hypergeometric(r1, c1, total)
    m11 = r1 * c1 / total
    pts = list(d.support().points())
    vals = []
    for k in pts:
        table = ContingencyTable(k, r1 - k, c1 - k, total - r1 - c1 + k)
        vals.append(davis_statistics(table).by_id(which))
    for k, v, v_next in zip(pts, vals, vals[1:]):
        if k + 1 <= m11:
            assert v > v_next, (which, k)
        elif k >= m11:
            assert v < v_next, (which, k)


@pytest.mark.parametrize("margins", [(9, 5, 30), (9, 5, 40), (7, 6, 20)])
@pytest.mark.parametrize("which", DAVIS_STATISTIC_IDS)
def test_all_orderings_induce_the_conditional_p_value(margins, which):
    # judging extremeness within the observed tail through any of the six
    # statistics reproduces the conditional p-value, because each statistic
    # orders tables the same way along a single tail
    r1, c1, total = margins
    d = Hypergeometric(r1, c1, total)
    anchor = d.mean()
    pts = list(d.support().points())
    stats = {}
    for k in pts:
        table = ContingencyTable(k, r1 - k, c1 - k, total - r1 - c1 + k)
        stats[k] = davis_statistics(table).by_id(which)
    for k in pts:
        side = [u for u in pts if (u < anchor) == (k < anchor)]
        tail_w = math.fsum(d.pdf_or_pmf(u) for u in side)
        exceed = [u for u in side if stats[u] >= stats[k]]
        p_via_stat = min(1.0, math.fsum(d.pdf_or_pmf(u) for u in exceed) / tail_w)
        assert p_via_stat == pytest.approx(
            p_conditional(d, k, anchor), abs=1e-12
        ), (which, k)


# ---------------------------------------------------------------------------
# GLR statistic


def test_glr_statistic_values():
    assert glr_statistic(6.0, 6) == 1.0
    assert glr_statistic(12.0, 12) == 1.0
    # direct evaluation: (0.5 e^{0.5})^3 = 0.5602111...
    expect = (0.5 * math.exp(0.5)) ** 3
    assert glr_statistic(3.0, 6) == pytest.approx(expect, rel=1e-14)
    assert glr_statistic(3.0, 6) == pytest.approx(0.5602111338, abs=1e-9)


def test_glr_statistic_unimodal():
    below = [glr_statistic(x, 6) for x in (0.5, 1.5, 3.0, 4.5, 5.9)]
    assert below == sorted(below)
    above = [glr_statistic(x, 6) for x in (6.1, 8.0, 11.0, 20.0)]
    assert above == sorted(above, reverse=True)
    assert all(0.0 < v < 1.0 for v in below + above)


def test_glr_statistic_validation():
    with pytest.raises(ValueError):
        glr_statistic(0.0, 6)
    with pytest.raises(ValueError):
        glr_statistic(-1.0, 6)
    with pytest.raises(ValueError):
        glr_statistic(1.0, 0)
    with pytest.raises(ValueError):
        glr_statistic(1.0, 6.0)


@pytest.mark.parametrize("n", [0, -3])
def test_binomial_test_requires_a_positive_n(n):
    with pytest.raises(ValueError, match=f"^n must be a positive integer, got {n}$"):
        binomial_test(0, n, 0.5)


def test_expected_counts_need_a_non_empty_table():
    with pytest.raises(ValueError, match="^expected counts need a non-empty table$"):
        ContingencyTable(0, 0, 0, 0).expected(1, 1)
