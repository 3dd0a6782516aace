"""Two-sided p-value construction tests.

Discrete constructions are compared point-by-point against a brute-force
enumeration built from exact rational masses. Continuous constructions are
checked against closed forms (triangular, truncated normal, uniform),
transformation invariance, and golden worked-example values for the
chi-square family.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twoside.cli import parse_dist
from twoside.dist import (
    Binomial,
    ChiSquare,
    FRatio,
    Hypergeometric,
    NoncentralHypergeometric,
    Triangular,
    TruncatedNormal,
    Uniform,
    _discrete_tables,
)
from twoside.pvalue import (
    METHODS,
    Weights,
    _partner,
    conjugate_point,
    p_conditional,
    p_doubled,
    p_min_likelihood,
    p_value,
    p_weighted,
    pc_equivalent_point,
    resolve_anchor,
    tail_weights,
)
from twoside.stattests import ContingencyTable, fisher_exact

CHISQ5 = ChiSquare(5)


# ---------------------------------------------------------------------------
# brute-force discrete oracle, built from exact rational masses


def _exact_pmf(d) -> list[Fraction]:
    if isinstance(d, Binomial):
        fp = Fraction(d.p)
        return [math.comb(d.n, k) * fp**k * (1 - fp) ** (d.n - k) for k in range(d.n + 1)]
    assert isinstance(d, Hypergeometric)
    pts = d.support().points()
    denom = math.comb(d.total, d.col1)
    return [
        Fraction(math.comb(d.row1, k) * math.comb(d.total - d.row1, d.col1 - k), denom)
        for k in pts
    ]


def oracle_discrete(d, x: int, method: str, anchor: float) -> float:
    """Enumerate a two-sided p-value directly over the full support."""
    pts = list(d.support().points())
    pmf = [float(v) for v in _exact_pmf(d)]
    lo = pts[0]

    def cdf_upto(k: float) -> float:
        return math.fsum(pmf[i] for i, u in enumerate(pts) if u <= k)

    def sf_from(k: float) -> float:
        return math.fsum(pmf[i] for i, u in enumerate(pts) if u >= k)

    if method == "min_likelihood":
        px = pmf[x - lo]
        cut = px * (1.0 + 1e-9)
        return min(1.0, math.fsum(v for v in pmf if v <= cut))
    if method == "doubled":
        return min(1.0, 2.0 * min(cdf_upto(x), sf_from(x)))
    w_left = cdf_upto(anchor)
    w_right = sf_from(anchor)
    scale = 1.0
    if method == "conditional_modified" and float(anchor).is_integer() and anchor in pts:
        scale = 1.0 + pmf[int(anchor) - lo]
    if x == anchor:
        return 1.0
    if x < anchor:
        return min(1.0, cdf_upto(x) * scale / w_left)
    return min(1.0, sf_from(x) * scale / w_right)


@pytest.mark.parametrize(
    "d",
    [
        Binomial(10, 0.2),
        Binomial(11, 0.2),
        Binomial(7, 0.5),
        Binomial(12, 0.5),
        Hypergeometric(9, 5, 30),
        Hypergeometric(9, 5, 40),
        Hypergeometric(5, 5, 10),
    ],
    ids=str,
)
def test_discrete_constructions_match_enumeration(d):
    anchor = d.mean()
    for x in d.support().points():
        got = {
            "doubled": p_doubled(d, x),
            "conditional": p_conditional(d, x, anchor),
            "conditional_modified": p_conditional(d, x, anchor, modified=True),
            "min_likelihood": p_min_likelihood(d, x),
        }
        for method, value in got.items():
            expect = oracle_discrete(d, x, method, anchor)
            assert value == pytest.approx(expect, abs=1e-12), (d, x, method)


# ---------------------------------------------------------------------------
# golden worked-example values


def test_weighted_golden_values():
    w = Weights(0.584, 0.416)
    assert p_weighted(CHISQ5, 0.5, 5.0, w) == pytest.approx(0.0135, abs=5e-5)
    assert p_weighted(CHISQ5, 0.5, 5.0, Weights(0.5, 0.5)) == pytest.approx(0.0158, abs=5e-5)
    assert p_weighted(CHISQ5, 5.0, 5.0, w) == 1.0
    # a symmetric family anchored at its median with equal weights
    u = Uniform(0.0, 1.0)
    assert p_weighted(u, 0.5, 0.5, Weights(0.5, 0.5)) == 1.0


def test_weighted_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        p_weighted(CHISQ5, 0.5, 5.0, Weights(0.7, 0.4))
    with pytest.raises(ValueError, match="continuous"):
        p_weighted(Binomial(10, 0.2), 2, 2.0, Weights(0.5, 0.5))
    for bad in (0.0, -0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            Weights(bad, 0.5)


def test_doubled_continuous_piecewise():
    # below the median: twice the lower tail
    assert p_doubled(CHISQ5, 2.0, 5.0) == pytest.approx(2.0 * CHISQ5.cdf(2.0), abs=1e-14)
    # between the median and the anchor the doubled lower tail exceeds 1
    m = CHISQ5.median()
    assert p_doubled(CHISQ5, (m + 5.0) / 2.0, 5.0) == 1.0
    assert p_doubled(CHISQ5, (m + 5.0) / 2.0, 5.0, truncate=False) > 1.0
    assert p_doubled(CHISQ5, 5.0, 5.0) == 1.0
    # above the anchor: twice the upper tail
    assert p_doubled(CHISQ5, 9.0, 5.0) == pytest.approx(2.0 * CHISQ5.sf(9.0), abs=1e-14)
    assert p_doubled(CHISQ5, 0.5, 5.0) == pytest.approx(0.0158, abs=5e-5)
    with pytest.raises(ValueError, match="anchor"):
        p_doubled(CHISQ5, 2.0)


def test_doubled_discrete_golden():
    d = Binomial(10, 0.2)
    assert p_doubled(d, 5) == pytest.approx(0.066, abs=5e-4)
    assert p_doubled(d, 5) == pytest.approx(2.0 * d.sf(5), abs=1e-15)
    # the doubled value for binomial(101, 0.1) at 17: twice the upper tail.
    # Exact rational arithmetic puts it at 0.04506; that is the value frozen
    # here (a rounded 0.06 sometimes quoted for this case is inconsistent
    # with the one-sided tail 0.0225 that it doubles).
    d101 = Binomial(101, 0.1)
    exact = 2 * sum(_exact_pmf(d101)[17:])
    assert float(exact) == pytest.approx(0.0450560, abs=5e-8)
    assert p_doubled(d101, 17) == pytest.approx(float(exact), abs=1e-12)


def test_conditional_continuous_golden():
    assert p_conditional(CHISQ5, 0.5, 5.0) == pytest.approx(0.0135, abs=5e-5)
    assert p_conditional(CHISQ5, 9.256, 5.0) == pytest.approx(0.239, abs=5e-4)
    assert p_conditional(CHISQ5, 5.0, 5.0) == 1.0
    # strictly increasing below the anchor, strictly decreasing above
    grid_lo = [0.2, 0.7, 1.9, 3.4, 4.9]
    vals_lo = [p_conditional(CHISQ5, x, 5.0) for x in grid_lo]
    assert vals_lo == sorted(vals_lo) and len(set(vals_lo)) == len(vals_lo)
    grid_hi = [5.1, 6.0, 8.5, 12.0, 20.0]
    vals_hi = [p_conditional(CHISQ5, x, 5.0) for x in grid_hi]
    assert vals_hi == sorted(vals_hi, reverse=True) and len(set(vals_hi)) == len(vals_hi)


def test_conditional_continuous_anchor_domain():
    with pytest.raises(ValueError, match="support boundary"):
        p_conditional(Uniform(0.0, 1.0), 0.3, 0.0)
    with pytest.raises(ValueError, match="support boundary"):
        p_conditional(Uniform(0.0, 1.0), 0.3, 1.0)


def test_conditional_discrete_golden():
    d = Binomial(10, 0.2)
    # exact: P(X>=5)/P(X>=2) = 0.0525377...; three digits round to 0.053
    assert p_conditional(d, 5, 2.0) == pytest.approx(0.0525377, abs=5e-8)
    assert p_conditional(d, 5, 2.0, modified=True) == pytest.approx(0.068, abs=5e-4)
    h = Hypergeometric(9, 5, 30)
    # exactly 11/271 = 0.04059; the three-digit reference .040 was formed by
    # dividing already-rounded tail entries (.019/.479), so it carries the
    # looser ±0.001 tolerance of such derived table cells
    assert p_conditional(h, 4, h.mean()) == pytest.approx(0.040, abs=1e-3)
    assert p_conditional(h, 4, h.mean()) == pytest.approx(11.0 / 271.0, abs=1e-12)


def test_min_likelihood_golden():
    assert p_min_likelihood(Binomial(10, 0.2), 5) == pytest.approx(0.033, abs=5e-4)
    assert p_min_likelihood(Hypergeometric(9, 5, 30), 0) == pytest.approx(0.286, abs=5e-4)
    for x in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
        assert p_min_likelihood(Uniform(0.0, 1.0), x) == 1.0
    for x in (-1.0, 2.0):  # outside support, as for every other law
        assert p_min_likelihood(Uniform(0.0, 1.0), x) == 0.0
    assert p_min_likelihood(Binomial(10, 0.2), 11) == 0.0  # outside support


_discrete_families = st.one_of(
    st.builds(Binomial, st.integers(1, 400),
              st.one_of(st.just(0.5), st.floats(1e-3, 1 - 1e-3))),
    # row1 = col1 and total = 2 * row1 gives a symmetric law with exact ties
    st.integers(1, 200).map(lambda r: Hypergeometric(r, r, 2 * r)),
    st.integers(2, 400).flatmap(lambda t: st.builds(
        Hypergeometric, st.integers(0, t), st.integers(0, t), st.just(t))),
    st.integers(2, 400).flatmap(lambda t: st.builds(
        NoncentralHypergeometric, st.integers(0, t), st.integers(0, t), st.just(t),
        st.floats(1e-3, 1e3))),
)


@settings(max_examples=200, deadline=None)
@given(d=_discrete_families, data=st.data())
def test_bisected_min_likelihood_equals_window_scan(d, data):
    x = data.draw(st.integers(int(d.support().lo), int(d.support().hi)))
    px = d.pdf_or_pmf(x)
    cut = px * (1.0 + 1e-9)
    window = _discrete_tables(d)[0].pmf
    scan = min(1.0, math.fsum(v for v in window if v <= cut)) if px > 0.0 else 0.0
    assert p_min_likelihood(d, x) == pytest.approx(scan, abs=1e-15)


def test_min_likelihood_exact_ties():
    for d in (Binomial(30, 0.5), Binomial(31, 0.5), Hypergeometric(20, 20, 40)):
        lo, hi = int(d.support().lo), int(d.support().hi)
        for x in range(lo, hi + 1):
            assert p_min_likelihood(d, x) == p_min_likelihood(d, lo + hi - x)


_BY_METHOD = {
    "doubled": lambda d, x: p_doubled(d, x, d.mean()),
    "weighted": lambda d, x: p_weighted(d, x, d.mean(), Weights(0.3, 0.7)),
    "conditional": lambda d, x: p_conditional(d, x, d.mean()),
    "conditional_modified": lambda d, x: p_conditional(d, x, d.mean(), modified=True),
    "min_likelihood": lambda d, x: p_min_likelihood(d, x),
}
_NON_FINITE_CASES = [
    *((method, d) for method in ("doubled", "weighted", "conditional", "min_likelihood")
      for d in (ChiSquare(5), FRatio(5, 10), Uniform(0.0, 1.0), Triangular(1.0, 2.0),
                TruncatedNormal(0.5))),
    *((method, Binomial(10, 0.2))
      for method in ("doubled", "conditional", "conditional_modified", "min_likelihood")),
]


@pytest.mark.parametrize("method, d", _NON_FINITE_CASES,
                         ids=[f"{method}-{d}" for method, d in _NON_FINITE_CASES])
def test_nan_observation_is_rejected(method, d):
    # NaN fails every comparison, so a tail or the uniform shortcut would take
    # it; an infinite x would reach an end clamp, a kernel or a root search
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as error:
            _BY_METHOD[method](d, x)
        assert str(error.value) == f"x must be finite, got {x!r}"


# 40-digit mpmath values over the exact rational masses. Masses taken
# from lgamma in log space miss these by 1e-12 to 2.3e-11 relative; the
# ratio recurrence keeps them within 1e-15
@pytest.mark.parametrize(
    "compute, ref",
    [
        (lambda: fisher_exact(ContingencyTable(1952, 4757, 2837, 6522)).p_two_sided["doubled"],
         0.099438735075062631085),
        (lambda: p_doubled(Hypergeometric(27111, 23992, 120379), 5203),
         0.00053610604304468534481),
        (lambda: p_min_likelihood(Hypergeometric(109849, 40749, 310847), 14092),
         0.00061649146424783113429),
    ],
    ids=["fisher-table", "hyper-doubled", "hyper-min-likelihood"],
)
def test_large_support_high_precision_references(compute, ref):
    assert compute() == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# invariance and identity properties


def test_null_uniformity_of_conditional():
    for d in (CHISQ5, FRatio(5, 11), TruncatedNormal(0.5)):
        anchor = d.mean()
        w_left = d.cdf(anchor)
        for u in (0.01, 0.1, 0.37, 0.64, 0.9, 0.999):
            x_lo = d.quantile(u * w_left)
            assert p_conditional(d, x_lo, anchor) == pytest.approx(u, abs=1e-10)
            x_hi = d.quantile(1.0 - u * (1.0 - w_left))
            assert p_conditional(d, x_hi, anchor) == pytest.approx(u, abs=1e-10)


class _MonotoneImage:
    """Distribution of T(X) for strictly increasing T, via the base cdf."""

    is_discrete = False

    def __init__(self, base, inverse):
        self._base = base
        self._inverse = inverse

    def cdf(self, y: float) -> float:
        return self._base.cdf(self._inverse(y))

    def sf(self, y: float) -> float:
        return self._base.sf(self._inverse(y))


@pytest.mark.parametrize(
    "fwd,inv",
    [(math.log, math.exp), (lambda x: 3.0 * x - 7.0, lambda y: (y + 7.0) / 3.0)],
    ids=["log", "affine"],
)
def test_conditional_invariant_under_monotone_transforms(fwd, inv):
    img = _MonotoneImage(CHISQ5, inv)
    anchor = 5.0
    for x in (0.3, 0.9, 2.0, 4.4, 5.0, 7.7, 12.0):
        direct = p_conditional(CHISQ5, x, anchor)
        mapped = p_conditional(img, fwd(x), fwd(anchor))
        assert mapped == pytest.approx(direct, abs=1e-10)
        assert p_doubled(img, fwd(x), fwd(anchor)) == pytest.approx(
            p_doubled(CHISQ5, x, anchor), abs=1e-10
        )


def test_conditional_equals_log_distance_exceedance():
    # measuring tail exceedance through the distance D = |log(x/A)| instead
    # of through x itself leaves the conditional p-value unchanged, because
    # D is a strictly monotone relabeling within each tail
    anchor = 5.0
    w_left = CHISQ5.cdf(anchor)
    for x in (0.2, 0.9, 2.5, 4.8, 5.3, 8.0, 16.0):
        dist = abs(math.log(x / anchor))
        if x < anchor:
            boundary = anchor * math.exp(-dist)
            via_distance = CHISQ5.cdf(boundary) / w_left
        else:
            boundary = anchor * math.exp(dist)
            via_distance = CHISQ5.sf(boundary) / (1.0 - w_left)
        assert via_distance == pytest.approx(
            p_conditional(CHISQ5, x, anchor), abs=1e-10
        )


def test_median_anchor_collapses_doubled_and_conditional():
    for d in (CHISQ5, FRatio(5, 11), TruncatedNormal(0.7)):
        m = d.median()
        for p in (0.02, 0.2, 0.45, 0.55, 0.8, 0.98):
            x = d.quantile(p)
            assert p_doubled(d, x, m) == pytest.approx(
                p_conditional(d, x, m), abs=1e-9
            )


def test_triangular_mode_conditional_equals_min_likelihood():
    tri = Triangular(1.0, 2.0)
    for i in range(1, 201):
        x = -1.0 + 3.0 * i / 201.0
        assert p_conditional(tri, x, 0.0) == pytest.approx(
            p_min_likelihood(tri, x), abs=1e-10
        ), x


def test_truncated_normal_min_likelihood_shape():
    cut = 0.5
    d = TruncatedNormal(cut)
    # inside the symmetric window the equal-density partner of x is -x
    for x in (-0.49, -0.3, -0.05, 0.2, 0.45):
        expect = 2.0 * d.cdf(-abs(x)) + 1.0 - d.cdf(cut)
        assert p_min_likelihood(d, x) == pytest.approx(expect, abs=1e-10)
    # beyond the window the density is below its left-boundary value, so
    # only the upper tail contributes
    for x in (0.51, 1.0, 2.5):
        assert p_min_likelihood(d, x) == pytest.approx(d.sf(x), abs=1e-12)
    # continuity across the window edge
    eps = 1e-7
    assert p_min_likelihood(d, cut - eps) == pytest.approx(
        p_min_likelihood(d, cut + eps), abs=1e-5
    )
    # the left tail never drops below the mass that is less likely than the
    # boundary, while the mean-anchored conditional p-value vanishes there
    floor = 1.0 - d.cdf(cut)
    x_near = -cut + 1e-6
    assert p_min_likelihood(d, x_near) >= floor - 1e-12
    assert p_conditional(d, x_near, d.mean()) < 1e-5


def test_decreasing_density_satisfies_upper_tail_only():
    # chi-square with 1 df has its mode at the support edge, so no point in
    # the "other" tail is ever less likely; the p-value is the upper tail
    d = ChiSquare(1)
    for x in (0.2, 1.0, 4.0):
        assert p_min_likelihood(d, x) == pytest.approx(d.sf(x), abs=1e-12)


def test_binomial_half_symmetric_identities():
    for n in (5, 7, 11):  # odd: the mean n/2 is unattainable
        d = Binomial(n, 0.5)
        for x in d.support().points():
            assert p_conditional(d, x, n / 2.0) == pytest.approx(
                p_min_likelihood(d, x), abs=1e-12
            )
    for n in (6, 8, 12):  # even: the mean is attainable
        d = Binomial(n, 0.5)
        for x in d.support().points():
            pc = p_conditional(d, x, n / 2.0)
            pcm = p_conditional(d, x, n / 2.0, modified=True)
            pp = p_min_likelihood(d, x)
            assert pcm == pytest.approx(pp, abs=1e-12)
            if x != n // 2:
                assert pc < pp
            else:
                assert pc == 1.0
                assert pp == pytest.approx(1.0, abs=1e-12)


def test_binomial_scaling_relations():
    d = Binomial(10, 0.2)
    w = tail_weights(d, 2.0)
    scale = 1.0 + d.pdf_or_pmf(2)
    assert scale == pytest.approx(1.3, abs=5e-3)
    for x in d.support().points():
        if x == 2:
            continue
        pc = p_conditional(d, x, 2.0)
        pcm = p_conditional(d, x, 2.0, modified=True)
        if pcm < 1.0:
            assert pcm == pytest.approx(scale * pc, rel=1e-12)
    # in the far upper tail no lower-support mass is small enough to join
    # the min-likelihood sum, so the conditional values are exact multiples
    assert 1.0 / w.w_right == pytest.approx(1.60, abs=5e-3)
    assert scale / w.w_right == pytest.approx(2.09, abs=5e-3)
    for x in range(4, 11):
        pp = p_min_likelihood(d, x)
        assert p_conditional(d, x, 2.0) == pytest.approx(pp / w.w_right, rel=1e-12)
        assert p_conditional(d, x, 2.0, modified=True) == pytest.approx(
            pp * scale / w.w_right, rel=1e-12
        )


def test_binomial_unattainable_anchor_two_neighbors_reach_one():
    d = Binomial(11, 0.2)
    w = tail_weights(d, 2.2)
    # the two support points straddling the anchor both reach p-value 1
    assert p_conditional(d, 2, 2.2) == 1.0
    assert p_conditional(d, 3, 2.2) == 1.0
    # modified and unmodified coincide when the anchor is unattainable
    for x in d.support().points():
        assert p_conditional(d, x, 2.2) == p_conditional(
            d, x, 2.2, modified=True
        )
    # the conditional construction scales each one-sided tail by 1/weight
    assert 1.0 / w.w_left == pytest.approx(1.62, abs=5e-3)
    assert 1.0 / w.w_right == pytest.approx(2.61, abs=5e-3)
    for x in (0, 1, 2):
        assert p_conditional(d, x, 2.2) == pytest.approx(
            min(1.0, d.cdf(x) / w.w_left), abs=1e-15
        )


def test_tail_weights():
    w = tail_weights(CHISQ5, 5.0)
    assert w.w_left + w.w_right == pytest.approx(1.0, abs=1e-12)
    assert w.w_left == pytest.approx(0.584, abs=5e-4)
    d = Binomial(10, 0.2)
    wd = tail_weights(d, 2.0)
    assert wd.w_left + wd.w_right == pytest.approx(1.0 + d.pdf_or_pmf(2), abs=1e-12)
    wu = tail_weights(d, 2.2)
    assert wu.w_left + wu.w_right == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d, anchor", [(CHISQ5, 0.0), (Triangular(1.0, 2.0), 2.0),
                                       (Triangular(1.0, 2.0), -1.0), (Uniform(0.0, 3.0), 3.0),
                                       (Binomial(10, 0.2), -1.0), (Binomial(10, 0.2), 11.0)])
def test_tail_weights_name_an_anchor_on_the_support_boundary(d, anchor):
    message = (f"anchor {anchor!r} sits at or outside the support boundary; "
               "the conditional p-value needs both tails to have positive probability")
    with pytest.raises(ValueError) as raised:
        tail_weights(d, anchor)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        p_conditional(d, 1.0, anchor)
    assert str(raised.value) == message


def test_tail_weights_are_memoized_and_errors_are_not():
    tail_weights.cache_clear()
    cold = tail_weights.__wrapped__(FRatio(7, 9), 1.0)
    assert tail_weights(FRatio(7, 9), 1.0) == cold
    hits = tail_weights.cache_info().hits
    assert tail_weights(FRatio(7, 9), 1.0) == cold
    assert tail_weights.cache_info().hits == hits + 1
    assert tail_weights.cache_info().maxsize == 256
    size = tail_weights.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="support boundary"):
            tail_weights(CHISQ5, 0.0)
    assert tail_weights.cache_info().currsize == size


# ---------------------------------------------------------------------------
# conjugate and equivalent points


def test_conjugate_point_golden():
    c1 = conjugate_point(CHISQ5, 1.0)
    assert c1 == pytest.approx(6.711, abs=5e-4)
    assert c1 == pytest.approx(6.7114410, abs=1e-6)
    c05 = conjugate_point(CHISQ5, 0.5)
    # 9.2549010...; three-digit roundings of nearby evaluations give either
    # 9.255 or 9.256, so the frozen oracle value is asserted tightly
    assert c05 == pytest.approx(9.2549010, abs=1e-6)
    assert min(abs(c05 - 9.255), abs(c05 - 9.256)) < 1.2e-3


def test_conjugate_point_density_equality():
    for d, xs in (
        (CHISQ5, (0.3, 1.7, 4.6, 7.0, 15.0)),
        (FRatio(5, 11), (0.1, 0.4, 1.5, 4.0)),
        (Triangular(1.0, 2.0), (-0.8, -0.2, 0.4, 1.5)),
    ):
        mode = d.mode_set()[0]
        for x in xs:
            c = conjugate_point(d, x)
            assert c is not None
            assert (x - mode) * (c - mode) < 0  # opposite sides
            assert d.pdf_or_pmf(c) == pytest.approx(d.pdf_or_pmf(x), rel=1e-9)


def test_conjugate_point_triangular_closed_form():
    # Triangular(1, 2): equating the two linear flanks gives x' = -2x on the
    # left flank and x' = -x/2 on the right flank
    tri = Triangular(1.0, 2.0)
    assert conjugate_point(tri, -0.5) == pytest.approx(1.0, abs=1e-9)
    assert conjugate_point(tri, 1.0) == pytest.approx(-0.5, abs=1e-9)
    assert conjugate_point(tri, -0.25) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("d", [CHISQ5, FRatio(5, 10), Triangular(1.0, 2.0)], ids=str)
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=repr)
def test_conjugate_point_rejects_a_non_finite_x(d, x):
    # without the check an infinite x reaches the root search, which finds no
    # sign change, and NaN fails the support test
    with pytest.raises(ValueError) as error:
        conjugate_point(d, x)
    assert str(error.value) == f"x must be finite, got {x!r}"


def test_conjugate_point_truncated_normal():
    d = TruncatedNormal(0.5)
    for x in (-0.4, -0.1, 0.2, 0.45):
        assert conjugate_point(d, x) == pytest.approx(-x, abs=1e-9)
    # beyond the window the left boundary is still more likely than x
    assert conjugate_point(d, 0.8) is None


def test_conjugate_point_errors():
    with pytest.raises(ValueError, match="mode"):
        conjugate_point(CHISQ5, 3.0)
    with pytest.raises(ValueError, match="continuous"):
        conjugate_point(Binomial(10, 0.2), 3)
    with pytest.raises(ValueError, match="support"):
        conjugate_point(CHISQ5, -1.0)
    # mode at the support edge leaves no opposite branch
    assert conjugate_point(ChiSquare(1), 2.0) is None


def test_partner_of_a_point_an_ulp_below_the_peak():
    # a tent level peaking at 1 on the finite support [-4, 4]: the mirror
    # image of the float just below 1 is a rounding tie and rounds to 1
    # itself, though the two levels differ, so the walk must not start there
    d = Triangular(4.0, 4.0)

    def level(t):
        return 1.0 - abs(t - 1.0)

    x = math.nextafter(1.0, 0.0)
    assert 2.0 - x == 1.0 and level(x) < level(1.0)
    assert _partner(d, level, 1.0, x) == 1.0


def test_pc_equivalent_point_golden():
    x_eq = pc_equivalent_point(CHISQ5, 0.5, 5.0)
    assert x_eq == pytest.approx(16.48, abs=5e-3)
    assert x_eq == pytest.approx(16.4763, abs=1e-3)
    assert CHISQ5.sf(x_eq) == pytest.approx(0.0056, abs=5e-5)
    # the defining property: equal conditional p-values across the anchor
    assert p_conditional(CHISQ5, x_eq, 5.0) == pytest.approx(
        p_conditional(CHISQ5, 0.5, 5.0), abs=1e-10
    )


def test_pc_equivalent_point_symmetric_reflection():
    u = Uniform(2.0, 6.0)
    for x in (2.5, 3.0, 3.9, 4.2, 5.5):
        assert pc_equivalent_point(u, x, 4.0) == pytest.approx(8.0 - x, abs=1e-10)


def test_pc_equivalent_point_edge_cases():
    u = Uniform(0.0, 1.0)
    assert pc_equivalent_point(u, 1.0, 0.5) is None  # opposite tail cannot reach 0
    assert pc_equivalent_point(u, 0.0, 0.5) is None
    with pytest.raises(ValueError, match="differ"):
        pc_equivalent_point(u, 0.5, 0.5)
    with pytest.raises(ValueError, match="continuous"):
        pc_equivalent_point(Binomial(10, 0.2), 3, 2.0)


# ---------------------------------------------------------------------------
# minimum likelihood far in the upper tail

# upper 1e-20, 1e-50, 1e-100, 1e-200 and 1e-300 points, from mpmath, to four
# digits; the partner of each sits far below the mode, often near 0
FAR_TAIL = [
    ("chisq:3", [96.24, 235.3, 466.2, 927.4, 1388.0]),
    ("chisq:4", [99.97, 239.8, 471.5, 933.3, 1395.0]),
    ("chisq:5", [103.4, 244.1, 476.4, 938.9, 1401.0]),
    ("chisq:6", [106.7, 248.2, 481.1, 944.3, 1406.0]),
    ("chisq:7", [109.8, 252.1, 485.6, 949.5, 1412.0]),
    ("chisq:8", [112.8, 255.8, 490.0, 954.5, 1417.0]),
    ("chisq:9", [115.7, 259.5, 494.2, 959.4, 1423.0]),
    ("chisq:10", [118.5, 263.0, 498.3, 964.1, 1428.0]),
    ("chisq:11", [121.3, 266.4, 502.4, 968.8, 1433.0]),
    ("chisq:12", [124.0, 269.8, 506.3, 973.4, 1438.0]),
    ("chisq:13", [126.6, 273.1, 510.2, 977.8, 1443.0]),
    ("chisq:14", [129.2, 276.3, 514.0, 982.3, 1447.0]),
    ("chisq:15", [131.7, 279.5, 517.7, 986.6, 1452.0]),
    ("chisq:16", [134.2, 282.6, 521.4, 990.9, 1457.0]),
    ("chisq:17", [136.6, 285.7, 525.0, 995.1, 1461.0]),
    ("chisq:18", [139.0, 288.7, 528.6, 999.3, 1466.0]),
    ("chisq:19", [141.4, 291.7, 532.1, 1003.0, 1470.0]),
    ("chisq:20", [143.7, 294.6, 535.6, 1007.0, 1475.0]),
    ("chisq:21", [146.0, 297.6, 539.0, 1011.0, 1479.0]),
    ("chisq:22", [148.3, 300.4, 542.4, 1015.0, 1484.0]),
    ("chisq:23", [150.6, 303.3, 545.8, 1019.0, 1488.0]),
    ("chisq:24", [152.8, 306.1, 549.1, 1023.0, 1492.0]),
    ("chisq:25", [155.0, 308.9, 552.4, 1027.0, 1496.0]),
    ("chisq:26", [157.2, 311.6, 555.7, 1031.0, 1500.0]),
    ("chisq:27", [159.4, 314.3, 558.9, 1035.0, 1505.0]),
    ("chisq:28", [161.5, 317.0, 562.1, 1039.0, 1509.0]),
    ("chisq:29", [163.7, 319.7, 565.3, 1042.0, 1513.0]),
    ("chisq:30", [165.8, 322.4, 568.4, 1046.0, 1517.0]),
    ("chisq:100", [292.3, 478.3, 752.9, 1264.0, 1757.0]),
    ("chisq:300", [586.4, 826.2, 1156.0, 1738.0, 2279.0]),
    ("f:3,7", [1539000.0, 573500000000000.0, 1.107e+29, 4.128e+57, 1.539e+86]),
    ("f:5,10", [32720.0, 32730000000.0, 3.273e+20, 3.273e+40, 3.273e+60]),
    ("f:10,20", [396.4, 399100.0, 39910000000.0, 3.991e+20, 3.991e+30]),
    ("f:20,40", [41.89, 1413.0, 447800.0, 44780000000.0, 4478000000000000.0]),
    ("f:50,80", [11.14, 74.91, 1375.0, 435600.0, 137800000.0]),
]


@pytest.mark.parametrize("law, xs", FAR_TAIL, ids=[law for law, _ in FAR_TAIL])
def test_min_likelihood_far_in_the_upper_tail(law, xs):
    d = parse_dist(law)
    for x in xs:
        p = p_min_likelihood(d, x)
        assert d.sf(x) <= p <= 1.0, x


@pytest.mark.parametrize("df, x, expected", [(5, 300.0, 1.0015302306e-62),
                                             (10, 400.0, 9.41329199118e-80)])
def test_min_likelihood_far_tail_against_frozen_mpmath(df, x, expected):
    assert p_min_likelihood(ChiSquare(df), x) == pytest.approx(expected, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# anchor resolution and the method dispatcher


def test_resolve_anchor():
    assert resolve_anchor(CHISQ5, "mean") == 5.0
    assert resolve_anchor(Binomial(11, 0.2), "mean") == pytest.approx(2.2)
    assert resolve_anchor(TruncatedNormal(0.5), "mean") == pytest.approx(0.509, abs=5e-4)
    assert resolve_anchor(CHISQ5, "mode") == 3.0
    assert resolve_anchor(CHISQ5, "median") == pytest.approx(CHISQ5.quantile(0.5))
    assert resolve_anchor(CHISQ5, 4.25) == 4.25
    assert resolve_anchor(Binomial(10, 0.2), 2) == 2.0


def test_resolve_anchor_errors():
    with pytest.raises(ValueError, match="mode is not unique"):
        resolve_anchor(Uniform(0.0, 1.0), "mode")
    with pytest.raises(ValueError, match="4 and 5"):
        resolve_anchor(Binomial(9, 0.5), "mode")
    with pytest.raises(ValueError, match="unknown anchor"):
        resolve_anchor(CHISQ5, "midpoint")
    for value, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(ValueError) as error:
            resolve_anchor(CHISQ5, value)
        assert str(error.value) == f"anchor value must be finite, got {text}"
    with pytest.raises(ValueError, match="outside the support"):
        resolve_anchor(CHISQ5, -0.5)
    with pytest.raises(ValueError, match="outside the support"):
        resolve_anchor(Binomial(10, 0.2), 11)


def test_dispatcher():
    for method in METHODS:
        kwargs = {"anchor_value": 5.0}
        if method == "weighted":
            kwargs["weights"] = Weights(0.5, 0.5)
        assert 0.0 < p_value(CHISQ5, 2.0, method, **kwargs) <= 1.0
    assert p_value(CHISQ5, 2.0, "conditional", anchor_value=5.0) == pytest.approx(
        p_conditional(CHISQ5, 2.0, 5.0)
    )
    # modified and plain conditional coincide for continuous families
    assert p_value(CHISQ5, 2.0, "conditional_modified", anchor_value=5.0) == p_value(
        CHISQ5, 2.0, "conditional", anchor_value=5.0
    )
    # discrete doubling needs no anchor
    assert p_value(Binomial(10, 0.2), 5, "doubled") == p_doubled(Binomial(10, 0.2), 5)
    assert p_value(CHISQ5, 4.7, "doubled", anchor_value=5.0, truncate=False) > 1.0
    assert p_value(CHISQ5, 4.7, "doubled", anchor_value=5.0) == 1.0


def test_dispatcher_errors():
    with pytest.raises(ValueError, match="unknown p-value method"):
        p_value(CHISQ5, 2.0, "smallest")
    with pytest.raises(ValueError, match="weights"):
        p_value(CHISQ5, 2.0, "weighted", anchor_value=5.0)
    with pytest.raises(ValueError, match="anchor"):
        p_value(CHISQ5, 2.0, "conditional")
    with pytest.raises(ValueError, match="anchor"):
        p_value(CHISQ5, 2.0, "doubled")
