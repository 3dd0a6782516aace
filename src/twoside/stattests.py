"""Statistical tests wired to the two-sided p-value constructions.

Covers the one-sample variance test (chi-square statistic), the two-sample
variance-ratio test (F statistic), the exact binomial test, and Fisher's
exact test for a 2x2 table, together with the six classical "Davis"
orderings of 2x2 tables and the generalized-likelihood-ratio statistic of
the variance test.

One-sided p-values of discrete tests are inclusive of the observed point on
both sides: p_left = P(X <= x) and p_right = P(X >= x).
"""

from __future__ import annotations

import math
from typing import Sequence

from ._record import Record
from .dist import Binomial, ChiSquare, Distribution, FRatio, Hypergeometric
from .pvalue import (
    TailAnchor,
    Weights,
    default_methods,
    p_value,
    resolve_anchor,
    tail_weights,
)

__all__ = [
    "ContingencyTable",
    "DavisStatistics",
    "TestReport",
    "variance_test",
    "variance_test_from_sample",
    "f_test",
    "binomial_test",
    "fisher_exact",
    "davis_statistics",
    "davis_ordering",
    "glr_statistic",
    "DAVIS_STATISTIC_IDS",
]

DAVIS_STATISTIC_IDS = ("t1", "t2", "t3", "t4", "t5", "t6")

# relative tolerance for grouping tied statistics in davis_ordering
_ORDER_TIE_TOL = 1e-9


class ContingencyTable(Record):
    """A 2x2 table of counts.

    Cell (i, j) holds the count n_ij; margins and expected counts are
    derived. Rows are the first index, columns the second.
    """

    n11: int
    n12: int
    n21: int
    n22: int

    def __post_init__(self) -> None:
        for name in ("n11", "n12", "n21", "n22"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def row1_total(self) -> int:
        return self.n11 + self.n12

    @property
    def row2_total(self) -> int:
        return self.n21 + self.n22

    @property
    def col1_total(self) -> int:
        return self.n11 + self.n21

    @property
    def col2_total(self) -> int:
        return self.n12 + self.n22

    @property
    def total(self) -> int:
        return self.n11 + self.n12 + self.n21 + self.n22

    def expected(self, i: int, j: int) -> float:
        """Expected count m_ij = (row i total)(column j total)/total."""
        if i not in (1, 2) or j not in (1, 2):
            raise ValueError(f"cell indices must be 1 or 2, got ({i}, {j})")
        row = self.row1_total if i == 1 else self.row2_total
        col = self.col1_total if j == 1 else self.col2_total
        if self.total == 0:
            raise ValueError("expected counts need a non-empty table")
        return row * col / self.total

    def odds_ratio_estimate(self) -> float:
        """n11*n22 / (n12*n21); +inf when only the denominator vanishes."""
        num = self.n11 * self.n22
        den = self.n12 * self.n21
        if den == 0:
            return math.nan if num == 0 else math.inf
        return num / den

    def cell(self, i: int, j: int) -> int:
        if i not in (1, 2) or j not in (1, 2):
            raise ValueError(f"cell indices must be 1 or 2, got ({i}, {j})")
        return (self.n11, self.n12, self.n21, self.n22)[(i - 1) * 2 + (j - 1)]


class DavisStatistics(Record):
    """The six classical two-sided orderings of a 2x2 table.

    t1: negative null probability of the table (probability ordering)
    t2: |difference of column proportions|
    t3: |difference of row proportions|
    t4: |log odds-ratio estimate| (+inf when any cell is zero)
    t5: Pearson chi-square
    t6: likelihood-ratio chi-square (zero cells contribute zero)
    """

    t1: float
    t2: float
    t3: float
    t4: float
    t5: float
    t6: float

    def by_id(self, which: str) -> float:
        if which not in DAVIS_STATISTIC_IDS:
            raise ValueError(f"unknown statistic id {which!r}; expected one of {DAVIS_STATISTIC_IDS}")
        return getattr(self, which)


class TestReport(Record):
    """Outcome of a test: the statistic and its p-values.

    p_left and p_right are the one-sided tail probabilities (inclusive of
    the observed point for discrete statistics); p_two_sided maps each
    requested method name to its two-sided p-value. The resolved anchor and
    the tail weights it induces are carried along so consumers can audit
    which tail was the thick one; direction says which side of the anchor
    the statistic fell on.
    """

    statistic: float
    anchor: float
    weights: Weights
    p_left: float
    p_right: float
    p_two_sided: dict[str, float]
    direction: str


def _report(d: Distribution, statistic: float, anchor: TailAnchor,
            methods: Sequence[str] | None) -> TestReport:
    anchor_value = resolve_anchor(d, anchor)
    if methods is None:
        methods = default_methods(d.is_discrete)
    weights = tail_weights(d, anchor_value)
    two_sided = {m: p_value(d, statistic, m, anchor_value=anchor_value) for m in methods}
    if statistic < anchor_value:
        direction = "below"
    elif statistic > anchor_value:
        direction = "above"
    else:
        direction = "at"
    return TestReport(
        statistic=statistic,
        anchor=anchor_value,
        weights=weights,
        p_left=d.cdf(statistic),
        p_right=d.sf(statistic),
        p_two_sided=two_sided,
        direction=direction,
    )


def variance_test(s2: float, n: int, sigma0_sq: float, *, anchor: TailAnchor = "mean",
                  methods: Sequence[str] | None = None) -> TestReport:
    """One-sample variance test of sigma^2 = sigma0^2.

    The statistic (n-1) s2 / sigma0_sq is referred to chi-square(n-1).
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"sample size must be an integer >= 2, got {n!r}")
    if not (s2 > 0.0) or not math.isfinite(s2):
        raise ValueError(f"sample variance must be positive, got {s2!r}")
    if not (sigma0_sq > 0.0) or not math.isfinite(sigma0_sq):
        raise ValueError(f"null variance must be positive, got {sigma0_sq!r}")
    statistic = (n - 1) * s2 / sigma0_sq
    if not math.isfinite(statistic):  # (n - 1) * s2 alone may overflow
        statistic = (n - 1) * (s2 / sigma0_sq)
    if not math.isfinite(statistic):
        raise ValueError(f"the statistic (n - 1) * s2 / sigma0_sq overflows for n={n}, "
                         f"s2={s2!r}, sigma0_sq={sigma0_sq!r}")
    return _report(ChiSquare(n - 1), statistic, anchor, methods)


def variance_test_from_sample(sample: Sequence[float], sigma0_sq: float, *,
                              anchor: TailAnchor = "mean",
                              methods: Sequence[str] | None = None) -> TestReport:
    """Variance test from raw observations, using the n-1 denominator.

    Every observation must be finite; the error names the first that is not
    by its position, counted from 1.
    """
    n = len(sample)
    if n < 2:
        raise ValueError(f"need at least two observations, got {n}")
    for i, x in enumerate(sample, start=1):
        if not math.isfinite(x):
            raise ValueError(f"observation {i} must be finite, got {x!r}")
    import statistics

    try:
        s2 = statistics.variance(sample)
    except OverflowError:
        raise ValueError(f"the sample variance of the {n} observations overflows "
                         f"the float range") from None
    return variance_test(s2, n, sigma0_sq, anchor=anchor, methods=methods)


def f_test(s1_sq: float, n1: int, s2_sq: float, n2: int, *, anchor: TailAnchor = "mean",
           methods: Sequence[str] | None = None) -> TestReport:
    """Two-sample variance-ratio test of sigma1^2 = sigma2^2.

    The statistic s1_sq/s2_sq is referred to the F distribution with
    (n1-1, n2-1) degrees of freedom. The default mean anchor needs
    n2 >= 4; pass anchor="median" for smaller second samples.
    """
    for name, n in (("n1", n1), ("n2", n2)):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
    for name, v in (("s1_sq", s1_sq), ("s2_sq", s2_sq)):
        if not (v > 0.0) or not math.isfinite(v):
            raise ValueError(f"{name} must be positive, got {v!r}")
    statistic = s1_sq / s2_sq
    if not math.isfinite(statistic):
        raise ValueError(f"the statistic s1_sq / s2_sq overflows for s1_sq={s1_sq!r}, "
                         f"s2_sq={s2_sq!r}")
    return _report(FRatio(n1 - 1, n2 - 1), statistic, anchor, methods)


def binomial_test(x: int, n: int, p0: float, *, anchor: TailAnchor = "mean",
                  methods: Sequence[str] | None = None) -> TestReport:
    """Exact binomial test of P(success) = p0 from x successes in n trials."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(x, int) or not (0 <= x <= n):
        raise ValueError(f"x must be an integer in [0, {n}], got {x!r}")
    return _report(Binomial(n, p0), float(x), anchor, methods)


def fisher_exact(t: ContingencyTable, *, anchor: TailAnchor = "mean",
                 methods: Sequence[str] | None = None) -> TestReport:
    """Fisher's exact test of no association in a 2x2 table.

    Conditional on the margins, n11 follows the hypergeometric
    distribution; n11 itself is the test statistic.
    """
    _require_positive_margins(t)
    d = Hypergeometric(t.row1_total, t.col1_total, t.total)
    return _report(d, float(t.n11), anchor, methods)


def _require_positive_margins(t: ContingencyTable) -> None:
    if min(t.row1_total, t.row2_total, t.col1_total, t.col2_total) == 0:
        raise ValueError("degenerate table: every margin must be positive")


def davis_statistics(t: ContingencyTable) -> DavisStatistics:
    """The six table orderings evaluated at a concrete 2x2 table."""
    _require_positive_margins(t)
    d = Hypergeometric(t.row1_total, t.col1_total, t.total)
    n = t.total
    m11 = t.expected(1, 1)

    t1 = -d.pdf_or_pmf(t.n11)
    t2 = abs(t.n11 / t.col1_total - t.n12 / t.col2_total)
    t3 = abs(t.n11 / t.row1_total - t.n21 / t.row2_total)

    if 0 in (t.n11, t.n12, t.n21, t.n22):
        t4 = math.inf
    else:
        t4 = abs(math.log(t.odds_ratio_estimate()))

    t5 = (n ** 3 * (t.n11 - m11) ** 2
          / (t.row1_total * t.row2_total * t.col1_total * t.col2_total))

    terms = []
    for i in (1, 2):
        for j in (1, 2):
            nij = t.cell(i, j)
            if nij > 0:
                terms.append(nij * math.log(nij / t.expected(i, j)))
    t6 = 2.0 * math.fsum(terms)

    return DavisStatistics(t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, t6=t6)


def davis_ordering(row1: int, col1: int, total: int, which: str) -> list[tuple[int, ...]]:
    """n11 values of a margin family sorted by increasing statistic.

    Returns groups: each tuple collects n11 values whose statistics tie
    (relative tolerance 1e-9). Infinite values never tie with each other —
    they are ordered among themselves by decreasing null probability, the
    natural refinement for values the statistic itself cannot separate.
    """
    scored = []
    for k in Hypergeometric(row1, col1, total).support().points():
        t = ContingencyTable(n11=k, n12=row1 - k, n21=col1 - k, n22=total - row1 - col1 + k)
        stats = davis_statistics(t)
        scored.append((stats.by_id(which), stats.t1, t.n11))
    scored.sort()

    groups: list[tuple[int, ...]] = []
    current = [scored[0][2]]
    prev = scored[0][0]
    for stat, _, n11 in scored[1:]:
        tied = (math.isfinite(stat) and math.isfinite(prev)
                and abs(stat - prev) <= _ORDER_TIE_TOL * max(1.0, abs(prev)))
        if tied:
            current.append(n11)
        else:
            groups.append(tuple(current))
            current = [n11]
        prev = stat
    groups.append(tuple(current))
    return groups


def glr_statistic(x: float, n: int) -> float:
    """Generalized likelihood ratio for the one-sample variance test.

    Lambda = [(x/n) exp(1 - x/n)]^(n/2), maximal at x = n where it is 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"x must be positive, got {x!r}")
    ratio = x / n
    return (ratio * math.exp(1.0 - ratio)) ** (n / 2.0)
