"""Power, bias, and optimal-weight analysis for two-sided tests.

A two-sided critical region at level alpha rejects below c_L and above c_R,
with F(c_L) + S(c_R) = alpha. The doubled and conditional p-values fix the
left-tail weight w_L = F(c_L)/alpha, at 1/2 and at F(A). The unbiased (UMPU)
and minimum-likelihood regions instead make a level equal at both cuts,
c f(c) and the density f(c), and one search solves both. This module
computes the power of such regions against scale alternatives
(:func:`variance_power`, the one power function), the bias (minimum power
minus level), and the tabular/figure series summarizing all of it for the
binomial and hypergeometric test families.

The UMPU weight and the bias are defined for the two variance families,
chi-square and F, and for no other law. Their bias minimum over rho is in
closed form: the power F(rho*c_L) + S(rho*c_R) is stationary where
c_L f(rho*c_L) = c_R f(rho*c_R), which for chi-square and F has exactly one
root (see :func:`bias`).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from ._record import Record
from .dist import (
    Binomial,
    ChiSquare,
    Distribution,
    FRatio,
    Hypergeometric,
    TruncatedNormal,
    _Tables,
)
from .pvalue import (
    CONDITIONAL,
    DOUBLED,
    MIN_LIKELIHOOD,
    TailAnchor,
    _anchored_tail,
    _mass_no_likelier,
    _modified_scale,
    _partner,
    _tail_sum,
    p_conditional,
    p_doubled,
    p_min_likelihood,
    resolve_anchor,
    tail_weights,
)
from .roots import walk

__all__ = [
    "UMPU",
    "BIAS_METHODS",
    "CriticalRegion",
    "BiasReport",
    "critical_region_from_weights",
    "variance_power",
    "power_derivative_at_null",
    "umpu_weights",
    "minlik_region",
    "bias",
    "binomial_weight_table",
    "fisher_pvalue_table",
    "figure_data",
    "TABLE1_NS",
    "TABLE1_PS",
    "FIGURES",
]

UMPU = "umpu"
# region constructions whose bias can be computed
BIAS_METHODS = (DOUBLED, CONDITIONAL, UMPU, MIN_LIKELIHOOD)

TABLE1_NS = (10, 11, 20, 21, 50, 51, 100, 101, 200, 201, 500, 501, 1000, 1001)
TABLE1_PS = (0.1, 0.2)

FIGURES = ("fig1", "fig2", "fig3", "fig4")
_MAX_RESOLUTION = 100_000  # about 200 times the default 512; bounds fig1/fig3 time and memory
_MAX_TABLE_ROWS = 100_001  # as margins 100000,100000,300000 give; time and memory are linear

# bias minimization range over rho: the closed-form argmin is clamped to it
_RHO_LOG_LO = -4.0
_RHO_LOG_HI = 4.0


class CriticalRegion(Record):
    """Two-sided rejection region {x < c_left or x > c_right}.

    anchor is the point A with F(A) = F(c_left)/alpha — the tail split for
    which the conditional p-value reproduces exactly this region.
    """

    c_left: float
    c_right: float
    alpha: float
    w_left: float
    anchor: float


class BiasReport(Record):
    """Minimum power over scale alternatives, relative to the level."""

    method: str
    level: float
    min_power: float
    bias: float
    argmin_rho: float


def _region_cuts(d: Distribution, alpha: float, w_left: float) -> tuple[float, float]:
    """(c_left, c_right) of the level-alpha region with w_left*alpha in the left tail."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (0.0 < w_left < 1.0):
        raise ValueError(f"w_left must lie in (0, 1), got {w_left!r}")
    if d.is_discrete:
        raise ValueError("critical regions at exact level alpha need a continuous distribution")
    return d.quantile(w_left * alpha), d.quantile(1.0 - (1.0 - w_left) * alpha)


def critical_region_from_weights(d: Distribution, alpha: float, w_left: float) -> CriticalRegion:
    """The level-alpha region with probability w_left*alpha in the left tail."""
    c_left, c_right = _region_cuts(d, alpha, w_left)
    return CriticalRegion(c_left=c_left, c_right=c_right, alpha=alpha, w_left=w_left,
                          anchor=d.quantile(w_left))


def variance_power(d: Distribution, c_left: float, c_right: float, rho: float) -> float:
    """Power of the region {x < c_left or x > c_right} against the scale alternative rho.

    For a statistic X with X ~ chi2/rho (rho = null variance over true
    variance), the rejection probability is F(rho*c_left) + S(rho*c_right);
    the same form covers the variance-ratio test.
    """
    if not (rho > 0.0) or not math.isfinite(rho):
        raise ValueError(f"rho must be positive, got {rho!r}")
    return d.cdf(rho * c_left) + d.sf(rho * c_right)


def power_derivative_at_null(d: Distribution, alpha: float, w_left: float) -> float:
    """Minus the scale derivative of the power at the null: c_R f(c_R) - c_L f(c_L).

    Positive when the left tail carries too little weight, negative when it
    carries too much, zero exactly for the unbiased (UMPU) choice of w_left,
    where c_L f(c_L) = c_R f(c_R), and strictly decreasing in w_left. For
    chi-square(k) the natural-parameter form integral_{tails} x dF - alpha k
    is twice this value, since k F_{k+2}(t) = k F_k(t) - 2 t f_k(t). For
    F(d, d) it vanishes at w_left = 1/2: the equal-tails variance-ratio test
    is unbiased for equal sample sizes.
    """
    c_left, c_right = _region_cuts(d, alpha, w_left)
    return c_right * d.pdf_or_pmf(c_right) - c_left * d.pdf_or_pmf(c_left)


def _require_variance_law(d: Distribution, what: str) -> None:
    if not isinstance(d, (ChiSquare, FRatio)):
        raise ValueError(f"{what} are defined for the chi-square and F variance tests, "
                         f"not {type(d).__name__}")


def _out_of_range(d: Distribution, alpha: float) -> ValueError:
    return ValueError(f"the level-{alpha!r} region of {d!r} leaves the float range")


def _equal_level_region(d: Distribution, alpha: float, level: Callable,
                        peak: float) -> tuple[float, float]:
    """Cuts c_L < peak < c_R with level(c_L) = level(c_R) and F(c_L) + S(c_R) = alpha.

    The tail sum rises with c_L. From the lower alpha quantile (or just below
    the peak) :func:`walk` steps c_L toward the support's lower end while the
    sum is still at least alpha; c_R is its partner. The partner's error moves
    the weight, so both solve to brentq's tolerance near the float spacing.
    """
    sup = d.support()
    start = min(d.quantile(alpha), sup.lo + (peak - sup.lo) * (1.0 - 1e-9))
    left = walk(functools.cache(lambda t: _tail_sum(d, level, peak, t) - alpha),
                start, peak, sup.lo)
    right = None if left is None else _partner(d, level, peak, left)
    if right is None:
        raise _out_of_range(d, alpha)
    return left, right


@functools.lru_cache(maxsize=256)
def umpu_weights(d: Distribution, alpha: float) -> tuple[float, CriticalRegion]:
    """The left-tail weight w = F(c_L)/alpha making the level-alpha test unbiased.

    Its region equalizes c f(c), which peaks at df for chi-square and at 1 for
    F, the zero of power_derivative_at_null. Defined for those two variance
    tests; memoized per process (errors are not cached).
    """
    _require_variance_law(d, "UMPU weights")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    peak = float(d.df) if isinstance(d, ChiSquare) else 1.0
    c_left, c_right = _equal_level_region(d, alpha, lambda c: c * d.pdf_or_pmf(c), peak)
    w_star = d.cdf(c_left) / alpha
    return w_star, CriticalRegion(c_left=c_left, c_right=c_right, alpha=alpha, w_left=w_star,
                                  anchor=d.quantile(w_star))


def minlik_region(d: Distribution, alpha: float) -> tuple[float, float]:
    """Acceptance bounds (l, r) of the level-alpha minimum-likelihood test.

    Solves f(l) = f(r) with F(l) + 1 - F(r) = alpha, i.e. the
    highest-density region of probability 1 - alpha; rejection means
    p_min_likelihood below alpha. When the density at the lower support
    bound is at least the density at the upper alpha cut (a mode on that
    bound, or a truncation above the cut's level), the region degenerates
    to a single right-hand tail cut, where S equals alpha. That cut is walked
    to from the median, so it holds its digits where 1 - alpha rounds.
    """
    if d.is_discrete:
        raise ValueError("the minimum-likelihood region is defined for continuous densities")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    sup, peak = d.support(), d.mode_set()[0]  # a flat density raises: no mode
    f_lo = d.pdf_or_pmf(sup.lo)
    if f_lo > 0.0:  # a density that is 0 there stays two-sided
        upper = walk(lambda t: d.sf(t) - alpha, d.median(), sup.lo, sup.hi)
        if upper is None:
            raise _out_of_range(d, alpha)
        if f_lo >= d.pdf_or_pmf(upper):
            return sup.lo, upper
    return _equal_level_region(d, alpha, d.pdf_or_pmf, peak)


def _region_for_method(d: Distribution, method: str, alpha: float,
                       anchor: TailAnchor) -> tuple[float, float]:
    """(c_left, c_right) of the level-alpha region for a method."""
    if method == DOUBLED:
        return _region_cuts(d, alpha, 0.5)
    if method == CONDITIONAL:
        return _region_cuts(d, alpha, tail_weights(d, resolve_anchor(d, anchor)).w_left)
    if method == UMPU:
        _, region = umpu_weights(d, alpha)
        return region.c_left, region.c_right
    if method == MIN_LIKELIHOOD:
        return minlik_region(d, alpha)
    raise ValueError(f"unknown bias method {method!r}; expected one of {BIAS_METHODS}")


def _stationary_rho(d: ChiSquare | FRatio, c_left: float, c_right: float) -> float:
    """The one root in rho of c_L f(rho*c_L) = c_R f(rho*c_R); +inf when c_L = 0."""
    if c_left <= 0.0:
        return math.inf
    if isinstance(d, ChiSquare):
        return d.df * math.log(c_right / c_left) / (c_right - c_left)
    a = d.d1 / 2.0
    b = d.d2 / 2.0
    t = (a / (a + b)) * math.log(c_left / c_right)
    return d.d2 * -math.expm1(t) / (d.d1 * (math.exp(t) * c_right - c_left))


def bias(d: Distribution, method: str, alpha: float, *,
         anchor: TailAnchor = "mean") -> BiasReport:
    """Minimum of power(rho) - alpha over scale alternatives rho in [e^-4, e^4].

    Defined for the chi-square and F variance tests; any other law raises
    ``ValueError``. The power F(rho*c_L) + S(rho*c_R) has derivative
    c_L f(rho*c_L) - c_R f(rho*c_R). Its sign is that of
    g(rho) = log(c_L f(rho*c_L)) - log(c_R f(rho*c_R)), and g has exactly
    one root, so that root is the minimum:

    - chi-square(k): g(rho) = (k/2) log(c_L/c_R) + rho (c_R - c_L)/2 is
      linear and increasing, with root rho* = k log(c_R/c_L) / (c_R - c_L);
    - F(d1, d2), with a = d1/2, b = d2/2: g increases monotonically from
      a log(c_L/c_R) < 0 at rho -> 0 to -b log(c_L/c_R) > 0 at rho -> inf;
      with t = (a/(a+b)) log(c_L/c_R) and r = e^t the root is
      rho* = d2 (1 - r) / (d1 (r c_R - c_L)).

    At rho = 1 the condition reads c_L f(c_L) = c_R f(c_R), the zero of
    :func:`power_derivative_at_null`, so :func:`_stationary_rho` returns 1
    exactly when that derivative vanishes: the UMPU region's minimum power
    is its level, and its bias is 0 up to rounding.

    rho* is clamped to [e^-4, e^4]. When c_L sits on the support's lower
    end (minimum likelihood with a mode at 0) the power decreases
    throughout, rho* is +inf and the clamp returns e^4.
    """
    _require_variance_law(d, "bias reports")
    c_left, c_right = _region_for_method(d, method, alpha, anchor)
    rho_star = _stationary_rho(d, c_left, c_right)
    argmin_rho = min(max(rho_star, math.exp(_RHO_LOG_LO)), math.exp(_RHO_LOG_HI))
    min_power = variance_power(d, c_left, c_right, argmin_rho)
    return BiasReport(method=method, level=alpha, min_power=min_power,
                      bias=min_power - alpha, argmin_rho=argmin_rho)


def binomial_weight_table(ns: Sequence[int] = TABLE1_NS,
                          ps: Sequence[float] = TABLE1_PS) -> list[dict]:
    """Tail weights of the binomial about the mean anchor, one row per (n, p).

    Columns: n, p, w_left = P(X <= np), weight_ratio = w_left/w_right, and
    w_left_modified = w_left/(1 + P(np)) when the mean np is attainable
    (equal to w_left otherwise).
    """
    rows = []
    for n in ns:
        for p in ps:
            d = Binomial(n, p)
            a = d.mean()
            w = tail_weights(d, a)
            rows.append({
                "n": n,
                "p": p,
                "w_left": w.w_left,
                "weight_ratio": w.w_left / w.w_right,
                "w_left_modified": w.w_left / _modified_scale(d, a),
            })
    return rows


def fisher_pvalue_table(row1: int, col1: int, total: int) -> list[dict]:
    """Per-table p-values across a whole margin family, one row per n11.

    Columns: n11, prob = P(n11), p_one_sided = min of the two inclusive
    tails, p_min_likelihood, and p_conditional about the mean anchor. At
    most 100,001 rows: a larger family is a ``ValueError``.

    The family spans the whole support, so the rows are read from the full
    window, fetched once, rather than point by point through the cache:
    the floats are those of ``pdf_or_pmf``, ``cdf``, ``sf``,
    :func:`p_min_likelihood` and :func:`p_conditional` at each point, by
    the same tie rule and anchored-tail division.
    """
    d = Hypergeometric(row1, col1, total)
    lo, hi = d._bounds()
    if hi - lo + 1 > _MAX_TABLE_ROWS:
        raise ValueError(f"the margin family has {hi - lo + 1} tables; "
                         f"at most {_MAX_TABLE_ROWS} are tabulated")
    a = d.mean()
    w = tail_weights(d, a)
    t = d._read(_Tables.full, None)
    points = range(lo, hi + 1)
    # no row reads the end clamps of cdf/sf: at hi, the one-sided min takes upper <= lower,
    # and _anchored_tail reads lower only below the anchor and upper only above it (lo mirrors)
    # k compares with the float anchor exactly, as float(k) does
    return [{"n11": k,
             "prob": prob,
             "p_one_sided": min(t.lower(k), t.upper(k)),
             "p_min_likelihood": _mass_no_likelier(prob, t.mass_at_most),
             "p_conditional": min(1.0, _anchored_tail(t.lower, t.upper, k, a, w))}
            for k, prob in zip(points, map(t.mass, points))]


def _fig1(resolution: int) -> tuple[list[str], list[tuple]]:
    d = ChiSquare(5)
    methods = (MIN_LIKELIHOOD, DOUBLED, CONDITIONAL, UMPU)
    regions = [_region_for_method(d, m, 0.05, "mean") for m in methods]
    lo, hi = 0.05, 6.0
    grid = sorted({lo + (hi - lo) * i / (resolution - 1) for i in range(resolution)} | {1.0})
    header = ["rho"] + [f"power_{m}" for m in methods]
    rows = []
    for rho in grid:
        rows.append(tuple([rho] + [variance_power(d, cl, cr, rho) for cl, cr in regions]))
    return header, rows


def _fig2(resolution: int) -> tuple[list[str], list[tuple]]:
    del resolution  # sample sizes are a fixed integer range
    alpha = 0.05
    header = ["panel", "n", "bias_doubled", "bias_conditional"]
    rows = []
    # two-sample panel: first sample of size 6; the mean anchor needs n2 >= 4
    for panel, n_first, law in (("one_sample", 3, ChiSquare),
                                ("two_sample", 4, lambda df: FRatio(5, df))):
        for n in range(n_first, 51):
            d = law(n - 1)
            rows.append((panel, n,
                         bias(d, DOUBLED, alpha).bias,
                         bias(d, CONDITIONAL, alpha).bias))
    return header, rows


def _fig3(resolution: int) -> tuple[list[str], list[tuple]]:
    header = ["panel", "x", "p_min_likelihood", "p_doubled_raw", "p_conditional"]
    rows = []
    for panel, d, lo, width in (("chisq5", ChiSquare(5), 0.0, 20.0),
                                ("truncnorm05", TruncatedNormal(0.5), -0.5, 4.5)):
        anchor = d.mean()
        for i in range(resolution + 1):
            x = lo + width * i / resolution
            rows.append((panel, x,
                         p_min_likelihood(d, x),
                         p_doubled(d, x, anchor, truncate=False),
                         p_conditional(d, x, anchor)))
    return header, rows


def _fig4(resolution: int) -> tuple[list[str], list[tuple]]:
    del resolution  # support is a fixed integer range
    header = ["panel", "x", "p_min_likelihood", "p_conditional",
              "p_conditional_modified", "p_doubled"]
    rows = []
    for panel, n in (("binom10", 10), ("binom11", 11)):
        d = Binomial(n, 0.2)
        a = d.mean()
        for k in d.support().points():
            x = float(k)
            rows.append((panel, x,
                         p_min_likelihood(d, x),
                         p_conditional(d, x, a),
                         p_conditional(d, x, a, modified=True),
                         p_doubled(d, x)))
    return header, rows


def figure_data(which: str, resolution: int = 512) -> tuple[list[str], list[tuple]]:
    """Deterministic (header, rows) series behind each published figure.

    fig1: power of the four 5%-level chi-square(5) variance tests over rho.
    fig2: bias of the doubled and conditional variance tests by sample size
          (one-sample chi-square panel; two-sample panel with n1 = 6).
    fig3: the three p-value curves for chi-square(5) and the normal
          truncated at -0.5 (doubled series untruncated, as plotted).
    fig4: the four p-value curves across the support of binomial(10, 0.2)
          and binomial(11, 0.2).

    resolution (4 to 100,000) controls continuous grids (fig1,
    fig3); fig2 and fig4 use fixed integer ranges.
    """
    if not isinstance(which, str) or which not in FIGURES:
        raise ValueError(f"unknown figure {which!r}; expected one of {FIGURES}")
    if not isinstance(resolution, int) or isinstance(resolution, bool) or resolution < 4:
        raise ValueError(f"resolution must be an integer >= 4, got {resolution!r}")
    if resolution > _MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {_MAX_RESOLUTION}, got {resolution!r}")
    builder = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4}[which]
    return builder(resolution)
