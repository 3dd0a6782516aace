"""Distribution families used as null distributions for two-sided testing.

Continuous families: chi-square, the F ratio, the uniform, an asymmetric
triangular, and a left-truncated standard normal. Discrete families: the
binomial and Fisher's noncentral hypergeometric; the central
hypergeometric (Fisher's exact null) is its odds-1 case, a subclass that
takes only the margins.

Discrete conventions differ across libraries, so they are pinned here:

- ``cdf(x)`` is P(X <= floor(x)).
- ``sf(x)`` is the inclusive upper tail P(X >= ceil(x)). In particular
  ``sf(k)`` at a support point k includes the mass at k, matching the
  one-sided p-value convention of exact tests.
- ``quantile(p)`` is the smallest support point whose cdf reaches p. Above
  p = 1/2 it is read from the upper tails, as the smallest k with
  ``sf(k + 1) <= 1 - p``: 1 - p is exact there and the small tail sums
  keep the digits that the running cdf sums near 1 have lost.
- ``median()`` is ``quantile(0.5)``.
- ``mode_set()`` scans the mass function and returns every argmax (two
  neighbouring points tie at certain parameter boundaries).

All instances are immutable. A discrete family builds its mass and tail
tables from the mass ratio pmf(k + 1) / pmf(k): starting from weight 1 at
the mode, it multiplies outward until the weights underflow to 0 or stop
shrinking, so the full window covers the points around the mode rather
than the whole support (for large supports, about 38.6 standard deviations
on each side, where exp(-z**2 / 2) underflows). Support points outside it
have mass 0. A law whose window would pass ``_MAX_SIDE`` points on either
side of the mode is refused with a ``ValueError`` before the walk. The
tables of the most recently used distribution are cached; every caller
reads one law at a time.

The full window gives the floats of the plain recipe (a ratio call per
step, ``math.fsum`` of the weights, every running sum clamped with
``min(v, 1.0)``), cheaply:

- ``_ratios(ks)`` yields the ratios lazily, so a walk computes only those
  it reads, each from the same expression. ``w * r if r < 1.0 else w``
  equals ``w * min(1.0, r)`` because ``w * 1.0 == w``.
- ``_exact_sum`` returns ``math.fsum`` of nonnegative floats. The values
  below ``cut``, a power of two near 2**-100 times the largest, sum to
  less than ``bound = count * cut``, which is exact. fsum rounds
  correctly and rounding is monotone, so when the other values and those
  plus ``bound`` round to the same float, the full sum, which lies between
  them, rounds to it too. Otherwise it falls back to fsum over all values.
- Running sums of nonnegative masses never fall (rounding is monotone),
  so the sums above 1 form a suffix, set to 1.0 after one bisection.

A p-value of the paper reads only a few points of a law, near x and its
partner, so the cache first holds a core window: the same walk, which also
stops at the first weight below ``_FLOOR`` = 2**-120. The core serves a
query only where every float it reads is provably the full window's;
otherwise the full window is built and replaces the core in the cache.
Each float the core serves is the full window's because:

- The omitted weights on a side are bounded. Write u = 2**-53. The ratios
  computed by ``_ratios`` fall with k, as float functions too, because
  each is a chain of monotone roundings of integer products and fixed
  factors. So past the first dropped weight w every step multiplies by at
  most rho = r * (1 + u), where r is the next ratio (its inverse on the
  left), whenever the product is a normal float. The normal weights past
  w sum to at most w / (1 - rho). The subnormal ones strictly fall (a walk
  stops where a weight repeats), so they are distinct multiples of 2**-1074
  below 2**-1022, whose sum is below 2**-971. ``_weight_bound`` returns
  w / (1 - rho) + 2**-960, with ``_UP`` = 1 + 2**-50 factors to undo the
  few roundings on the way. Where rho is not below 1 there is no bound,
  and where the walk ends the support after w the bound is w itself.
- The total is decided. ``_exact_sum(values, omitted)`` widens the cut
  argument by ``omitted``: fsum of the full window is the rounded sum of
  the core weights plus something in [0, omitted], so when the core and
  the core plus ``bound + omitted`` round to the same float, that float is
  it. Otherwise it tries fsum of the core with and without ``omitted``,
  and where those differ it returns None, and the full window is built.
  So the core's pmf is the full window's, value for value.
- The mass the core leaves out on a side, and its running sum, are at
  most the weight bound over the total times ``_SUMS_UP`` = 1 + 2**-10. A
  left-out mass is a weight over the total (at least 1), rounded once: up
  to a factor 1 + u, or by 2**-1075 in the subnormals, which the 2**-960
  of the weight bound absorbs for c at most ``_MAX_LEFT_OUT`` = 2**40
  points. Their running sum gains at most a factor (1 + u)**c < 1 + 2**-12;
  past 2**40 points there is no bound.
- The trusted tail range. The full window's running sum at the core's
  edge lies in [0, bound], so, as rounded addition is monotone, its sum at
  each core point lies between the core's own run from 0 and a second run
  from the bound. Where the two runs agree, the core's float is the full
  window's; once equal they stay equal, so agreement is a suffix of the
  cdf (``cdf_from`` on) and a prefix of the sf (up to ``sf_to``), found
  by one bisection each.
- Past the core. Under a decided total the core holds all but about 2**-50
  of the mass, so its last cdf and first sf exceed 1/2. A left-out mass is
  below 2**-120, less than half an ulp of such a sum, so the full window's
  sums keep that value across the points the core left out, and the core
  serves it beyond its edge if it is trusted. Any other read past a cut
  side, or of an untrusted tail, goes to the full window.
- The noncentral mean sums k * pmf(k); each left-out term is at most
  ``hi`` times its mass, so ``hi`` times the two bounds widen its total.
  The modes are within 1e-9 of the top mass, which the core always holds.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import accumulate
from typing import Any, NamedTuple

from . import specfun
from ._record import Record

__all__ = [
    "Support",
    "Distribution",
    "ChiSquare",
    "FRatio",
    "Uniform",
    "Triangular",
    "TruncatedNormal",
    "Binomial",
    "Hypergeometric",
    "NoncentralHypergeometric",
]

_LN2 = math.log(2.0)

# two masses of a law within this relative tolerance are tied (modes, and
# the min-likelihood cut in pvalue)
_TIE_TOL = 1e-9

# the most table points on either side of the mode; the tables and the walk
# take about 180 bytes per point at their peak
_MAX_SIDE = 1_000_000

# the core window also stops at the first weight below this, relative to 1
# at the mode; it holds every float a p-value of the paper reads
_FLOOR = 2.0**-120

# the most support points past a side of the core for which its bound holds
_MAX_LEFT_OUT = 2**40

# a factor that lifts a float above the same value with a few roundings
# undone, and one that also covers 2**40 roundings of running sums
_UP = 1.0 + 2.0**-50
_SUMS_UP = 1.0 + 2.0**-10


class Support(Record):
    """Closed support interval; discrete supports are contiguous integers."""

    lo: float
    hi: float
    is_discrete: bool

    def points(self) -> range:
        if not self.is_discrete:
            raise TypeError("points() is only defined for discrete supports")
        return range(int(self.lo), int(self.hi) + 1)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class Distribution:
    """Shared interface. A law defines ``support``, ``cdf``, ``sf`` (the
    upper tail, inclusive of x for discrete laws), ``pdf_or_pmf`` (density
    or probability mass at x), ``quantile``, ``mean`` and ``mode_set`` (all
    global maximizers of the density or mass function)."""

    is_discrete: bool = False

    def median(self) -> float:
        return self.quantile(0.5)


def _check_prob_open(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie in (0, 1), got {p!r}")


# ---------------------------------------------------------------------------
# continuous families


class ChiSquare(Distribution, Record):
    """Chi-square with ``df`` degrees of freedom."""

    df: int

    def __post_init__(self) -> None:
        if operator.index(self.df) < 1:
            raise ValueError(f"df must be a positive integer, got {self.df!r}")

    def support(self) -> Support:
        return Support(0.0, math.inf, False)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return specfun.reg_gamma_lower(self.df / 2.0, x / 2.0)

    def sf(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        return specfun.reg_gamma_upper(self.df / 2.0, x / 2.0)

    def pdf_or_pmf(self, x: float) -> float:
        k = self.df
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if k < 2:
                return math.inf
            return 0.5 if k == 2 else 0.0
        half = k / 2.0
        return math.exp((half - 1.0) * math.log(x) - 0.5 * x - half * _LN2 - math.lgamma(half))

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return 2.0 * specfun.inv_reg_gamma_lower(self.df / 2.0, p)

    def mean(self) -> float:
        return float(self.df)

    def mode_set(self) -> list[float]:
        return [float(max(self.df - 2, 0))]


class FRatio(Distribution, Record):
    """F distribution with ``d1`` numerator and ``d2`` denominator df."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if operator.index(self.d1) < 1 or operator.index(self.d2) < 1:
            raise ValueError(f"degrees of freedom must be positive integers, got {self.d1!r}, {self.d2!r}")

    def support(self) -> Support:
        return Support(0.0, math.inf, False)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        d1x = self.d1 * x
        # past the float range d1*x/(d1*x + d2) would be inf/inf; it rounds to 1
        y = 1.0 if d1x == math.inf else d1x / (d1x + self.d2)
        return specfun.reg_beta(y, self.d1 / 2.0, self.d2 / 2.0)

    def sf(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        # complement through the swapped-parameter identity keeps the far
        # tail accurate instead of cancelling against 1
        y = self.d2 / (self.d1 * x + self.d2)
        return specfun.reg_beta(y, self.d2 / 2.0, self.d1 / 2.0)

    def pdf_or_pmf(self, x: float) -> float:
        d1, d2 = self.d1, self.d2
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if d1 < 2:
                return math.inf
            return 1.0 if d1 == 2 else 0.0
        a, b = d1 / 2.0, d2 / 2.0
        log_pdf = (a * math.log(d1 / d2) + (a - 1.0) * math.log(x)
                   - (a + b) * math.log1p(d1 * x / d2) - specfun._log_beta(a, b))
        return math.exp(log_pdf)

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        y = specfun.inv_reg_beta(p, self.d1 / 2.0, self.d2 / 2.0)
        return self.d2 * y / (self.d1 * (1.0 - y))

    def mean(self) -> float:
        if self.d2 <= 2:
            raise ValueError(f"mean is undefined for denominator df <= 2, got {self.d2}")
        return self.d2 / (self.d2 - 2.0)

    def mode_set(self) -> list[float]:
        if self.d1 <= 2:
            return [0.0]
        return [(self.d1 - 2.0) * self.d2 / (self.d1 * (self.d2 + 2.0))]


class Uniform(Distribution, Record):
    """Uniform on [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.upper - self.lower) or self.lower >= self.upper:
            raise ValueError("need lower < upper with a finite width upper - lower, "
                             f"got {self.lower!r}, {self.upper!r}")

    def support(self) -> Support:
        return Support(self.lower, self.upper, False)

    def cdf(self, x: float) -> float:
        if x <= self.lower:
            return 0.0
        if x >= self.upper:
            return 1.0
        return (x - self.lower) / (self.upper - self.lower)

    def sf(self, x: float) -> float:
        if x <= self.lower:
            return 1.0
        if x >= self.upper:
            return 0.0
        return (self.upper - x) / (self.upper - self.lower)

    def pdf_or_pmf(self, x: float) -> float:
        if self.lower <= x <= self.upper:
            return 1.0 / (self.upper - self.lower)
        return 0.0

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return self.lower + p * (self.upper - self.lower)

    def mean(self) -> float:
        return 0.5 * self.lower + 0.5 * self.upper  # the sum may overflow

    def mode_set(self) -> list[float]:
        raise ValueError("the uniform density is flat, so its mode is not unique")


class Triangular(Distribution, Record):
    """Asymmetric triangular density on [-left, right] peaking at 0.

    ``left`` and ``right`` are the positive distances from the peak to the
    two endpoints; the density rises linearly on [-left, 0] and falls
    linearly on [0, right].
    """

    left: float
    right: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.left + self.right) or self.left <= 0.0 or self.right <= 0.0:
            raise ValueError("need left > 0 and right > 0 with a finite width left + right, "
                             f"got {self.left!r}, {self.right!r}")

    def support(self) -> Support:
        return Support(-self.left, self.right, False)

    # each tail is computed directly on its side of the peak; past the peak,
    # where it holds at least min(a, b) / (a + b), it is 1 minus the other
    def cdf(self, x: float) -> float:
        a, b = self.left, self.right
        if x <= -a:
            return 0.0
        if x > 0.0:
            return 1.0 - self.sf(x)
        # grouped so that cdf(0) evaluates to exactly a / (a + b)
        return ((x + a) / a) * ((x + a) / (a + b))

    def sf(self, x: float) -> float:
        a, b = self.left, self.right
        if x >= b:
            return 0.0
        if x <= 0.0:
            return 1.0 - self.cdf(x)
        return ((b - x) / b) * ((b - x) / (a + b))

    def pdf_or_pmf(self, x: float) -> float:
        a, b = self.left, self.right
        if x < -a or x > b:
            return 0.0
        if x <= 0.0:
            return 2.0 * ((x + a) / a) / (a + b)
        return 2.0 * ((b - x) / b) / (a + b)

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        a, b = self.left, self.right
        split = a / (a + b)
        # two roots, so that no product of the widths overflows
        if p <= split:
            return -a + math.sqrt(p * a) * math.sqrt(a + b)
        return b - math.sqrt((1.0 - p) * b) * math.sqrt(a + b)

    def mean(self) -> float:
        return (self.right - self.left) / 3.0

    def mode_set(self) -> list[float]:
        return [0.0]


class TruncatedNormal(Distribution, Record):
    """Standard normal conditioned on X >= -cutoff, for cutoff > 0.

    The mode stays at 0 while the mean shifts right, which makes this a
    handy asymmetric family with unbounded support.
    """

    cutoff: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.cutoff) or self.cutoff <= 0.0:
            raise ValueError(f"cutoff must be finite and > 0, got {self.cutoff!r}")

    def _tail_mass(self) -> float:
        # P(Z >= -cutoff) for a standard normal Z
        return 1.0 - specfun.norm_cdf(-self.cutoff)

    def support(self) -> Support:
        return Support(-self.cutoff, math.inf, False)

    def cdf(self, x: float) -> float:
        if x <= -self.cutoff:
            return 0.0
        lo = specfun.norm_cdf(-self.cutoff)
        return (specfun.norm_cdf(x) - lo) / (1.0 - lo)

    def sf(self, x: float) -> float:
        # the upper tail of Z directly: 1 - cdf(x) cancels once cdf(x) nears 1
        if x <= -self.cutoff:
            return 1.0
        return specfun.norm_cdf(-x) / self._tail_mass()

    def pdf_or_pmf(self, x: float) -> float:
        if x < -self.cutoff:
            return 0.0
        return specfun.norm_pdf(x) / self._tail_mass()

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        lo = specfun.norm_cdf(-self.cutoff)
        return specfun.norm_quantile(lo + p * (1.0 - lo))

    def mean(self) -> float:
        return specfun.norm_pdf(-self.cutoff) / self._tail_mass()

    def mode_set(self) -> list[float]:
        return [0.0]


# ---------------------------------------------------------------------------
# discrete families


class _Tables(NamedTuple):
    """Mass and tails over the window [first, first + len(pmf) - 1].

    The full window has every point whose weight the walk does not drop:
    each support point outside it has mass 0, so to its left cdf is 0 and
    sf is sf[0], to its right cdf is cdf[-1] and sf is 0. A core window
    leaves out the points past each side whose bound is not 0, and holds the
    full window's floats only for the pmf, cdf from ``cdf_from`` on and sf
    up to ``sf_to``. Each query below returns None where the core cannot
    serve it exactly (see the module docstring); the full window serves
    every query.
    """

    first: int
    mode: int          # index of the largest mass
    pmf: list[float]   # rises to pmf[mode], then falls
    cdf: list[float]   # cdf[i] = P(X <= first + i)
    sf: list[float]    # sf[i] = P(X >= first + i), inclusive
    cdf_from: int      # the first index whose cdf is the full window's
    sf_to: int         # the last index whose sf is the full window's
    left_out: float    # bound on the mass left out on the left, 0 if none
    right_out: float   # bound on the mass left out on the right, 0 if none

    def mass(self, k: int) -> float | None:
        i = k - self.first
        if 0 <= i < len(self.pmf):
            return self.pmf[i]
        return None if (self.left_out if i < 0 else self.right_out) else 0.0

    # lower, upper and mass_at_most are the per-point reads of a whole table
    # (analysis.fisher_pvalue_table), so they avoid min/max calls
    def lower(self, k: int) -> float | None:
        """P(X <= k)."""
        cdf = self.cdf
        i = k - self.first
        if i >= len(cdf):
            i = len(cdf) - 1
        if i >= self.cdf_from:
            return cdf[i]
        return None if i >= 0 or self.left_out else 0.0

    def upper(self, k: int) -> float | None:
        """P(X >= k)."""
        i = k - self.first
        if i < 0:
            i = 0
        if i <= self.sf_to:
            return self.sf[i]
        return None if i < len(self.sf) or self.right_out else 0.0

    def quantile(self, p: float) -> int | None:
        if p > 0.5:
            # the first index j >= 1 with sf[j] <= 1 - p, or len(sf) past the
            # window, where sf is 0; the answer is the point before it
            j = bisect_left(self.sf, p - 1.0, 1, key=operator.neg)
            exact = j <= self.sf_to or (j == len(self.sf) and not self.right_out)
            return self.first - 1 + j if exact else None
        j = bisect_left(self.cdf, p)
        return self.first + j if j > self.cdf_from or not self.left_out else None

    def mass_at_most(self, cut: float) -> float | None:
        # the masses rise to the mode and fall after it, so the points whose
        # mass is at most cut are a prefix [0, a) and a suffix [b, end)
        pmf, mode = self.pmf, self.mode
        a = bisect_right(pmf, cut, 0, mode + 1)
        b = bisect_left(pmf, -cut, a if a > mode else mode, key=operator.neg)
        low, high = self.lower(self.first + a - 1), self.upper(self.first + b)
        return None if low is None or high is None else low + high

    def full(self, _: None = None) -> _Tables | None:
        """These tables if they are the full window (nothing left out)."""
        return None if self.left_out or self.right_out else self

    def mean(self, hi: int) -> float | None:
        # each point left out is at most hi, and its mass is in the bounds
        return _exact_sum([(self.first + i) * v for i, v in enumerate(self.pmf)],
                          hi * (self.left_out + self.right_out) * _UP)


def _exact_sum(values: list[float], omitted: float = 0.0) -> float | None:
    """``math.fsum(values + [s])`` for every s in [0, omitted] where that is
    one float, else None, for nonnegative finite values; mostly cheaper
    than fsum (see the module docstring for why it is exact)."""
    cut = math.ldexp(1.0, math.frexp(max(values))[1] - 100)
    big = [v for v in values if v >= cut]
    total = math.fsum(big)
    if len(big) == len(values) and not omitted:
        return total
    big += [(len(values) - len(big)) * cut, omitted]
    if math.fsum(big) == total:
        return total
    total = math.fsum(values)
    return total if not omitted or math.fsum([*values, omitted]) == total else None


def _tail_sums(masses: list[float], omitted: float) -> tuple[list[float], int]:
    """Running sums of nonnegative masses, those past 1 (a suffix) set to
    1.0, and the first index from which every run that starts from a value
    in [0, omitted] gives the same sums."""
    sums = list(accumulate(masses))
    first = 0
    if omitted:
        upper = list(accumulate(masses, initial=omitted))
        first = bisect_left(range(len(sums)), True, key=lambda i: sums[i] == upper[i + 1])
    cut = bisect_right(sums, 1.0)
    sums[cut:] = [1.0] * (len(sums) - cut)
    return sums, first


def _weight_bound(w: float, r: float | None, count: int, left: bool) -> float:
    """A bound on the weights that a walk leaves out from ``w``, the first
    one below the floor, on: ``r`` is the next ratio the walk would read
    (None past the support) and ``count`` the points from w's to the end
    of the support; inf where there is no bound."""
    if r is None:
        return w
    rho = (1.0 / r if left else r) * _UP
    if rho >= 1.0 or count > _MAX_LEFT_OUT:
        return math.inf
    return w / (1.0 - rho) * _UP + 2.0**-960


def _build_tables(d: "_Discrete", floor: float = 0.0) -> _Tables | None:
    """The full window for floor 0. Otherwise the core, which also stops at
    the first weight below ``floor``, or None where its total is not
    decided."""
    lo, hi = d._bounds()
    # the ratio falls strictly (the families are log-concave), so the
    # mode is the first point whose ratio is at most 1
    mode = lo + bisect_left(range(lo, hi), True, key=lambda k: next(d._ratios((k,))) <= 1.0)
    # the ratios fall, so the weight _MAX_SIDE points right of the mode is at
    # least r(mode + _MAX_SIDE - 1) ** _MAX_SIDE, and _MAX_SIDE points left at
    # least r(mode - _MAX_SIDE) ** -_MAX_SIDE; above exp(-745) a weight is not
    # yet 0, so the walk would go on
    if ((mode + _MAX_SIDE <= hi
         and _MAX_SIDE * math.log(next(d._ratios((mode + _MAX_SIDE - 1,)))) > -745.0)
            or (mode - _MAX_SIDE >= lo
                and _MAX_SIDE * math.log(next(d._ratios((mode - _MAX_SIDE,)))) < 745.0)):
        raise ValueError(f"{d!r} has mass on more than {_MAX_SIDE} points on one side of "
                         f"its mode; the tables hold at most {_MAX_SIDE}")
    # weights relative to 1 at the mode; clamping the ratios to 1 keeps the
    # array unimodal under rounding. A walk stops where the weight
    # underflows to 0 or stops shrinking (subnormals round back to
    # themselves); only the first step may tie with the mode.
    right: list[float] = []
    right_out = 0.0
    w = 1.0
    ratios = d._ratios(range(mode, hi))
    for r in ratios:
        nxt = w * r if r < 1.0 else w
        if nxt == 0.0 or (nxt == w and right):
            break
        if nxt < floor:
            right_out = _weight_bound(nxt, next(ratios, None), hi - mode - len(right), False)
            break
        right.append(nxt)
        w = nxt
    left: list[float] = []
    left_out = 0.0
    w = 1.0
    ratios = d._ratios(range(mode - 1, lo - 1, -1))
    for r in ratios:
        nxt = w / r if r > 1.0 else w
        if nxt == 0.0 or (nxt == w and left):
            break
        if nxt < floor:
            left_out = _weight_bound(nxt, next(ratios, None), mode - len(left) - lo, True)
            break
        left.append(nxt)
        w = nxt
    left.reverse()
    raw = left + [1.0] + right
    total = _exact_sum(raw, (left_out + right_out) * _UP)
    if total is None:
        return None
    pmf = [v / total for v in raw]
    # the bounds on the masses and on their running sums that are left out
    left_out = left_out / total * _SUMS_UP
    right_out = right_out / total * _SUMS_UP
    # running sums may pass 1 by rounding at their far end
    cdf, cdf_from = _tail_sums(pmf, left_out)
    sf, sf_from = _tail_sums(pmf[::-1], right_out)
    sf.reverse()
    return _Tables(mode - len(left), len(left), pmf, cdf, sf, cdf_from, len(sf) - 1 - sf_from,
                   left_out, right_out)


@lru_cache(maxsize=1)
def _discrete_tables(d: "_Discrete") -> list[_Tables]:
    """A law's cached tables, in a one-item list: its core window until a
    query reads past it."""
    return [_build_tables(d, _FLOOR) or _build_tables(d)]


class _Discrete(Distribution):
    """Base for integer-supported families.

    A family defines ``_bounds()``, its support bounds, and ``_ratios(ks)``,
    a lazy iterator of the mass ratios ``pmf(k + 1) / pmf(k)`` at the points
    ``ks``; the tables are built from them over a window around the mode,
    with the total from ``_exact_sum``, and cached. The module docstring says why
    the build is exact.
    """

    is_discrete = True

    def _read(self, query: Callable[[_Tables, Any], Any], arg: Any) -> Any:
        """``query(tables, arg)`` on the cached tables; where the core cannot
        answer it exactly, on the full window, which from then on replaces
        the core in the cache."""
        slot = _discrete_tables(self)
        value = query(slot[0], arg)
        if value is None:
            slot[0] = _build_tables(self)
            value = query(slot[0], arg)
        return value

    def support(self) -> Support:
        lo, hi = self._bounds()
        return Support(float(lo), float(hi), True)

    def pdf_or_pmf(self, x: float) -> float:
        if not float(x).is_integer():
            raise ValueError(f"{type(self).__name__} is discrete; mass requested at non-integer {x!r}")
        return self._read(_Tables.mass, int(x))

    def cdf(self, x: float) -> float:
        lo, hi = self._bounds()
        if x < lo:
            return 0.0
        return 1.0 if x >= hi else self._read(_Tables.lower, math.floor(x))

    def sf(self, x: float) -> float:
        lo, hi = self._bounds()
        if x <= lo:
            return 1.0
        return 0.0 if x > hi else self._read(_Tables.upper, math.ceil(x))

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return float(self._read(_Tables.quantile, p))

    def mass_at_most(self, cut: float) -> float:
        """Total mass of the support points whose mass is at most ``cut``."""
        return self._read(_Tables.mass_at_most, cut)

    def mode_set(self) -> list[float]:
        t = _discrete_tables(self)[0]
        top = t.pmf[t.mode]
        return [float(t.first + i) for i, v in enumerate(t.pmf) if v >= top * (1.0 - _TIE_TOL)]


class Binomial(_Discrete, Record):
    """Binomial with ``n`` trials and success probability ``p``."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if operator.index(self.n) < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly in (0, 1), got {self.p!r}")

    def _bounds(self) -> tuple[int, int]:
        return 0, self.n

    def _ratios(self, ks: Iterable[int]) -> Iterator[float]:
        n, p = self.n, self.p
        q = 1.0 - p
        return ((n - k) * p / ((k + 1) * q) for k in ks)

    def mean(self) -> float:
        return self.n * self.p


class NoncentralHypergeometric(_Discrete, Record):
    """Fisher's noncentral hypergeometric: the count in cell (1,1) of a 2x2
    table with fixed margins when the underlying odds ratio is ``odds``.

    ``row1`` and ``col1`` are the first row and column totals and ``total``
    the table total.
    """

    row1: int
    col1: int
    total: int
    odds: float

    def __post_init__(self) -> None:
        r, c, n = operator.index(self.row1), operator.index(self.col1), operator.index(self.total)
        if n < 1 or not (0 <= r <= n) or not (0 <= c <= n):
            raise ValueError(f"margins must satisfy 0 <= row1, col1 <= total, got {r}, {c}, {n}")
        if not math.isfinite(self.odds) or self.odds <= 0.0:
            raise ValueError(f"odds must be finite and > 0, got {self.odds!r}")

    def _bounds(self) -> tuple[int, int]:
        return max(0, self.row1 + self.col1 - self.total), min(self.row1, self.col1)

    def _ratios(self, ks: Iterable[int]) -> Iterator[float]:
        # the mass is C(row1, k) C(total-row1, col1-k) odds^k, normalized:
        # the central ratio, rounded once, times odds (exact for odds 1)
        row1, col1, odds = self.row1, self.col1, self.odds
        rest = self.total - row1 - col1
        return ((row1 - k) * (col1 - k) / ((k + 1) * (rest + k + 1)) * odds for k in ks)

    def mean(self) -> float:
        return self._read(_Tables.mean, self._bounds()[1])


class Hypergeometric(NoncentralHypergeometric):
    """The central law, odds 1: the null distribution of Fisher's exact test."""

    odds = 1.0  # a fixed field: not a constructor argument, not in the repr

    def mean(self) -> float:
        return self.row1 * self.col1 / self.total
