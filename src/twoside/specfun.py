"""Scalar special functions backing the distribution layer.

Log-gamma and the error function come straight from libm via :mod:`math`.
The regularized incomplete gamma and beta functions are evaluated with the
classic series / continued-fraction pairs, switching representation at the
conventional boundaries (x ~ a+1 for the gamma, x ~ (a+1)/(a+b+2) for the
beta) so each converges quickly everywhere in its domain. For large gamma
shapes the iteration cap grows with sqrt(a), since both expansions need
about 7.5 sqrt(a) terms near x = a, and the common prefactor is taken in
Stirling form to avoid cancellation. Inverses use Newton iteration
safeguarded by a maintained bracket, falling back to bisection whenever a
Newton step would leave it, and returning once a step is within tolerance.
The normal quantile is ``statistics.NormalDist().inv_cdf`` (Wichura, AS 241);
``statistics`` is imported by the first quantile asked for, not with this module.

Everything here is a pure function of its arguments and safe to call
concurrently, so the incomplete gamma/beta kernels ``reg_gamma_lower``,
``reg_gamma_upper``, ``reg_beta``, ``inv_reg_gamma_lower`` and ``inv_reg_beta``
are memoized per process (a ``functools.lru_cache`` of ``_KERNEL_CACHE_SIZE``
entries each, keyed by value and type; errors are not cached; ``cache_info()``
counts hits and misses). A one-shot ``twoside`` call reuses only repeats
within its command, a long-lived process also those of earlier commands.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

__all__ = [
    "log_choose",
    "reg_gamma_lower",
    "reg_gamma_upper",
    "inv_reg_gamma_lower",
    "reg_beta",
    "inv_reg_beta",
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_TWO_PI_DIGITS = "6.2831853071795864769252867665590057683943"
_TINY = 1e-300
_STANDARD_NORMAL = None  # statistics.NormalDist(), made by the first norm_quantile call

# Convergence targets of the iterative kernels: a relative tolerance on the
# converged value (or on the argument, for the inverses), far tighter than
# anything the statistical layer reports, and an iteration cap.
_REL_TOL = 1e-12
_MAX_ITER = 200
_MAX_DOUBLINGS = 600  # of the upper end when bracketing an inverse

# shape from which the incomplete gamma prefactor uses the Stirling form
_LARGE_SHAPE = 100.0

_KERNEL_CACHE_SIZE = 1024  # entries kept by each memoized kernel
_memoized = functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE, typed=True)


def log_choose(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k)."""
    n = operator.index(n)
    k = operator.index(k)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"log_choose requires 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _check_gamma_shape(a: float) -> None:
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"shape parameter must be finite and > 0, got {a!r}")


def _check_gamma_args(a: float, x: float) -> None:
    _check_gamma_shape(a)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"argument must be finite and >= 0, got {x!r}")


def _stirling_error(a: float) -> float:
    # lgamma(a) - ((a - 1/2) log a - a + log(2 pi)/2): the Stirling series,
    # accurate to double precision for a >= _LARGE_SHAPE
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a


def _log_ratio_deviance(a: float, x: float) -> float:
    # a log(a/x) + x - a >= 0 without cancellation (Loader, "Fast and accurate
    # computation of binomial probabilities", 2000): near x = a it is summed
    # as 2a (v^3/3 + v^5/5 + ...) + (a - x) v with v = (a - x)/(a + x)
    if abs(a - x) >= 0.1 * (a + x):
        return a * math.log(a / x) + x - a
    v = (a - x) / (a + x)
    v2 = v * v
    total = (a - x) * v
    term = 2.0 * a * v
    j = 3
    while True:
        term *= v2
        nxt = total + term / j
        if nxt == total:
            return total
        total = nxt
        j += 2


def _gamma_log_scale(a: float, x: float) -> float:
    # log of x^a e^-x / Gamma(a), the prefactor shared by both expansions.
    # For large a the direct form cancels three terms of size a log a; the
    # Stirling form keeps only the deviance, which is small near the mean.
    if a < _LARGE_SHAPE:
        return a * math.log(x) - x - math.lgamma(a)
    return (0.5 * math.log(a / (2.0 * math.pi)) - _log_ratio_deviance(a, x)
            - _stirling_error(a))


def _max_iter(a: float) -> int:
    # near x = a both gamma expansions need about 7.5 sqrt(a) terms
    return _MAX_ITER + int(20.0 * math.sqrt(a))


def _gamma_series(a: float, x: float) -> float:
    # lower tail series: P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a (a+1) ... (a+n))
    # Terms shrink by q = x/denom once denom > x, so the remaining tail is
    # bounded by term * q / (1 - q); converging on that bound (with margin)
    # instead of on the last term keeps the true error inside _REL_TOL even
    # close to the series/fraction switch point where q is near 1.
    term = 1.0 / a
    total = term
    denom = a
    cap = _max_iter(a)
    for _ in range(cap):
        denom += 1.0
        term *= x / denom
        total += term
        q = x / (denom + 1.0)
        if q < 1.0 and term * q / (1.0 - q) < abs(total) * (_REL_TOL / 16.0):
            return total * math.exp(_gamma_log_scale(a, x))
    raise ArithmeticError(f"regularized gamma series did not converge in {cap} iterations "
                          f"for a={a!r}, x={x!r}")


def _lentz_converged(err: float, prev_err: float) -> bool:
    # The per-step factors delta approach 1 geometrically, so the remaining
    # relative error of the product is about err * r / (1 - r) with
    # r = err/prev_err. Converging on that bound (with a 16x margin) rather
    # than on the last delta alone keeps the true error inside _REL_TOL even
    # where the fraction converges slowly.
    if err == 0.0:
        return True
    if not math.isfinite(prev_err) or prev_err <= 0.0:
        return False
    r = err / prev_err
    return r < 1.0 and err * r / (1.0 - r) < _REL_TOL / 16.0


def _gamma_continued_fraction(a: float, x: float) -> float:
    # upper tail Q(a,x) by modified Lentz evaluation of the Legendre fraction.
    # Where the prefactor underflows, Q is 0 whatever the fraction: far out
    # (x >= 2**53) the step b += 2 rounds away and the fraction would stall.
    scale = math.exp(_gamma_log_scale(a, x))
    if scale == 0.0:
        return 0.0
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) >= _TINY else 1.0 / _TINY
    h = d
    prev_err = math.inf
    cap = _max_iter(a)
    for i in range(1, cap + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        err = abs(delta - 1.0)
        if _lentz_converged(err, prev_err):
            return h * scale
        prev_err = err
    raise ArithmeticError(f"regularized gamma continued fraction did not converge in {cap} "
                          f"iterations for a={a!r}, x={x!r}")


@_memoized
def reg_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_continued_fraction(a, x)


@_memoized
def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_continued_fraction(a, x)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _check_beta_shapes(a: float, b: float) -> None:
    if not math.isfinite(a) or a <= 0.0 or not math.isfinite(b) or b <= 0.0:
        raise ValueError(f"shape parameters must be finite and > 0, got a={a!r}, b={b!r}")


def _beta_continued_fraction(x: float, a: float, b: float) -> float:
    # modified Lentz evaluation of the standard continued fraction for I_x(a,b)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    prev_err = math.inf
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        err = abs(delta - 1.0)
        if _lentz_converged(err, prev_err):
            return h
        prev_err = err
    raise ArithmeticError(f"regularized beta continued fraction did not converge in "
                          f"{_MAX_ITER} iterations for x={x!r}, a={a!r}, b={b!r}")


@_memoized
def reg_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    _check_beta_shapes(a, b)
    if not math.isfinite(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(x, a, b) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(1.0 - x, b, a) / b


def _check_prob_for_inverse(p: float) -> None:
    if not math.isfinite(p) or p < 0.0 or p >= 1.0:
        raise ValueError(f"probability must lie in [0, 1), got {p!r}")


def _newton_in_bracket(f: Callable[[float], float], log_pdf: Callable[[float], float],
                       x: float, lo: float, hi: float) -> float:
    # Newton on the increasing f, whose derivative is exp(log_pdf). Each sign
    # of f narrows the bracket [lo, hi]; a step that would leave it (or
    # overflow) bisects instead. A step within tolerance returns at once: below
    # the float spacing it rounds to x, an end of the bracket, and would bisect.
    for _ in range(_MAX_ITER):
        fx = f(x)
        if fx > 0.0:
            hi = x
        elif fx < 0.0:
            lo = x
        else:
            return x
        lp = log_pdf(x)
        step = fx * math.exp(-lp) if lp > -700.0 else math.inf
        nxt = x - step
        if abs(step) <= _REL_TOL * abs(x):
            return min(max(nxt, lo), hi)
        if not math.isfinite(nxt) or not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= _REL_TOL * max(abs(nxt), _TINY):
            return nxt
        x = nxt
    return x


@_memoized
def inv_reg_gamma_lower(a: float, p: float) -> float:
    """Inverse of ``reg_gamma_lower`` in x: returns x with P(a, x) = p.

    p = 1 is rejected (the inverse diverges); p = 0 returns 0.
    """
    _check_gamma_shape(a)
    _check_prob_for_inverse(p)
    if p == 0.0:
        return 0.0

    lo = 0.0
    hi = a + 10.0 * math.sqrt(a) + 10.0
    for _ in range(_MAX_DOUBLINGS):
        if reg_gamma_lower(a, hi) >= p:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ArithmeticError(f"failed to bracket the inverse incomplete gamma in "
                              f"{_MAX_DOUBLINGS} doublings for a={a!r}, p={p!r}")

    # Wilson-Hilferty start, falling back to the small-x power-law start
    z = norm_quantile(p)
    x = a * (1.0 - 1.0 / (9.0 * a) + z * math.sqrt(1.0 / (9.0 * a))) ** 3
    if not (lo < x < hi):
        x = math.exp((math.log(p) + math.log(a) + math.lgamma(a)) / a)
    if not (lo < x < hi):
        x = 0.5 * (lo + hi)

    log_gamma_a = math.lgamma(a)
    return _newton_in_bracket(lambda t: reg_gamma_lower(a, t) - p,
                              lambda t: (a - 1.0) * math.log(t) - t - log_gamma_a,
                              x, lo, hi)


@_memoized
def inv_reg_beta(p: float, a: float, b: float) -> float:
    """Inverse of ``reg_beta`` in x: returns x in [0, 1] with I_x(a, b) = p."""
    _check_beta_shapes(a, b)
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0

    log_beta_ab = _log_beta(a, b)
    return _newton_in_bracket(
        lambda t: reg_beta(t, a, b) - p,
        lambda t: (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - log_beta_ab,
        a / (a + b), 0.0, 1.0)


def norm_cdf(x: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    tail = math.erfc(-x / _SQRT2)
    # halving is exact down to 2**-1021; below, the tail would round twice
    return 0.5 * tail if tail >= 2.0**-1021 else _norm_cdf_subnormal(x)


def _norm_cdf_subnormal(x: float) -> float:
    """norm_cdf(x) for x below about -37.5, where it is subnormal, rounded
    once: exp(-x**2 / 2) / (-x sqrt(2 pi)) times the asymptotic series of
    the Mills ratio, 1 - z + 3 z**2 - 15 z**3 + ... with z = 1 / x**2, in
    30-digit decimal arithmetic, then one conversion to float."""
    if x < -39.0:
        return 0.0  # below half the least subnormal
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 30
        xx = Decimal(x) ** 2
        z = 1 / xx
        series = Decimal(1)
        for k in range(39, 0, -2):  # the terms fall below 1e-39 by z**20
            series = 1 - k * z * series
        return float((-xx / 2).exp() * series / (-Decimal(x) * Decimal(_TWO_PI_DIGITS).sqrt()))


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def norm_quantile(p: float) -> float:
    """Inverse of ``norm_cdf`` on (0, 1)."""
    global _STANDARD_NORMAL
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie in (0, 1), got {p!r}")
    if _STANDARD_NORMAL is None:
        from statistics import NormalDist

        _STANDARD_NORMAL = NormalDist()
    return _STANDARD_NORMAL.inv_cdf(p)
