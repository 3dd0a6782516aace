"""Bracketing scalar root finding shared by the numeric layers.

Every root the package solves for is bracketed by :func:`walk`, stepping out
from a start, and solved on that bracket by :func:`brentq` to one fixed
tolerance: about four ulps of the root, down to the smallest subnormal.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["brentq", "walk"]

# iterations before brentq gives up on a bracket
_MAX_ITER = 100
# the tolerance of every solve: relative, and absolute near 0
_RTOL = 4e-16
_ATOL = 5e-324


def walk(f: Callable[[float], float], start: float, pivot: float, end: float) -> float | None:
    """A root of f between pivot and end, bracketed by walking out from start.

    f must be non-negative at pivot and fall below 0 once on the way to end;
    start lies strictly between them. While f is still non-negative the walk
    steps 16 times as far from pivot or, when that is nearer, 16 times closer
    to a finite end, then :func:`brentq` solves on the last step (it evaluates
    both ends again, so a costly f is best memoized). Returns None when the
    walk reaches end or leaves the float range before f falls below 0.
    """
    lo, hi = (pivot, end) if pivot < end else (end, pivot)
    near, far = pivot, start
    while lo < far < hi and f(far) >= 0.0:
        step = pivot + 16.0 * (far - pivot)
        if math.isfinite(end):
            step = (max if end < pivot else min)(step, end + (far - end) / 16.0)
        near, far = far, step
    return brentq(f, min(near, far), max(near, far)) if lo < far < hi else None


def brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of f on the bracket [a, b] by Brent's method.

    Requires f(a) and f(b) to have opposite signs (or one of them to be
    exactly zero). Combines inverse quadratic interpolation, the secant
    step, and bisection, so convergence is guaranteed and usually fast.
    Raises ``ArithmeticError`` naming the bracket if the tolerance is not
    met within ``_MAX_ITER`` iterations.
    """
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"brentq requires a sign change on [{a!r}, {b!r}]")

    lo, hi = a, b
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _RTOL * abs(b) + 0.5 * _ATOL
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        else:
            b += math.copysign(tol, m)
        fb = f(b)
        if fb == 0.0:
            return b
    raise ArithmeticError(f"brentq did not converge in {_MAX_ITER} iterations "
                          f"on [{lo!r}, {hi!r}]")
