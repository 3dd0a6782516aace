"""Two-sided p-value constructions for asymmetric null distributions.

A two-sided p-value needs a rule for combining the two tails. The rules
implemented here, for an observed value x and a tail anchor A that splits
the support:

- ``doubled``: twice the smaller tail probability, by default truncated
  at 1. The discrete form is 2 * min(P(X <= x), P(X >= x)).
- ``weighted``: each tail divided by a caller-chosen weight; the doubled
  rule is the special case with weights (1/2, 1/2).
- ``conditional``: each tail divided by its own null probability, i.e. the
  p-value conditional on the observed side of the anchor. One function,
  :func:`p_conditional`, serves continuous and discrete families; discrete
  tails are inclusive, so the weights are P(X <= A) and P(X >= A).
- ``conditional_modified``: both weights divided by 1 + P(X = A) when the
  anchor is an attainable support point, which penalizes the anchor point
  itself less severely; for continuous families it equals ``conditional``.
- ``min_likelihood``: total null probability of outcomes no more likely
  than the observed one.

The continuous doubled, weighted and conditional values share one shape:
the observed tail, P(X <= x) below the anchor and P(X >= x) above it,
divided by the weight of its side, and 1 at the anchor itself.

Anchors are resolved by :func:`resolve_anchor` from "mean", "mode",
"median", or an explicit numeric value.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Union

from ._record import Record
from .dist import _TIE_TOL, Distribution, Uniform
from .roots import walk

__all__ = [
    "DOUBLED",
    "WEIGHTED",
    "CONDITIONAL",
    "CONDITIONAL_MODIFIED",
    "MIN_LIKELIHOOD",
    "METHODS",
    "default_methods",
    "MEAN",
    "MODE",
    "MEDIAN",
    "TailAnchor",
    "Weights",
    "resolve_anchor",
    "tail_weights",
    "p_value",
    "p_weighted",
    "p_doubled",
    "p_conditional",
    "p_min_likelihood",
    "conjugate_point",
    "pc_equivalent_point",
]

DOUBLED = "doubled"
WEIGHTED = "weighted"
CONDITIONAL = "conditional"
CONDITIONAL_MODIFIED = "conditional_modified"
MIN_LIKELIHOOD = "min_likelihood"
METHODS = (DOUBLED, WEIGHTED, CONDITIONAL, CONDITIONAL_MODIFIED, MIN_LIKELIHOOD)

MEAN = "mean"
MODE = "mode"
MEDIAN = "median"

TailAnchor = Union[float, str]


class Weights(Record):
    """Tail weights (w_left, w_right).

    For the weighted construction they must sum to 1. Conditional tail
    weights of a discrete family sum to 1 + P(X = A) instead, because both
    tails include the anchor point; either normalization is accepted here
    and validated where it matters.
    """

    w_left: float
    w_right: float

    def __post_init__(self) -> None:
        for name, w in (("w_left", self.w_left), ("w_right", self.w_right)):
            if not math.isfinite(w) or not (0.0 < w <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {w!r}")


# the tail weights of the doubled p-value
_HALVES = Weights(0.5, 0.5)


def default_methods(is_discrete: bool) -> tuple[str, ...]:
    """The methods reported when none are named.

    ``weighted`` needs caller-chosen weights, so it is never a default;
    ``conditional_modified`` differs from ``conditional`` only for discrete
    families.
    """
    if is_discrete:
        return (DOUBLED, CONDITIONAL, CONDITIONAL_MODIFIED, MIN_LIKELIHOOD)
    return (DOUBLED, CONDITIONAL, MIN_LIKELIHOOD)


def resolve_anchor(d: Distribution, anchor: TailAnchor) -> float:
    """Resolve "mean" / "mode" / "median" / an explicit number to a point.

    The mode is rejected when it is not unique (flat or two-point-tied
    densities), and explicit values must be finite and lie inside the closed
    convex hull of the support.
    """
    if isinstance(anchor, str):
        if anchor == MEAN:
            return d.mean()
        if anchor == MEDIAN:
            return float(d.median())
        if anchor == MODE:
            modes = d.mode_set()
            if len(modes) != 1:
                listed = " and ".join(f"{m:g}" for m in modes)
                raise ValueError(
                    f"mode is not unique (modes at {listed}); pass an explicit anchor value"
                )
            return modes[0]
        raise ValueError(f"unknown anchor {anchor!r}; expected 'mean', 'mode', 'median', or a number")
    value = float(anchor)
    if not math.isfinite(value):
        raise ValueError(f"anchor value must be finite, got {value!r}")
    sup = d.support()
    if not (sup.lo <= value <= sup.hi):
        raise ValueError(f"anchor {value!r} lies outside the support [{sup.lo!r}, {sup.hi!r}]")
    return value


@functools.lru_cache(maxsize=256)
def tail_weights(d: Distribution, anchor_value: float) -> Weights:
    """Null probabilities of the two tails cut at the anchor.

    Discrete tails are inclusive on both sides, so the weights sum to
    1 + P(X = A) when the anchor is attainable. An anchor that leaves a tail
    without probability is a domain error. Memoized per process (errors are
    not cached).
    """
    w_left = d.cdf(anchor_value)
    w_right = d.sf(anchor_value) if d.is_discrete else 1.0 - w_left
    if not (w_left > 0.0 and w_right > 0.0):
        raise ValueError(f"anchor {anchor_value!r} sits at or outside the support boundary; "
                         "the conditional p-value needs both tails to have positive probability")
    return Weights(w_left, w_right)


@functools.lru_cache(maxsize=256)
def _modified_scale(d: Distribution, anchor_value: float) -> float:
    """1 + P(X = A) when the anchor is an attainable support point, else 1.
    Memoized per process, as :func:`tail_weights` is."""
    if not d.is_discrete or not float(anchor_value).is_integer():
        return 1.0
    return 1.0 + d.pdf_or_pmf(anchor_value)  # mass 0 off the support


def _anchored_tail(cdf: Callable[[float], float], sf: Callable[[float], float], x: float,
                   anchor_value: float, w: Weights, scale: float = 1.0) -> float:
    """tail(x) * scale / w_side: cdf(x) = P(X <= x) below the anchor,
    sf(x) = P(X >= x) above it.

    Returns 1 at the anchor; the caller caps the value at 1 where needed.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x == anchor_value:
        return 1.0
    if x < anchor_value:
        return cdf(x) * scale / w.w_left
    return sf(x) * scale / w.w_right


def p_weighted(d: Distribution, x: float, anchor_value: float, weights: Weights) -> float:
    """Tail probability divided by its weight, capped at 1 (continuous)."""
    if d.is_discrete:
        raise ValueError("p_weighted is defined for continuous distributions; "
                         "use p_conditional for discrete families")
    if abs(weights.w_left + weights.w_right - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {weights.w_left!r} + {weights.w_right!r}")
    return min(1.0, _anchored_tail(d.cdf, d.sf, x, anchor_value, weights))


def p_doubled(d: Distribution, x: float, anchor_value: float | None = None, *,
              truncate: bool = True) -> float:
    """Twice the smaller tail probability.

    Continuous families need the anchor to pick the tail; the discrete form
    doubles the smaller of the two inclusive tails and needs no anchor.
    With ``truncate=False`` the raw doubled value is returned even when it
    exceeds 1, which is what the diagnostic figure series plot.
    """
    if d.is_discrete:
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
        raw = 2.0 * min(d.cdf(x), d.sf(x))
    else:
        if anchor_value is None:
            raise ValueError("continuous doubled p-values need an anchor to pick the tail")
        raw = _anchored_tail(d.cdf, d.sf, x, anchor_value, _HALVES)
    return min(1.0, raw) if truncate else raw


def p_conditional(d: Distribution, x: float, anchor_value: float, *,
                  modified: bool = False) -> float:
    """Tail probability divided by the anchored tail's null probability, capped at 1.

    The weights are :func:`tail_weights`. With ``modified=True`` both
    weights are divided by 1 + P(X = A) when the anchor is an attainable
    support point; otherwise (and for every continuous family) the two
    variants agree.
    """
    scale = _modified_scale(d, anchor_value) if modified else 1.0
    return min(1.0, _anchored_tail(d.cdf, d.sf, x, anchor_value, tail_weights(d, anchor_value),
                                   scale))


def p_min_likelihood(d: Distribution, x: float) -> float:
    """Null probability of outcomes no more likely than the observed one.

    Discrete: the sum of every mass within a relative tolerance, fixed at
    1e-9, of being at most the observed mass, so exact ties land on the same
    side of the cut regardless of rounding. Continuous: the observed tail
    plus the opposite tail beyond the equal-density point, 0 off the support;
    a flat (uniform) density gives 1 on its whole support.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if d.is_discrete:
        return _mass_no_likelier(d.pdf_or_pmf(x), d.mass_at_most)
    if not d.support().contains(x):
        return 0.0
    if isinstance(d, Uniform):
        return 1.0
    return _tail_sum(d, d.pdf_or_pmf, d.mode_set()[0], x)


def _mass_no_likelier(px: float, mass_at_most: Callable[[float], float]) -> float:
    """The discrete min-likelihood p-value of an outcome of mass ``px``:
    ``mass_at_most(cut)`` is the law's total mass at points of mass at most
    cut, and ties count within the relative tolerance ``dist._TIE_TOL``."""
    if px <= 0.0:
        return 0.0
    return min(1.0, mass_at_most(px * (1.0 + _TIE_TOL)))


def _tail_sum(d: Distribution, level: Callable, peak: float, x: float) -> float:
    """The tail beyond x plus the tail beyond its :func:`_partner`, capped at 1,
    for x inside the support."""
    if x == peak:
        return 1.0
    partner = _partner(d, level, peak, x)
    if x < peak:
        return min(1.0, d.cdf(x) + (d.sf(partner) if partner is not None else 0.0))
    return min(1.0, d.sf(x) + (d.cdf(partner) if partner is not None else 0.0))


def conjugate_point(d: Distribution, x: float) -> float | None:
    """The point on the other side of the mode with the same density as x.

    Returns None when no such point exists, i.e. when the density at the
    opposite support boundary still exceeds the density at x. Requires a
    continuous unimodal family and x distinct from the mode.
    """
    if d.is_discrete:
        raise ValueError("conjugate points are defined for continuous densities")
    mode = d.mode_set()[0]
    if x == mode:
        raise ValueError("the conjugate point is degenerate at the mode")
    return _partner(d, d.pdf_or_pmf, mode, x)


def _partner(d: Distribution, level: Callable, peak: float, x: float) -> float | None:
    """The point across the peak of the unimodal ``level`` where it equals
    level(x); None when the level at that end of the support exceeds it.

    A finite end is checked first. The root is walked to from x's mirror
    image across the peak, twice as far toward an infinite end, where the
    level's tail is the longer one (chi-square, F); from 1/16 of the way
    from a finite end to the peak when the mirror is not short of that end.
    """
    sup = d.support()
    if not sup.contains(x):
        raise ValueError(f"x={x!r} lies outside the support [{sup.lo!r}, {sup.hi!r}]")
    fx = level(x)
    far = sup.hi if x < peak else sup.lo
    if far == peak:
        # the peak sits on that end, so the level has no branch beyond it
        return None
    if math.isfinite(far):
        boundary = level(far)
        if boundary > fx:
            return None
        if boundary == fx:
            return far
    # when level(x) ties the level at the peak within rounding, the computed
    # level at the peak can fall below level(x) and there is no sign change
    if level(peak) <= fx:
        return peak
    start = peak + (peak - x) * (1.0 if math.isfinite(far) else 2.0)
    if math.isfinite(far) and not min(peak, far) < start < max(peak, far):
        start = far + (peak - far) / 16.0
    return walk(lambda t: level(t) - fx, start, peak, far)


def pc_equivalent_point(d: Distribution, x: float, anchor_value: float) -> float | None:
    """The point in the opposite tail with the same conditional p-value as x.

    For continuous families the conditional p-value is uniform within each
    tail, so the equivalent point is a pure quantile computation. Returns
    None when the opposite tail cannot attain the value (only possible at
    the extreme ends, through rounding).
    """
    if d.is_discrete:
        raise ValueError("conditional equivalent points are defined for continuous families")
    if x == anchor_value:
        raise ValueError("x must differ from the anchor")
    w_left = tail_weights(d, anchor_value).w_left
    pc = p_conditional(d, x, anchor_value)
    if x < anchor_value:
        target = 1.0 - (1.0 - w_left) * pc
    else:
        target = w_left * pc
    if not (0.0 < target < 1.0):
        return None
    return d.quantile(target)


def p_value(d: Distribution, x: float, method: str, *,
            anchor_value: float | None = None,
            weights: Weights | None = None,
            truncate: bool = True) -> float:
    """Dispatch a two-sided p-value by method name.

    ``anchor_value`` must already be resolved (see :func:`resolve_anchor`);
    it is required by every method except ``min_likelihood``. The
    ``weighted`` method additionally requires ``weights``.
    """
    if method == MIN_LIKELIHOOD:
        return p_min_likelihood(d, x)
    if method not in METHODS:
        raise ValueError(f"unknown p-value method {method!r}; expected one of {METHODS}")
    if method == DOUBLED:
        return p_doubled(d, x, anchor_value, truncate=truncate)
    if anchor_value is None:
        raise ValueError(f"method {method!r} needs a resolved anchor value")
    if method == WEIGHTED:
        if weights is None:
            raise ValueError("the weighted method needs explicit weights")
        return p_weighted(d, x, anchor_value, weights)
    return p_conditional(d, x, anchor_value, modified=method == CONDITIONAL_MODIFIED)
