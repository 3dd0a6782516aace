"""Reference cuts of the UMPU and minimum-likelihood regions, from mpmath.

Run by hand (``python tests/make_region_reference.py``); it needs mpmath,
which the package does not depend on, and pytest never collects it. It
solves each region at 50 digits by nested bisection and prints its roots
to 40 digits:

- UMPU: c_L f(c_L) = c_R f(c_R) with F(c_L) + S(c_R) = alpha, and the
  weight w = F(c_L)/alpha;
- minimum likelihood: f(c_L) = f(c_R) with the same tail condition.

Before printing, it checks its roots against the values frozen in
``tests/test_analysis.py`` (found earlier by mpmath bisection at 40
digits), to the digits given there, and exits 1 on a mismatch.

It then prints the one-sample panel of ``analyze figure --which fig2``:
the bias of the 5%-level doubled and conditional (mean-anchor) chi-square
tests for df = 2..49, as frozen in ``FIG2_ONE_SAMPLE`` of
``tests/test_cli.py``. Each bias comes from quantiles solved by bisection,
the closed-form argmin rho* = k log(c_R/c_L) / (c_R - c_L) clamped to
[e^-4, e^4], and F(rho* c_L) + S(rho* c_R) - alpha, printed to 20 digits.
"""

from __future__ import annotations

import sys

import mpmath as mp

mp.mp.dps = 50

# (law, parameters, region, alpha) -> (w or None, c_L, c_R) as frozen
FROZEN = {
    ("chisq", (1,), "umpu", "1e-12"): ("0.98357650485349534381", "1.5196240878632850354e-24",
                                       "58.919755683202153371"),
    ("chisq", (5,), "umpu", "1e-12"): ("0.9314339487780004642", "4.981090066666351185e-05",
                                       "70.838442487543683115"),
    ("chisq", (5,), "minlik", "1e-12"): (None, "2.3455514896011991e-08", "65.238636222750051"),
    ("chisq", (3,), "minlik", "1e-6"): (None, "1.4759302185133726e-12", "30.664849706214583"),
    # 1/2 exactly: c f(c) and the two tails are symmetric under c -> 1/c
    ("f", (1, 1), "umpu", "1e-6"): ("0.5000000000000000000000000000000000000000", None, None),
}


def law(family: str, params: tuple):
    """(cdf, sf, pdf, peak of the density, peak of c f(c)) of a law."""
    if family == "chisq":
        k = mp.mpf(params[0])
        h = k / 2

        def pdf(x):
            return mp.exp((h - 1) * mp.log(x) - x / 2 - h * mp.log(2) - mp.loggamma(h))

        return (lambda x: mp.gammainc(h, 0, x / 2, regularized=True),
                lambda x: mp.gammainc(h, x / 2, mp.inf, regularized=True),
                pdf, max(k - 2, mp.mpf(0)), k)
    d1, d2 = (mp.mpf(v) for v in params)
    a, b = d1 / 2, d2 / 2

    def pdf(x):
        return mp.exp(a * mp.log(d1 / d2) + (a - 1) * mp.log(x)
                      - (a + b) * mp.log1p(d1 * x / d2) - mp.log(mp.beta(a, b)))

    return (lambda x: mp.betainc(a, b, 0, d1 * x / (d1 * x + d2), regularized=True),
            lambda x: mp.betainc(b, a, 0, d2 / (d1 * x + d2), regularized=True),
            pdf, (d1 - 2) * d2 / (d1 * (d2 + 2)) if d1 > 2 else mp.mpf(0), mp.mpf(1))


def bisect(g, lo, hi, steps: int = 200):
    """Root of an increasing g on [lo, hi], bisecting in log space."""
    lo, hi = mp.log(lo), mp.log(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if g(mp.exp(mid)) < 0:
            lo = mid
        else:
            hi = mid
    return mp.exp((lo + hi) / 2)


def region(family: str, params: tuple, kind: str, alpha: str):
    cdf, sf, pdf, mode, umpu_peak = law(family, params)
    if kind == "umpu":
        peak, level = umpu_peak, (lambda c: c * pdf(c))
    else:
        peak, level = mode, pdf
    a = mp.mpf(alpha)

    def partner(t):
        target = level(t)
        return bisect(lambda c: target - level(c), peak, peak * mp.mpf(10) ** 30)

    c_left = bisect(lambda t: cdf(t) + sf(partner(t)) - a, peak * mp.mpf(10) ** -300, peak)
    c_right = partner(c_left)
    return cdf(c_left) / a, c_left, c_right


def fig2_one_sample(k: int) -> tuple:
    """(doubled, conditional) bias of the 5%-level chi-square(k) tests."""
    cdf, sf, _, _, _ = law("chisq", (k,))
    alpha = mp.mpf("0.05")

    def quantile(p):
        return bisect(lambda x: cdf(x) - p, mp.mpf(10) ** -10, mp.mpf(1000))

    def bias(w_left):
        c_left, c_right = quantile(w_left * alpha), quantile(1 - (1 - w_left) * alpha)
        rho = k * mp.log(c_right / c_left) / (c_right - c_left)
        rho = min(max(rho, mp.exp(-4)), mp.exp(4))
        return cdf(rho * c_left) + sf(rho * c_right) - alpha

    return bias(mp.mpf(1) / 2), bias(cdf(k))


def main() -> int:
    failed = False
    for (family, params, kind, alpha), frozen in FROZEN.items():
        w, c_left, c_right = region(family, params, kind, alpha)
        name = f"{kind} {family}{params} alpha={alpha}"
        weight = f"w = {mp.nstr(w, 40)}, " if kind == "umpu" else ""
        print(f"{name}: {weight}c_L = {mp.nstr(c_left, 40)}, c_R = {mp.nstr(c_right, 40)}")
        for label, got, want in zip(("w", "c_L", "c_R"), (w, c_left, c_right), frozen):
            if want is None:
                continue
            digits = len(want.split("e")[0].replace(".", "").replace("-", "").lstrip("0"))
            if abs(got / mp.mpf(want) - 1) > mp.mpf(10) ** (1 - digits):
                print(f"  MISMATCH {label}: frozen {want}", file=sys.stderr)
                failed = True
    print("fig2 one_sample (n, bias_doubled, bias_conditional), df = n - 1:")
    for n in range(3, 51):
        doubled, conditional = fig2_one_sample(n - 1)
        print(f'    {n}: ("{mp.nstr(doubled, 20)}", "{mp.nstr(conditional, 20)}"),')
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
