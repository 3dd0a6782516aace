"""Correctness checks on CLI responses, run outside the timed region.

Exact oracles use integer arithmetic (``math.comb`` and the exact binary
value of every float parameter), so they are independent of the package.
The CLI rounds every number to 10 significant digits, so a value matches
its exact counterpart when they differ by at most 1e-12 plus half a unit
in the 10th significant digit.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

# discrete requests up to this support size get the exact oracle
ORACLE_MAX_SUPPORT = 300
ABS_TOL = 1e-12
TIE_NUM, TIE_DEN = 10**9 + 1, 10**9  # the library's relative tie tolerance 1e-9


def rounding_tol(*values: float) -> float:
    """1e-12 plus half a unit in the 10th significant digit of the values."""
    top = max(abs(v) for v in values)
    if top == 0.0 or not math.isfinite(top):
        return ABS_TOL
    return ABS_TOL + 0.5 * 10.0 ** (math.floor(math.log10(top)) - 9)


def _close(got: float, want: float, slack: float = 1.0) -> bool:
    return abs(got - want) <= slack * rounding_tol(got, want)


# ---------------------------------------------------------------------------
# exact discrete distributions


class ExactDiscrete:
    """Integer weights w[k - lo] over the support and their exact total.

    Every probability is a ratio of Python integers, and ``int / int`` is
    correctly rounded, so each returned float is the exact value rounded
    once.
    """

    def __init__(self, lo: int, weights: list[int]):
        self.lo = lo
        self.hi = lo + len(weights) - 1
        self.w = weights
        self._prefix = list(accumulate(weights, initial=0))
        self.total = self._prefix[-1]
        self._sorted = sorted(weights)
        self._sorted_prefix = list(accumulate(self._sorted, initial=0))

    # Weights come from the ratio of neighbouring terms; every division is
    # exact because each term is an integer.
    @classmethod
    @lru_cache(maxsize=64)
    def binomial(cls, n: int, p: float) -> "ExactDiscrete":
        """w_k = C(n, k) a^k (d - a)^(n - k) for p = a / d exactly."""
        a, d = p.as_integer_ratio()
        w = [(d - a) ** n]
        for k in range(n):
            w.append(w[-1] * (n - k) * a // ((k + 1) * (d - a)))
        return cls(0, w)

    @classmethod
    @lru_cache(maxsize=64)
    def hypergeometric(cls, row1: int, col1: int, total: int, odds: float = 1.0) -> "ExactDiscrete":
        """w_k = C(row1, k) C(total - row1, col1 - k) a^(k - lo) d^(hi - k)
        for odds = a / d exactly."""
        lo, hi = max(0, row1 + col1 - total), min(row1, col1)
        a, d = odds.as_integer_ratio()
        w = [math.comb(row1, lo) * math.comb(total - row1, col1 - lo) * d ** (hi - lo)]
        for k in range(lo, hi):
            w.append(w[-1] * (row1 - k) * (col1 - k) * a
                     // ((k + 1) * (total - row1 - col1 + k + 1) * d))
        return cls(lo, w)

    # weight sums (integers); probabilities are these over ``total``
    def w_at(self, k: int) -> int:
        return self.w[k - self.lo] if self.lo <= k <= self.hi else 0

    def w_cdf(self, x: float) -> int:
        k = min(math.floor(x), self.hi)
        return self._prefix[k - self.lo + 1] if k >= self.lo else 0

    def w_sf(self, x: float) -> int:
        k = max(math.ceil(x), self.lo)
        return self.total - self._prefix[k - self.lo] if k <= self.hi else 0

    def pmf(self, k: int) -> float:
        return self.w_at(k) / self.total

    def cdf(self, x: float) -> float:
        return self.w_cdf(x) / self.total

    def sf(self, x: float) -> float:
        return self.w_sf(x) / self.total

    def mean(self) -> float:
        return sum((self.lo + i) * v for i, v in enumerate(self.w)) / self.total

    def p_values(self, x: int, anchor: float) -> dict[str, float]:
        """The four discrete constructions about a float anchor."""
        t = self.total
        c, s = self.w_cdf(x), self.w_sf(x)
        wx = self.w_at(x)
        cut = wx * TIE_NUM // TIE_DEN  # w * 1e9 <= wx * (1e9 + 1)  <=>  w <= cut
        out = {"doubled": min(t, 2 * min(c, s)) / t,
               "min_likelihood": min(t, self._sorted_prefix[bisect_right(self._sorted, cut)]) / t}
        if x == anchor:
            out["conditional"] = out["conditional_modified"] = 1.0
            return out
        # conditional = tail / side weight; modified multiplies by (t + w_A) / t
        tail, side = (c, self.w_cdf(anchor)) if x < anchor else (s, self.w_sf(anchor))
        attainable = float(anchor).is_integer() and self.lo <= anchor <= self.hi
        scale = t + self.w_at(int(anchor)) if attainable else t
        out["conditional"] = min(tail, side) / side
        out["conditional_modified"] = min(scale * tail, t * side) / (t * side)
        return out


def _log_pmf(family: str, params: tuple, k: int) -> float:
    """Float log mass for supports too large for the exact oracle."""
    def lchoose(n, j):
        return math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
    if family == "binom":
        n, p = params
        return lchoose(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
    if family == "hyper":
        r, c, n = params
        return lchoose(r, k) + lchoose(n - r, c - k) - lchoose(n, c)
    # noncentral: normalise the weights C(r, j) C(n - r, c - j) odds^j over the support
    r, c, n, odds = params
    lo, hi = max(0, r + c - n), min(r, c)
    logs = [lchoose(r, j) + lchoose(n - r, c - j) + j * math.log(odds) for j in range(lo, hi + 1)]
    top = max(logs)
    return logs[k - lo] - top - math.log(math.fsum(math.exp(v - top) for v in logs))


def _in_support(family: str, params: tuple, k: float) -> bool:
    if not float(k).is_integer():
        return False
    if family == "binom":
        return 0 <= k <= params[0]
    r, c, n = params[:3]
    return max(0, r + c - n) <= k <= min(r, c)


# ---------------------------------------------------------------------------
# request parsing


def _opt(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def discrete_request(argv: list[str]):
    """(family, params, x) of a discrete pvalue/test request, else None."""
    if argv[:2] == ["test", "binomial"]:
        return "binom", (int(_opt(argv, "--n")), float(_opt(argv, "--p0"))), int(_opt(argv, "--x"))
    if argv[:2] == ["test", "fisher"]:
        a, b, c, d = (int(v) for v in _opt(argv, "--table").split(","))
        return "hyper", (a + b, a + c, a + b + c + d), a
    if argv[0] == "pvalue":
        family, _, rest = _opt(argv, "--dist").partition(":")
        tokens = rest.split(",")
        x = float(_opt(argv, "--x"))
        if family == "binom":
            return "binom", (int(tokens[0]), float(tokens[1])), x
        if family == "hyper":
            return "hyper", tuple(int(t) for t in tokens), x
        if family == "nchyper":
            return "nchyper", tuple(int(t) for t in tokens[:3]) + (float(tokens[3]),), x
    return None


def _exact(family: str, params: tuple) -> ExactDiscrete:
    if family == "binom":
        return ExactDiscrete.binomial(*params)
    return ExactDiscrete.hypergeometric(*params)


def _support_size(family: str, params: tuple) -> int:
    if family == "binom":
        return params[0] + 1
    r, c, n = params[:3]
    return min(r, c) - max(0, r + c - n) + 1


def _float_anchor(family: str, params: tuple, exact: ExactDiscrete | None) -> float:
    # the same float expressions the library uses for the mean anchor
    if family == "binom":
        return params[0] * params[1]
    if family == "hyper":
        return params[0] * params[1] / params[2]
    return float(exact.mean())


# ---------------------------------------------------------------------------
# stream responses


def _check_unit(p_values: dict, truncate: bool = True) -> list[str]:
    problems = []
    for method, v in p_values.items():
        upper = math.inf if (method == "doubled" and not truncate) else 1.0
        if not (0.0 <= v <= upper):
            problems.append(f"{method} p-value {v!r} outside [0, 1]")
    return problems


def _rel_close(got: float, want: float, abs_tol: float = 0.0) -> bool:
    """Equal up to the rounding of the three printed values a relation
    between p-values uses (each off by at most 5e-10 relative)."""
    return abs(got - want) <= ABS_TOL + abs_tol + 2e-9 * max(abs(got), abs(want))


def _check_pvalue_response(argv: list[str], body: dict, request) -> list[str]:
    """Invariants of a pvalue response that hold for every support size:
    the tail weights sum to 1 (continuous) or 1 + pmf(anchor) (discrete,
    when the anchor is a support point), and the doubled value agrees with
    the tail that the conditional value divides by its weight."""
    problems = []
    weights, p_values = body["weights"], body["p_values"]
    w_left, w_right = weights["w_left"], weights["w_right"]
    x = float(_opt(argv, "--x"))
    anchor = body["anchor"]
    sums = [1.0]
    if request is not None:
        family, params, _ = request
        exact_anchor = family != "nchyper" and _opt(argv, "--anchor") in (None, "mean")
        if exact_anchor:
            anchor = _float_anchor(family, params, None)
        if _in_support(family, params, anchor):
            # a printed integer anchor may be rounded from a non-integer one
            sums = [1.0 + math.exp(_log_pmf(family, params, int(anchor)))] + ([] if exact_anchor else sums)
    if min(abs(w_left + w_right - v) for v in sums) > 1e-9:
        problems.append(f"w_left + w_right = {w_left + w_right!r}, expected one of {sums!r}")

    if "doubled" not in p_values or "conditional" not in p_values:
        return problems
    # the printed anchor is rounded; too close to x the side is ambiguous
    if abs(x - anchor) <= 1e-9 * max(abs(x), abs(anchor), 1.0):
        return problems
    doubled, conditional = p_values["doubled"], p_values["conditional"]
    side = w_left if x < anchor else w_right
    tail = conditional * side
    cap = 1.0 if "--no-truncate" not in argv else math.inf
    if request is None:
        # continuous: conditional = tail / weight, not capped; doubled = 2 * that tail
        want = min(cap, 2.0 * tail)
        if not _rel_close(doubled, want):
            problems.append(f"doubled {doubled!r} != min(1, 2 * conditional * w_side) = {want!r}")
        return problems
    if conditional >= 1.0:  # capped: the tail is not recoverable
        return problems
    # discrete: doubled = 2 * the smaller inclusive tail; the other one is
    # 1 + pmf(x) minus this one
    family, params, _ = request
    if tail <= 0.5:  # then the other tail is at least 1 - tail >= tail
        want, slack = 2.0 * tail, 0.0
    else:
        other = 1.0 + math.exp(_log_pmf(family, params, int(x))) - tail
        want, slack = min(cap, 2.0 * min(tail, other)), 4e-9
    if not _rel_close(doubled, want, slack):
        problems.append(f"doubled {doubled!r} != min(1, 2 * smaller tail) = {want!r}")
    return problems


def check_response(argv: list[str], stdout: str) -> list[str]:
    """Invariants of one pvalue/test response, plus the exact oracle for
    discrete requests whose support has at most ORACLE_MAX_SUPPORT points."""
    try:
        body = json.loads(stdout)["results"]
    except (ValueError, KeyError) as exc:
        return [f"unparseable response: {exc}"]
    is_test = argv[0] == "test"
    p_values = body["p_two_sided"] if is_test else body["p_values"]
    problems = _check_unit(p_values, truncate="--no-truncate" not in argv)
    request = discrete_request(argv)

    if is_test:
        p_left, p_right = body["p_left"], body["p_right"]
        problems += _check_unit({"p_left": p_left, "p_right": p_right})
        if request is None:
            tail_sum, side = 1.0, {"below": p_left, "above": p_right, "at": 0.5}[body["direction"]]
        else:
            family, params, x = request
            tail_sum = 1.0 + math.exp(_log_pmf(family, params, int(x)))
            side = min(p_left, p_right)
        if abs(p_left + p_right - tail_sum) > 1e-9:
            problems.append(f"p_left + p_right = {p_left + p_right!r}, expected {tail_sum!r}")
        if "doubled" in p_values and not _close(p_values["doubled"], min(1.0, 2.0 * side), 3.0):
            problems.append(f"doubled {p_values['doubled']!r} != min(1, 2 * tail {side!r})")
    else:
        problems += _check_pvalue_response(argv, body, request)

    if request is None or _support_size(request[0], request[1]) > ORACLE_MAX_SUPPORT:
        return problems
    family, params, x = request
    exact = _exact(family, params)
    anchor = _float_anchor(family, params, exact)
    if not _close(body["anchor"], anchor):
        problems.append(f"anchor {body['anchor']!r} != {anchor!r}")
    want = exact.p_values(int(x), anchor)
    for method, got in p_values.items():
        if method in want and not _close(got, want[method]):
            problems.append(f"{method} {got!r} != exact {want[method]!r}")
    if is_test:
        for name, got, exact_v in (("p_left", body["p_left"], exact.cdf(x)),
                                   ("p_right", body["p_right"], exact.sf(x))):
            if not _close(got, exact_v):
                problems.append(f"{name} {got!r} != exact {exact_v!r}")
    else:
        for name, exact_v in (("w_left", exact.cdf(anchor)), ("w_right", exact.sf(anchor))):
            if not _close(body["weights"][name], exact_v):
                problems.append(f"{name} {body['weights'][name]!r} != exact {exact_v!r}")
    return problems


# ---------------------------------------------------------------------------
# paper artifacts


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_table1(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        n, p = int(row["n"]), float(row["p"])
        exact = ExactDiscrete.binomial(n, p)
        anchor = n * p
        left, right = exact.w_cdf(anchor), exact.w_sf(anchor)
        # w_left / (1 + P(A)) = left / (total + w_A)
        mod_den = exact.total + (exact.w_at(int(anchor)) if anchor.is_integer() else 0)
        for key, want in (("w_left", left / exact.total), ("weight_ratio", left / right),
                          ("w_left_modified", left / mod_den)):
            if not _close(float(row[key]), want):
                problems.append(f"table1 n={n} p={p} {key} {row[key]} != exact {want!r}")
    return problems


def _check_table2(margins: tuple[int, int, int], rows: list[dict]) -> list[str]:
    exact = ExactDiscrete.hypergeometric(*margins)
    anchor = margins[0] * margins[1] / margins[2]
    if [int(r["n11"]) for r in rows] != list(range(exact.lo, exact.hi + 1)):
        return [f"table2 {margins}: rows do not cover the support"]
    problems = []
    for row in rows:
        k = int(row["n11"])
        pv = exact.p_values(k, anchor)
        for key, want in (("prob", exact.pmf(k)), ("p_one_sided", min(exact.cdf(k), exact.sf(k))),
                          ("p_min_likelihood", pv["min_likelihood"]),
                          ("p_conditional", pv["conditional"])):
            if not _close(float(row[key]), want):
                problems.append(f"table2 {margins} n11={k} {key} {row[key]} != exact {want!r}")
    return problems


def _check_fig1(rows: list[dict]) -> list[str]:
    at_null = [r for r in rows if float(r["rho"]) == 1.0]
    if len(at_null) != 1:
        return ["fig1: no single row at rho = 1"]
    return [f"fig1 {key} at rho = 1 is {v}, not 0.05"
            for key, v in at_null[0].items() if key != "rho" and abs(float(v) - 0.05) > 1e-9]


def _check_fig2(rows: list[dict]) -> list[str]:
    return [f"fig2 {r['panel']} n={r['n']} {key} = {r[key]} > 1e-12"
            for r in rows for key in ("bias_doubled", "bias_conditional")
            if float(r[key]) > 1e-12]


def _check_fig4(rows: list[dict]) -> list[str]:
    problems = []
    for panel, n in (("binom10", 10), ("binom11", 11)):
        exact = ExactDiscrete.binomial(n, 0.2)
        anchor = n * 0.2
        panel_rows = [r for r in rows if r["panel"] == panel]
        if len(panel_rows) != n + 1:
            problems.append(f"fig4 {panel}: {len(panel_rows)} rows, expected {n + 1}")
        for row in panel_rows:
            k = int(float(row["x"]))
            pv = exact.p_values(k, anchor)
            for key, method in (("p_min_likelihood", "min_likelihood"),
                                ("p_conditional", "conditional"),
                                ("p_conditional_modified", "conditional_modified"),
                                ("p_doubled", "doubled")):
                if not _close(float(row[key]), pv[method]):
                    problems.append(f"fig4 {panel} x={k} {key} {row[key]} != exact {pv[method]!r}")
    return problems


def check_paper_response(argv: list[str], stdout: str) -> list[str]:
    """Checks for one command of the paper pass."""
    if argv[0] in ("pvalue", "test"):
        return check_response(argv, stdout)
    what = argv[1]
    if what == "table1":
        rows = (_csv_rows(stdout) if _opt(argv, "--format") == "csv"
                else json.loads(stdout)["results"]["rows"])
        return _check_table1(rows)
    if what == "table2":
        margins = tuple(int(v) for v in _opt(argv, "--margins").split(","))
        return _check_table2(margins, json.loads(stdout)["results"]["rows"])
    if what == "figure":
        which = _opt(argv, "--which")
        rows = _csv_rows(stdout)
        if which == "fig1":
            return _check_fig1(rows)
        if which == "fig2":
            return _check_fig2(rows)
        if which == "fig4":
            return _check_fig4(rows)
        return _check_unit({f"{key}[{i}]": float(r[key]) for i, r in enumerate(rows)
                            for key in ("p_min_likelihood", "p_conditional")})
    json.loads(stdout)  # umpu and bias: the response must at least parse
    return []
