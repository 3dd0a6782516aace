"""Seeded request generators for the three benchmark workloads.

Every request is an argv list for ``twoside.cli.main``; the program sees
nothing else. The same seed always yields the same lists.

Streams are cut into fixed-size sessions, each served by one fresh
process. Within a session the size parameter that drives the cost of a
request (support size, degrees of freedom) is stratified: the log range is
split into one stratum per request and each stratum is sampled once, so a
session covers the whole range with the intended log-uniform shape and two
sessions cost about the same. Request kinds take turns over the strata for
the same reason. Everything else (probabilities, margins, odds, where the
observed value falls) is drawn freely from the seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact_tests", "continuous_tests", "paper_artifacts")

# requests per fresh process; a fixed size keeps peak RSS independent of speed
SESSION_SIZE = {"exact_tests": 250, "continuous_tests": 1000}
# untimed requests at the start of each session, drawn from the same stream
WARMUP_SIZE = 5

EXACT_KINDS = ("test_binomial", "test_fisher", "pvalue_binom", "pvalue_hyper", "pvalue_nchyper")
CONTINUOUS_KINDS = ("test_variance", "test_f", "pvalue_chisq", "pvalue_f", "pvalue_truncnorm")

SUPPORT_RANGE = (10, 50_000)
VARIANCE_N_RANGE = (2, 5000)
F_N1_RANGE = (2, 100_000)
F_N2_RANGE = (4, 100_000)  # the default mean anchor needs n2 >= 4
DF_RANGE = (1, 5000)
F_DEN_DF_RANGE = (3, 5000)  # the F mean needs d2 > 2
CUTOFF_RANGE = (0.05, 5.0)
ODDS_RANGE = (0.2, 5.0)
Z_RANGE = 5.0  # observed values lie within this many sd of the mean


def _num(v: float) -> str:
    return f"{v:.6g}"


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    if u is None:
        u = rng.random()
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)


def _strata(rng: random.Random, count: int, kinds: tuple[str, ...]) -> list[tuple[float, str]]:
    """(u, kind) pairs in random order: one u drawn in each of ``count``
    equal strata of [0, 1), and stratum i assigned kind i mod len(kinds), so
    every kind spans the whole range and the costliest strata always hold
    the same mix of kinds."""
    out = [((i + rng.random()) / count, kinds[i % len(kinds)]) for i in range(count)]
    rng.shuffle(out)
    return out


def _clip_int(v: float, lo: int, hi: int) -> int:
    return max(lo, min(hi, int(round(v))))


def _z(rng: random.Random) -> float:
    return rng.uniform(-Z_RANGE, Z_RANGE)


# ---------------------------------------------------------------------------
# exact_tests


def _margins(rng: random.Random, support: int) -> tuple[int, int, int]:
    """(row1, col1, total) whose hypergeometric support has ``support`` points."""
    small = support - 1
    large = small + rng.randint(0, 2 * small)
    total = small + large + rng.randint(0, 2 * (small + large))
    if rng.random() < 0.5:
        return small, large, total
    return large, small, total


def _nchyper_moments(r: int, c: int, n: int, odds: float) -> tuple[float, float]:
    """Approximate mean and sd of Fisher's noncentral hypergeometric.

    The mean solves mu (n - r - c + mu) = odds (r - mu)(c - mu) inside the
    support; the variance is the usual large-sample form.
    """
    lo, hi = max(0, r + c - n), min(r, c)
    a = 1.0 - odds
    b = (n - r - c) + odds * (r + c)
    k = -odds * r * c
    if abs(a) < 1e-12:
        mu = -k / b
    else:
        disc = math.sqrt(max(b * b - 4.0 * a * k, 0.0))
        roots = ((-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a))
        mu = next((m for m in roots if lo <= m <= hi), min(max(roots[0], lo), hi))
    inv = 0.0
    for part in (mu - lo + 0.5, r - mu + 0.5, c - mu + 0.5, n - r - c + mu + 0.5):
        inv += 1.0 / max(part, 0.5)
    return mu, math.sqrt(1.0 / inv)


def _exact_request(rng: random.Random, kind: str, support: int) -> tuple[tuple, list[str]]:
    """(distribution key, argv) for one exact_tests request."""
    if kind in ("test_binomial", "pvalue_binom"):
        n = support - 1
        p = _num(rng.uniform(0.02, 0.98))
        pf = float(p)
        x = _clip_int(n * pf + _z(rng) * math.sqrt(n * pf * (1.0 - pf)), 0, n)
        key = ("binom", n, p)
        if kind == "test_binomial":
            return key, ["test", "binomial", "--x", str(x), "--n", str(n), "--p0", p]
        return key, ["pvalue", "--dist", f"binom:{n},{p}", "--x", str(x), "--method", "all"]

    r, c, n = _margins(rng, support)
    lo, hi = max(0, r + c - n), min(r, c)
    if kind == "pvalue_nchyper":
        odds = _num(_log_uniform(rng, *ODDS_RANGE))
        mu, sd = _nchyper_moments(r, c, n, float(odds))
        x = _clip_int(mu + _z(rng) * sd, lo, hi)
        return (("nchyper", r, c, n, odds),
                ["pvalue", "--dist", f"nchyper:{r},{c},{n},{odds}", "--x", str(x), "--method", "all"])
    mu = r * c / n
    sd = math.sqrt(r * c * (n - r) * (n - c) / (n * n * max(n - 1, 1)))
    x = _clip_int(mu + _z(rng) * sd, lo, hi)
    key = ("hyper", r, c, n)
    if kind == "test_fisher":
        cells = (x, r - x, c - x, n - r - c + x)
        return key, ["test", "fisher", "--table", ",".join(map(str, cells))]
    return key, ["pvalue", "--dist", f"hyper:{r},{c},{n}", "--x", str(x), "--method", "all"]


def _exact_session(rng: random.Random, seen: set, count: int,
                   support_range: tuple[int, int] = SUPPORT_RANGE) -> list[list[str]]:
    out = []
    for u, kind in _strata(rng, count, EXACT_KINDS):
        support = max(2, int(round(_log_uniform(rng, *support_range, u))))
        while True:
            key, argv = _exact_request(rng, kind, support)
            if key not in seen:
                seen.add(key)
                out.append(argv)
                break
    return out


# ---------------------------------------------------------------------------
# continuous_tests


def _positive(rng: random.Random, v: float, mean: float) -> float:
    """v itself when positive, else a point of the left tail below the mean."""
    return v if v > 0.0 else mean * math.exp(-rng.uniform(0.0, 5.0))


def _f_moments(d1: int, d2: int) -> tuple[float, float]:
    mean = d2 / (d2 - 2.0)
    if d2 <= 4:
        return mean, mean
    var = 2.0 * d2 * d2 * (d1 + d2 - 2.0) / (d1 * (d2 - 2.0) ** 2 * (d2 - 4.0))
    return mean, math.sqrt(var)


def _continuous_request(rng: random.Random, kind: str, u: float) -> list[str]:
    if kind == "test_variance":
        n = int(round(_log_uniform(rng, *VARIANCE_N_RANGE, u)))
        df = n - 1
        stat = _positive(rng, df + _z(rng) * math.sqrt(2.0 * df), df)
        sigma0sq = float(_num(_log_uniform(rng, 0.1, 10.0)))
        return ["test", "variance", "--s2", _num(stat * sigma0sq / df), "--n", str(n),
                "--sigma0sq", _num(sigma0sq)]
    if kind == "test_f":
        n1 = int(round(_log_uniform(rng, *F_N1_RANGE, u)))
        n2 = int(round(_log_uniform(rng, *F_N2_RANGE)))
        mean, sd = _f_moments(n1 - 1, n2 - 1)
        ratio = _positive(rng, mean + _z(rng) * sd, mean)
        s2sq = float(_num(rng.uniform(0.5, 2.0)))
        return ["test", "f", "--s1sq", _num(ratio * s2sq), "--n1", str(n1),
                "--s2sq", _num(s2sq), "--n2", str(n2)]
    if kind == "pvalue_chisq":
        df = int(round(_log_uniform(rng, *DF_RANGE, u)))
        x = _positive(rng, df + _z(rng) * math.sqrt(2.0 * df), df)
        return ["pvalue", "--dist", f"chisq:{df}", "--x", _num(x), "--method", "all"]
    if kind == "pvalue_f":
        d1 = int(round(_log_uniform(rng, *DF_RANGE, u)))
        d2 = int(round(_log_uniform(rng, *F_DEN_DF_RANGE)))
        mean, sd = _f_moments(d1, d2)
        x = _positive(rng, mean + _z(rng) * sd, mean)
        return ["pvalue", "--dist", f"f:{d1},{d2}", "--x", _num(x), "--method", "all"]
    cutoff = _log_uniform(rng, *CUTOFF_RANGE, u)
    phi = math.exp(-0.5 * cutoff * cutoff) / math.sqrt(2.0 * math.pi)
    lam = phi / (0.5 * math.erfc(-cutoff / math.sqrt(2.0)))
    sd = math.sqrt(max(1.0 - cutoff * lam - lam * lam, 1e-6))
    x = max(lam + _z(rng) * sd, -cutoff * rng.uniform(0.0, 1.0))
    return ["pvalue", "--dist", f"truncnorm:{_num(cutoff)}", "--x", _num(x), "--method", "all"]


def _continuous_session(rng: random.Random, count: int) -> list[list[str]]:
    return [_continuous_request(rng, kind, u) for u, kind in _strata(rng, count, CONTINUOUS_KINDS)]


# ---------------------------------------------------------------------------
# paper_artifacts

# README sample for ``test variance --data``; written next to the pass
SAMPLE_DATA = "1.21\n0.37\n2.05\n0.88\n1.64\n0.52\n"
SAMPLE_FILE = "sample.txt"

SWEEP_DISTS = tuple(f"chisq:{k}" for k in range(1, 31)) + ("f:5,10", "f:10,20", "f:20,40", "f:50,80")
BIAS_METHODS = ("doubled", "conditional", "umpu", "min_likelihood")
TABLE2_MARGINS = ("9,5,30", "9,5,40", "2000,2000,6000")


def paper_pass() -> list[list[str]]:
    """Every paper artifact and README command, in a fixed order."""
    readme = [
        "pvalue --dist chisq:5 --x 0.5 --anchor mean --method all",
        "pvalue --dist binom:10,0.2 --x 5",
        "pvalue --dist chisq:5 --x 4.8 --method doubled --no-truncate",
        "pvalue --dist chisq:5 --x 0.5 --method weighted:0.731",
        "test variance --s2 0.2 --n 6 --sigma0sq 1",
        f"test variance --data {SAMPLE_FILE} --sigma0sq 1",
        "test f --s1sq 2 --n1 7 --s2sq 1 --n2 12",
        "test binomial --x 17 --n 101 --p0 0.1",
        "test fisher --table 4,5,1,20",
        "analyze table1 --format csv",
    ]
    cmds = [line.split() for line in readme]
    cmds.append(["analyze", "table1"])
    cmds += [["analyze", "table2", "--margins", m] for m in TABLE2_MARGINS]
    cmds += [["analyze", "figure", "--which", f"fig{i}"] for i in range(1, 5)]
    for dist in SWEEP_DISTS:
        cmds.append(["analyze", "umpu", "--dist", dist, "--alpha", "0.05"])
        cmds += [["analyze", "bias", "--dist", dist, "--method", m, "--alpha", "0.05"]
                 for m in BIAS_METHODS]
    return cmds


# ---------------------------------------------------------------------------


def sessions(workload: str, seed: int):
    """Endless (warm-up, timed) argv lists, one pair per fresh process.

    Stream sessions continue one seeded stream, so distributions are never
    repeated across a run; every paper pass is the same list, in the seed's
    order.
    """
    if workload == "paper_artifacts":
        cmds = paper_pass()
        random.Random(f"paper_artifacts:{seed}").shuffle(cmds)
        while True:
            yield [], cmds
    rng = random.Random(f"{workload}:{seed}")
    size = SESSION_SIZE[workload]
    if workload == "exact_tests":
        seen: set = set()
        while True:
            # warm-up tables are small and never reused by a timed request
            yield (_exact_session(rng, seen, WARMUP_SIZE, (10, 40)),
                   _exact_session(rng, seen, size))
    while True:
        yield _continuous_session(rng, WARMUP_SIZE), _continuous_session(rng, size)
