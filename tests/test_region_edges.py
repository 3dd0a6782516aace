"""A frozen edge sweep of the UMPU and minimum-likelihood regions.

Chi-square and F laws from one degree of freedom to a million, skewed both
ways, at test levels from 0.999 down to 1e-315 (a subnormal), through the
three commands that solve a region: ``analyze umpu``, ``analyze bias
--method umpu`` and ``analyze bias --method min_likelihood``. Every level
down to 1e-12 must succeed. Below that a region may leave the
floating-point range, so a command may also end in a domain error (3),
with nothing on stdout and no traceback; a numerical failure (4) is never
the answer. A plain list keeps the sweep deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from twoside.analysis import minlik_region, umpu_weights
from twoside.cli import main, parse_dist

LAWS = ["chisq:1", "chisq:2", "chisq:3", "chisq:5", "chisq:30", "chisq:300", "chisq:5000",
        "f:1,1", "f:3,2", "f:5,10", "f:50,80", "f:1000001,2", "f:2,1000001", "f:100,4"]
ALPHAS = ["0.999", "0.05", "1e-06", "1e-12", "1e-300", "1e-315"]


def _commands(law: str, alpha: str) -> list[list[str]]:
    return [["analyze", "umpu", "--dist", law, "--alpha", alpha]] + [
        ["analyze", "bias", "--dist", law, "--method", method, "--alpha", alpha]
        for method in ("umpu", "min_likelihood")]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("law", LAWS)
def test_region_commands_at_the_edges(law, alpha):
    for argv in _commands(law, alpha):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        where = " ".join(argv)
        assert "probability must lie in (0, 1)" not in err.getvalue(), where
        if float(alpha) >= 1e-12:
            assert (status, err.getvalue()) == (0, ""), where
        else:
            assert status in (0, 3), where
            if status:
                assert out.getvalue() == "", where
                assert err.getvalue().startswith("error: "), where
                assert "Traceback" not in err.getvalue(), where
        if status == 0 and argv[1] == "umpu":
            results = json.loads(out.getvalue())["results"]
            assert results["alpha_left"] + results["alpha_right"] == pytest.approx(
                float(alpha), rel=1e-9), where


@pytest.mark.parametrize("law", LAWS)
def test_a_region_at_1e_300_holds_alpha_or_is_refused(law):
    # a cut that leaves the float range must not come back as a region whose
    # tails miss alpha, such as (0, inf)
    d = parse_dist(law)

    def umpu_cuts() -> tuple[float, float]:
        region = umpu_weights(d, 1e-300)[1]
        return region.c_left, region.c_right

    for solve in (umpu_cuts, lambda: minlik_region(d, 1e-300)):
        try:
            c_left, c_right = solve()
        except ValueError:
            continue
        assert d.cdf(c_left) + d.sf(c_right) == pytest.approx(1e-300, rel=1e-9)
