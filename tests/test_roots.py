"""Brent's method gives up with a numerical failure, never an unconverged point."""

from __future__ import annotations

import math

import pytest

from twoside import analysis, roots
from twoside.cli import main
from twoside.roots import brentq


def test_brentq_raises_when_it_does_not_converge(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError,
                       match=r"brentq did not converge in 2 iterations on \[0.0, 3.0\]"):
        brentq(math.cos, 0.0, 3.0)


def test_unconverged_root_is_a_numerical_failure_on_the_command_line(monkeypatch, capsys):
    analysis.umpu_weights.cache_clear()  # an earlier solve of this law would be served
    monkeypatch.setattr(roots, "_MAX_ITER", 2)
    assert main(["analyze", "umpu", "--dist", "chisq:5", "--alpha", "0.05"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    # the first search to give up is the partner of the first left cut, the
    # lower 5% point 1.1455: walked from twice its distance across the peak
    # of c f(c) at df = 5, one step 16 times as far from the peak brackets it
    assert captured.err == ("error: numerical failure: brentq did not converge in 2 iterations "
                            "on [12.70904754787645, 128.3447607660232]\n")


def test_walk_brackets_the_root_on_its_last_step(monkeypatch):
    brackets = []
    solve = roots.brentq

    def spied(f, a, b):
        brackets.append((a, b))
        return solve(f, a, b)

    monkeypatch.setattr(roots, "brentq", spied)
    # 16 times as far from the pivot 0 each step: 2, 32, 512, 8192
    assert roots.walk(lambda t: 1000.0 - t, 2.0, 0.0, math.inf) == pytest.approx(1000.0,
                                                                                 rel=1e-15)
    assert brackets == [(512.0, 8192.0)]
    # a start already past the root is bracketed with the pivot
    assert roots.walk(lambda t: 1000.0 - t, 5000.0, 0.0, math.inf) == pytest.approx(1000.0,
                                                                                    rel=1e-15)
    assert brackets[1] == (0.0, 5000.0)
    # toward a finite end the step goes 16 times closer to it instead
    assert roots.walk(lambda t: t - 1e-30, 0.5, 1.0, 0.0) == pytest.approx(1e-30, rel=1e-15)


def test_walk_returns_none_at_the_end_or_past_the_float_range():
    assert roots.walk(lambda t: 1.0, 0.5, 1.0, 0.0) is None
    assert roots.walk(lambda t: 1.0, 2.0, 0.0, math.inf) is None
    assert roots.walk(lambda t: 1.0, 0.0, 1.0, 0.0) is None  # start on the end
