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
    # the first search to give up is the partner of the first left cut, between
    # the peak of c f(c) at df = 5 and the point where the level falls below it
    assert captured.err == ("error: numerical failure: brentq did not converge in 2 iterations "
                            "on [5.0, 20.4180950957529]\n")
