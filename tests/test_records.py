"""The public result and law types are immutable records.

The reprs, signatures, equality and hashing below were frozen from the
frozen-dataclass implementation these records replace, so callers see the
same behaviour.
"""

from __future__ import annotations

import inspect

import pytest

from twoside import stattests
from twoside.analysis import BiasReport, CriticalRegion
from twoside.dist import (
    Binomial,
    ChiSquare,
    FRatio,
    Hypergeometric,
    NoncentralHypergeometric,
    Support,
    Triangular,
    TruncatedNormal,
    Uniform,
    _discrete_tables,
)
from twoside.pvalue import Weights
from twoside.stattests import ContingencyTable, DavisStatistics

# (factory, repr, str(inspect.signature(class)))
RECORDS = [
    (lambda: Support(0.0, 1.5, False),
     "Support(lo=0.0, hi=1.5, is_discrete=False)",
     "(lo: 'float', hi: 'float', is_discrete: 'bool') -> None"),
    (lambda: ChiSquare(5), "ChiSquare(df=5)", "(df: 'int') -> None"),
    (lambda: FRatio(5, 10), "FRatio(d1=5, d2=10)", "(d1: 'int', d2: 'int') -> None"),
    (lambda: Uniform(0.0, 1.0), "Uniform(lower=0.0, upper=1.0)",
     "(lower: 'float', upper: 'float') -> None"),
    (lambda: Triangular(1.0, 2.0), "Triangular(left=1.0, right=2.0)",
     "(left: 'float', right: 'float') -> None"),
    (lambda: TruncatedNormal(0.5), "TruncatedNormal(cutoff=0.5)", "(cutoff: 'float') -> None"),
    (lambda: Binomial(10, 0.2), "Binomial(n=10, p=0.2)", "(n: 'int', p: 'float') -> None"),
    (lambda: NoncentralHypergeometric(9, 5, 30, 2.5),
     "NoncentralHypergeometric(row1=9, col1=5, total=30, odds=2.5)",
     "(row1: 'int', col1: 'int', total: 'int', odds: 'float') -> None"),
    (lambda: Hypergeometric(9, 5, 30), "Hypergeometric(row1=9, col1=5, total=30)",
     "(row1: 'int', col1: 'int', total: 'int') -> None"),
    (lambda: Weights(0.25, 0.75), "Weights(w_left=0.25, w_right=0.75)",
     "(w_left: 'float', w_right: 'float') -> None"),
    (lambda: CriticalRegion(0.5, 9.5, 0.05, 0.5, 4.0),
     "CriticalRegion(c_left=0.5, c_right=9.5, alpha=0.05, w_left=0.5, anchor=4.0)",
     "(c_left: 'float', c_right: 'float', alpha: 'float', w_left: 'float', anchor: 'float')"
     " -> None"),
    (lambda: BiasReport("doubled", 0.05, 0.04, -0.01, 1.2),
     "BiasReport(method='doubled', level=0.05, min_power=0.04, bias=-0.01, argmin_rho=1.2)",
     "(method: 'str', level: 'float', min_power: 'float', bias: 'float', argmin_rho: 'float')"
     " -> None"),
    (lambda: ContingencyTable(3, 4, 5, 6), "ContingencyTable(n11=3, n12=4, n21=5, n22=6)",
     "(n11: 'int', n12: 'int', n21: 'int', n22: 'int') -> None"),
    (lambda: DavisStatistics(-0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
     "DavisStatistics(t1=-0.1, t2=0.2, t3=0.3, t4=0.4, t5=0.5, t6=0.6)",
     "(t1: 'float', t2: 'float', t3: 'float', t4: 'float', t5: 'float', t6: 'float') -> None"),
    (lambda: stattests.TestReport(1.5, 2.0, Weights(0.25, 0.75), 0.1, 0.9, {"doubled": 0.2},
                                  "below"),
     "TestReport(statistic=1.5, anchor=2.0, weights=Weights(w_left=0.25, w_right=0.75), "
     "p_left=0.1, p_right=0.9, p_two_sided={'doubled': 0.2}, direction='below')",
     "(statistic: 'float', anchor: 'float', weights: 'Weights', p_left: 'float', "
     "p_right: 'float', p_two_sided: 'dict[str, float]', direction: 'str') -> None"),
]
IDS = [r.split("(")[0] for _, r, _ in RECORDS]


@pytest.mark.parametrize("make, text, signature", RECORDS, ids=IDS)
def test_repr_and_signature(make, text, signature):
    value = make()
    assert repr(value) == text
    assert str(inspect.signature(type(value))) == signature


@pytest.mark.parametrize("make, text, signature", RECORDS, ids=IDS)
def test_fields_are_the_constructor_arguments_in_order(make, text, signature):
    value = make()
    assert list(vars(value)) == list(inspect.signature(type(value)).parameters)


@pytest.mark.parametrize("make", [make for make, _, _ in RECORDS], ids=IDS)
def test_equal_records_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if isinstance(a, stattests.TestReport):
        # the dict of p-values makes a report unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_equal_laws_share_one_table_build():
    _discrete_tables.cache_clear()
    Binomial(10, 0.2).cdf(3.0)
    Binomial(10, 0.2).sf(3.0)
    info = _discrete_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_unequal_fields_or_classes_differ():
    assert ChiSquare(5) != ChiSquare(6)
    assert Weights(0.25, 0.75) != Weights(0.75, 0.25)
    assert Hypergeometric(9, 5, 30) != NoncentralHypergeometric(9, 5, 30, 1.0)
    assert NoncentralHypergeometric(9, 5, 30, 1.0) != Hypergeometric(9, 5, 30)
    assert ContingencyTable(3, 4, 5, 6) != (3, 4, 5, 6)


def test_a_fixed_field_is_read_but_not_passed():
    d = Hypergeometric(9, 5, 30)
    assert d.odds == 1.0
    assert "odds" not in vars(d)
    with pytest.raises(TypeError):
        Hypergeometric(9, 5, 30, 1.0)
    with pytest.raises(TypeError):
        NoncentralHypergeometric(9, 5, 30)


@pytest.mark.parametrize("make", [make for make, _, _ in RECORDS], ids=IDS)
def test_records_are_immutable(make):
    value = make()
    name = next(iter(vars(value)))
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert repr(value) == before


@pytest.mark.parametrize("bad", [
    lambda: ChiSquare(0),
    lambda: FRatio(3, 0),
    lambda: Uniform(1.0, 0.0),
    lambda: Triangular(-1.0, 1.0),
    lambda: TruncatedNormal(0.0),
    lambda: Binomial(10, 1.5),
    lambda: NoncentralHypergeometric(9, 5, 30, 0.0),
    lambda: Hypergeometric(31, 5, 30),
    lambda: Weights(0.0, 1.0),
    lambda: ContingencyTable(-1, 0, 0, 0),
    lambda: ContingencyTable(1, 2, 3, True),
])
def test_construction_still_validates(bad):
    with pytest.raises(ValueError):
        bad()
