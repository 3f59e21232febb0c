"""Tableaux: index set, shifts, weights, standardness, criticality."""

from fractions import Fraction

import pytest

from wpimod import (
    EvaluationFactor,
    GlWeight,
    Pyramid,
    Tableau,
    TableauDelta,
    TriIndex,
    all_indices,
    mutable_indices,
    satisfies,
    shift,
    standard_set,
    tableau_from_json,
    tableau_from_values,
    tableau_to_json,
)
from wpimod.tableau import is_noncritical

from helpers import GL2, P12, gl2_tableau


def test_index_sets():
    assert len(all_indices(GL2)) == 3
    # pyramid (1,2): row 1 has one triple, row 2 has three
    assert len(all_indices(P12)) == 4
    assert all(t.i < 2 for t in mutable_indices(GL2))
    assert mutable_indices(P12) == (TriIndex(1, 1, 1),)


def test_tableau_requires_all_entries():
    with pytest.raises(ValueError):
        Tableau(GL2, {TriIndex(1, 1, 1): ("a", 0)})
    with pytest.raises(ValueError):
        Tableau(GL2, {TriIndex(2, 1, 1): ("a", 0)})


def test_delta_group_action():
    l = gl2_tableau(2, -1, 1)
    a = TableauDelta.unit(TriIndex(1, 1, 1), 2)
    b = TableauDelta.unit(TriIndex(1, 1, 1), -2)
    assert shift(shift(l, a), b) == l
    assert shift(l, TableauDelta()) == l
    assert (a + b) == TableauDelta()


def test_sums_and_negatives_are_normal():
    a, b = TriIndex(1, 1, 1), TriIndex(1, 1, 2)
    for d in (TableauDelta({a: 2, b: -1}), TableauDelta.unit(a, 3), TableauDelta()):
        zero = d + (-d)
        assert zero == TableauDelta() and hash(zero) == hash(TableauDelta())
        assert zero.offsets == {}
        assert -(-d) == d and hash(-(-d)) == hash(d)
        assert a not in (d + TableauDelta.unit(a, -d.get(a))).offsets if d.get(a) else True
        for t, v in (d + d + TableauDelta.unit(b, 1)).offsets.items():
            assert type(t) is TriIndex and type(v) is int and v != 0


def test_top_row_shift_rejected():
    l = gl2_tableau(2, -1, 1)
    with pytest.raises(ValueError):
        shift(l, TableauDelta.unit(TriIndex(1, 2, 1), 1))


def test_weight_example():
    # the highest-weight tableau of (1, 0): top row l = (1, -1), row 1 entry 1
    f = EvaluationFactor(GlWeight((1, 0)), depth=0)
    assert [f.seed.value(t) for t in all_indices(GL2)] == [1, 1, -1]
    assert f.gl_weight(f.highest()) == (Fraction(1), Fraction(0))


def test_weight_shift_is_simple_root():
    f = EvaluationFactor(GlWeight((2, 0)), depth=0)
    w0 = f.gl_weight(f.highest())
    w1 = f.gl_weight(TableauDelta.unit(TriIndex(1, 1, 1), 1))
    assert [a - b for a, b in zip(w1, w0)] == [Fraction(1), Fraction(-1)]


def _is_standard(l):
    return satisfies(standard_set(l.pyramid), l)


def test_is_standard_examples():
    assert _is_standard(gl2_tableau(2, -1, 1))
    assert _is_standard(gl2_tableau(2, -1, 2))  # weak boundary
    assert not _is_standard(gl2_tableau(2, -1, -1))  # strictness fails


def test_standard_implies_noncritical():
    for low in range(-1, 3):
        l = gl2_tableau(2, -1, low)
        if _is_standard(l):
            assert is_noncritical(l)


def test_is_noncritical():
    values = {t: ("a", 0) for t in all_indices(Pyramid((1, 1, 1)))}
    values[TriIndex(1, 2, 2)] = ("a", 1)
    l = Tableau(Pyramid((1, 1, 1)), values)
    assert is_noncritical(l)
    values[TriIndex(1, 2, 2)] = ("a", 0)
    assert not is_noncritical(Tableau(Pyramid((1, 1, 1)), values))


def test_classes_by_integer_difference():
    l = tableau_from_values(GL2, {
        TriIndex(1, 2, 1): Fraction(5, 2),
        TriIndex(1, 2, 2): Fraction(-1, 2),
        TriIndex(1, 1, 1): Fraction(1, 3),
    })
    c_top1, _ = l.entry(TriIndex(1, 2, 1))
    c_top2, _ = l.entry(TriIndex(1, 2, 2))
    c_low, _ = l.entry(TriIndex(1, 1, 1))
    assert c_top1 == c_top2 != c_low
    assert l.value(TriIndex(1, 2, 2)) == Fraction(-1, 2)


def test_json_round_trip():
    l = gl2_tableau(2, -1, 1)
    back = tableau_from_json(tableau_to_json(l))
    # classes stringify through JSON but the integer structure survives
    assert {t: off for t, (c, off) in back.entries.items()} == {
        t: off for t, (c, off) in l.entries.items()
    }
