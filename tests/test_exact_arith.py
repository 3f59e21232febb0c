"""Scalars, polynomials, truncated inverse series, generic instantiation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpimod import (
    InvSeries,
    UniPoly,
    as_scalar,
    generic_instantiate,
    poly_series_quotient,
)


def test_as_scalar_forms():
    assert as_scalar("3/7") == Fraction(3, 7)
    assert as_scalar(2) == Fraction(2)


def test_unipoly_normalization_and_degree():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly.zero().degree == -1
    p = UniPoly.linear(3)
    q = UniPoly.linear(-1)
    assert (p * q).degree == p.degree + q.degree
    assert (p * q).coeffs == (-3, 2, 1)


@given(
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
    st.fractions(max_denominator=20),
)
def test_eval_is_multiplicative(a, b, x):
    def at(p):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc

    p, q = UniPoly(a), UniPoly(b)
    assert at(p * q) == at(p) * at(q)


def test_series_quotient_identity():
    s = poly_series_quotient(UniPoly.linear(1), UniPoly.linear(1), 3)
    assert s.constant == 1 and s.coeffs == (0, 0, 0)


def test_series_quotient_geometric():
    s = poly_series_quotient(UniPoly.linear(1), UniPoly((0, 1)), 2)
    assert (s.constant, s.coeffs) == (1, (1, 0))


def test_series_quotient_frozen_example():
    num = UniPoly.linear(2) * UniPoly.linear(-1)
    den = UniPoly((0, 0, 1))
    s = poly_series_quotient(num, den, 3)
    assert (s.constant, s.coeffs) == (1, (1, -2, 0))


def test_series_quotient_rejects_bad_inputs():
    with pytest.raises(ValueError, match="monic"):
        poly_series_quotient(UniPoly((1,)), UniPoly((0, 2)), 2)
    with pytest.raises(ValueError, match="degree"):
        poly_series_quotient(UniPoly((0, 0, 1)), UniPoly.linear(0), 2)


def test_poly_series_quotient_degree_gap():
    # 1/u = u^{-1}
    s = poly_series_quotient(UniPoly.one(), UniPoly((0, 1)), 3)
    assert (s.constant, s.coeffs) == (0, (1, 0, 0))
    # (u+1)/u^2 = u^{-1} + u^{-2}
    s = poly_series_quotient(UniPoly.linear(1), UniPoly((0, 0, 1)), 3)
    assert (s.constant, s.coeffs) == (0, (1, 1, 0))


@st.composite
def monic(draw, max_degree=6):
    d = draw(st.integers(1, max_degree))
    lower = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    return UniPoly(tuple(lower) + (1,))


@settings(max_examples=50, deadline=None)
@given(monic(), monic(), st.integers(1, 8))
def test_quotient_pair_inverts(p, q, order):
    if p.degree != q.degree:
        return
    a = poly_series_quotient(p, q, order)
    b = poly_series_quotient(q, p, order)
    prod = a * b
    assert prod.constant == 1
    assert all(c == 0 for c in prod.coeffs)


def test_inv_series_inverse():
    s = InvSeries(1, [2, -3, 5])
    prod = s * s.inverse()
    assert prod.constant == 1 and all(c == 0 for c in prod.coeffs)
    with pytest.raises(ZeroDivisionError):
        InvSeries(0, [1]).inverse()


def test_generic_instantiate_deterministic():
    a = generic_instantiate({"x", "y"}, 7)
    b = generic_instantiate({"x", "y"}, 7)
    assert a.class_values == b.class_values


def test_generic_instantiate_noninteger_gaps():
    for seed in range(100):
        g = generic_instantiate({"a", "b", "c"}, seed)
        vals = list(g.class_values.values())
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert (vals[i] - vals[j]).denominator != 1


def test_generic_assignment_offsets():
    g = generic_instantiate({"a"}, 1)
    assert g.value("a", 5) - g.value("a") == 5
