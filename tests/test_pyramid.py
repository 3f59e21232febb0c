"""Pyramid shapes and the index bookkeeping they induce."""

import pytest

from wpimod import Pyramid, e_generator_min_degree
from wpimod.pyramid import MAX_TRIPLES
from wpimod.tableau import all_indices


def test_rows_validation():
    with pytest.raises(ValueError):
        Pyramid((2, 1))
    with pytest.raises(ValueError):
        Pyramid((0, 1))
    assert Pyramid((1, 2, 2)).n == 3


@pytest.mark.parametrize("rows", [(1,) * 30 + (5,), (1, 1, MAX_TRIPLES - 5), (MAX_TRIPLES,)])
def test_triples_are_bounded(rows):
    """A pyramid of MAX_TRIPLES triples is accepted, and one more is refused."""
    assert len(all_indices(Pyramid(rows))) == MAX_TRIPLES
    bigger = rows[:-1] + (rows[-1] + 1,)
    with pytest.raises(ValueError, match=f"more than {MAX_TRIPLES} triples"):
        Pyramid(bigger)


def test_e_generator_min_degree():
    assert e_generator_min_degree(Pyramid((1, 1, 1)), 1) == 1
    assert e_generator_min_degree(Pyramid((1, 2)), 1) == 2
    assert e_generator_min_degree(Pyramid((1, 3)), 1) == 3
    with pytest.raises(ValueError):
        e_generator_min_degree(Pyramid((1, 2)), 2)


def test_min_degree_one_iff_equal_rows():
    for rows in [(1, 1), (1, 2), (2, 2), (1, 2, 2), (1, 1, 3)]:
        pi = Pyramid(rows)
        for i in range(1, pi.n):
            d = e_generator_min_degree(pi, i)
            assert d >= 1
            assert (d == 1) == (rows[i] == rows[i - 1])


def test_json_round_trip():
    pi = Pyramid((1, 2, 2))
    assert Pyramid.from_json(pi.to_json()) == pi
