"""Gelfand-Tsetlin tableaux for a pyramid.

A tableau assigns an entry to every triple (k, i, j) with 1 <= j <= i <= n and
1 <= k <= p_j: row i, position j, layer k.  Entries are symbolic pairs
(class id, integer offset); two entries differ by an integer exactly when they
share a class.  Attaching a `GenericAssignment` turns entries into exact
rationals without losing the symbolic integrality structure.  The top row
(i = n) is frozen: integral shifts never touch it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact_arith import GenericAssignment, as_scalar
from .pyramid import Pyramid


class TriIndex(NamedTuple):
    k: int  # layer
    i: int  # row
    j: int  # position


# Pyramids whose index tuples each memo below keeps.  The tuples are pure
# functions of the immutable, hashable pyramid, rebuilt for every tableau,
# window, action context and maximal set otherwise; a workload uses a few
# pyramids at a time.
INDEX_MEMO_SIZE = 16


@lru_cache(maxsize=INDEX_MEMO_SIZE)
def all_indices(pi: Pyramid) -> tuple[TriIndex, ...]:
    """Every valid triple for the pyramid, in lexicographic (i, j, k) order."""
    return tuple(t for row in _rows(pi) for t in row)


@lru_cache(maxsize=INDEX_MEMO_SIZE)
def _rows(pi: Pyramid) -> tuple[tuple[TriIndex, ...], ...]:
    """The rows' triples, in (j, k) order, at their row numbers 1..n (row 0 empty)."""
    return ((),) + tuple(
        tuple(TriIndex(k, i, j) for j in range(1, i + 1) for k in range(1, pi.p(j) + 1))
        for i in range(1, pi.n + 1)
    )


def row_indices(pi: Pyramid, i: int) -> tuple[TriIndex, ...]:
    """The triples of row i, in (j, k) order; empty outside 1..n."""
    return _rows(pi)[i] if 1 <= i <= pi.n else ()


@lru_cache(maxsize=INDEX_MEMO_SIZE)
def mutable_indices(pi: Pyramid) -> tuple[TriIndex, ...]:
    """Triples below the frozen top row."""
    return tuple(t for t in all_indices(pi) if t.i < pi.n)


def valid_index(pi: Pyramid, t: TriIndex) -> bool:
    return 1 <= t.j <= t.i <= pi.n and 1 <= t.k <= pi.p(t.j)


class TableauDelta:
    """Sparse integral shift with zero support on the top row.

    Immutable: nothing changes `offsets` after construction, so the hash is
    computed once, on first use.
    """

    __slots__ = ("offsets", "_hash")

    def __init__(self, offsets: dict[TriIndex, int] | None = None):
        self.offsets = {
            TriIndex(*t): int(v) for t, v in (offsets or {}).items() if v != 0
        }
        self._hash = None

    @classmethod
    def _normal(cls, offsets: dict[TriIndex, int]) -> "TableauDelta":
        """The shift over `offsets` as given, which must already be normal:
        `TriIndex` keys and nonzero `int` values.  It is kept, not copied."""
        d = object.__new__(cls)
        d.offsets = offsets
        d._hash = None
        return d

    @staticmethod
    def unit(t: TriIndex, amount: int = 1) -> "TableauDelta":
        return TableauDelta({t: amount})

    def get(self, t: TriIndex) -> int:
        return self.offsets.get(t, 0)

    def __add__(self, other: "TableauDelta") -> "TableauDelta":
        out = dict(self.offsets)
        for t, v in other.offsets.items():
            s = out.get(t, 0) + v
            if s:
                out[t] = s
            else:
                del out[t]  # v != 0, so t was there
        return TableauDelta._normal(out)

    def __neg__(self) -> "TableauDelta":
        return TableauDelta._normal({t: -v for t, v in self.offsets.items()})

    def __sub__(self, other: "TableauDelta") -> "TableauDelta":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, TableauDelta) and self.offsets == other.offsets

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.offsets.items()))
        return self._hash

    def key(self):
        """Deterministic sort key."""
        return tuple(sorted(self.offsets.items()))

    def __repr__(self) -> str:
        items = ", ".join(f"{tuple(t)}:{v:+d}" for t, v in sorted(self.offsets.items()))
        return f"TableauDelta({{{items}}})"


class Tableau:
    """Symbolic Gelfand-Tsetlin tableau, optionally instantiated."""

    __slots__ = ("pyramid", "entries", "assignment")

    def __init__(
        self,
        pyramid: Pyramid,
        entries: dict[TriIndex, tuple],
        assignment: GenericAssignment | None = None,
    ):
        self._keep(pyramid, {TriIndex(*t): (cls, int(off)) for t, (cls, off) in entries.items()},
                   assignment)

    def _keep(self, pyramid: Pyramid, entries: dict[TriIndex, tuple],
              assignment: GenericAssignment | None = None) -> None:
        """Check `entries`, `TriIndex` keys and (class, int offset) values,
        and keep them, not copied: every key valid, every triple present."""
        for t in entries:
            if not valid_index(pyramid, t):
                raise ValueError(f"index {tuple(t)} invalid for {pyramid}")
        for t in all_indices(pyramid):
            if t not in entries:
                raise ValueError(f"missing entry at {tuple(t)}")
        self.pyramid = pyramid
        self.entries = entries
        self.assignment = assignment

    def entry(self, t: TriIndex) -> tuple:
        return self.entries[TriIndex(*t)]

    def value(self, t: TriIndex) -> Fraction:
        if self.assignment is None:
            raise ValueError("tableau is not instantiated")
        cls, off = self.entries[TriIndex(*t)]
        return self.assignment.value(cls, off)

    def classes(self) -> set:
        return {cls for cls, _ in self.entries.values()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.pyramid == other.pyramid
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.pyramid, frozenset(self.entries.items())))


def shift(l: Tableau, d: TableauDelta) -> Tableau:
    """Entrywise integral shift; classes unchanged; top row must be untouched."""
    entries = dict(l.entries)
    for t, v in d.offsets.items():
        if not valid_index(l.pyramid, t):
            raise ValueError(f"shift support {tuple(t)} outside the index set")
        if t.i == l.pyramid.n:
            raise ValueError("shifts cannot touch the top row")
        cls, off = entries[t]
        entries[t] = (cls, off + v)
    return Tableau(l.pyramid, entries, l.assignment)


def is_noncritical(l: Tableau) -> bool:
    """No two entries coincide within any row below the top."""
    for i in range(1, l.pyramid.n):
        row = [l.entries[t] for t in row_indices(l.pyramid, i)]
        if len(set(row)) < len(row):
            return False
    return True


def tableau_from_values(pi: Pyramid, values: dict[TriIndex, object]) -> Tableau:
    """Build an instantiated tableau from explicit rational values.

    Values whose difference is an integer share a class; each class is anchored
    at its first value.  In lowest terms, v - a is an integer exactly when a
    has v's denominator and a numerator congruent to v's modulo it.
    """
    anchors: list[Fraction] = []
    entries = {}
    for t, v in values.items():
        v = as_scalar(v)
        p, q = v.numerator, v.denominator
        for cls, a in enumerate(anchors):
            if a.denominator == q and (p - a.numerator) % q == 0:
                break
        else:
            cls = len(anchors)
            anchors.append(v)
        entries[TriIndex(*t)] = (cls, (p - anchors[cls].numerator) // q)
    return Tableau(pi, entries, GenericAssignment(dict(enumerate(anchors))))


def tableau_to_json(l: Tableau) -> dict:
    ents = []
    for t in all_indices(l.pyramid):
        cls, off = l.entry(t)
        ents.append({"k": t.k, "i": t.i, "j": t.j, "class": str(cls), "offset": off})
    return {"pyramid": l.pyramid.to_json(), "entries": ents}


def triple_from_json(obj: dict) -> TriIndex:
    """The triple of a {"k", "i", "j"} object whose three fields are JSON integers."""
    for name in ("k", "i", "j"):
        if type(obj[name]) is not int:
            raise ValueError(f'triple field "{name}" must be a JSON integer')
    return TriIndex(obj["k"], obj["i"], obj["j"])


def tableau_from_json(obj: dict) -> Tableau:
    pi = Pyramid.from_json(obj["pyramid"])
    entries = {}
    for e in obj["entries"]:
        t = triple_from_json(e)
        cls, off = e["class"], e["offset"]
        if not isinstance(cls, str):
            raise ValueError(f"class at {tuple(t)} must be a string")
        if type(off) is not int:
            raise ValueError(f"offset at {tuple(t)} must be an integer")
        if t in entries:
            raise ValueError(f"entry {tuple(t)} listed twice")
        entries[t] = (cls, off)
    l = object.__new__(Tableau)
    l._keep(pi, entries)
    return l
