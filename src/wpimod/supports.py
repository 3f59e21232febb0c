"""Ladder supports read off a basis window's entries, with no arithmetic.

The support rule (`_row_support`) says which ladder moves of a window
member have a nonzero coefficient; `cyclicity_probe` walks those moves, and
the defining-relation oracle's wall sets (`_WallSets`) find where a relation
case can fail among the positions eligible for it (`_eligible`).
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gt_module import BasisWindow


def _row_entries(row: list, coords: tuple) -> list:
    """The entries (class, seed offset + coordinate) of one `BasisWindow.layout` row
    at the shift with coordinates `coords`."""
    return [(cls, off if k is None else off + coords[k]) for _, k, cls, off in row]


def _member_entries(layout: list, coords: tuple) -> list:
    """Per row, the `_row_entries` of the shift with coordinates `coords`."""
    return [_row_entries(row, coords) for row in layout]


def _row_support(row: list, adjacent: list) -> list[int]:
    """The pivots of row r (indices into its entries `row`) whose ladder move
    toward the adjacent row (r + 1 for e, r - 1 for f), with entries
    `adjacent`, has a nonzero coefficient.

    The support rule.  In `ActionContext.ladder_terms`, the move of pivot t
    in row r (up for e, down for f) has coefficient +-N / D times a power of
    -(v_t + pole), where v_t is t's value, N is the product of
    (v_s - v_t) over the adjacent row (row 0 is empty) and D is the product
    of (v_s - v_t) over row r without t.  At the lowest superscript the
    power is 1.  Under a `GenericAssignment`, two values of distinct classes
    differ by a non-integer (the classes' residues mod 997 are distinct),
    and two of one class differ by their offsets' difference.  So a value
    difference is zero exactly when the two entries (class, seed offset +
    shift) are equal, at every instantiation: the move is in the support
    exactly when t's entry equals no entry of the adjacent row, and D = 0,
    which raises `CriticalityError`, exactly when two entries of row r are
    equal.
    """
    adjacent = set(adjacent)
    return [j for j, entry in enumerate(row) if entry not in adjacent]


def _row_peaks(window: BasisWindow) -> list[tuple[int, ...]]:
    """Per member, in position order, the largest absolute coordinate on each
    row 1..n-1, read off the coordinates."""
    rows = [[k for _, k, _, _ in row] for row in window.layout[1:-1]]
    return [tuple([max([abs(c[k]) for k in row]) for row in rows]) for c in window.coords]


def _eligible(window: BasisWindow, peaks: list, margins: dict[int, int]) -> list[int]:
    """The positions of the members whose every coordinate on row i is at most
    radius - margins[i] (0 for a row not listed) in absolute value, read off
    their `_row_peaks` `peaks`."""
    bounds = [window.radius - margins.get(i, 0) for i in range(1, window.seed.pyramid.n)]
    fits = {p: all(v <= b for v, b in zip(p, bounds)) for p in set(peaks)}
    return [k for k, p in enumerate(peaks) if fits[p]]


class _WallSets:
    """Where the relation cases can fail in one window: the hit sets of
    `verify_defining_relations`.

    A support word is a word's ladder letters (family, row) in the order they
    act.  `order(word, pos)` is the least sum of z - h over the walks of
    `word` from member pos that visit a target that is not a member and end
    on a member, at most 1 (also when there is no such walk).  A step's z is
    1 when its coefficient is zero and h counts the other entries of its own
    row equal to its pivot's (`_row_support`); both are read off the
    entries of the shift the step starts from, member or not.  A walk that
    ends off the members adds only to a component the relation module does
    not have, so it never counts.  `hit` tells whether some support word of
    a case has order at most 0 at pos, and `scan` lists the hit positions
    among a case's eligible ones.

    One memoized walk decides every order.  A state is the support word
    still to walk, the current coordinates and whether the walk has left the
    members, which are the coordinates in `window.at`; a state that has not
    left them with one letter to go is no walk that counts, since its step
    either stays on the members or ends off them.  The moves of a
    (coordinates, letter) are built on first use.
    """

    def __init__(self, window: BasisWindow):
        self.window = window
        # (coords, letter) -> ((z - h, target coords, target is a member), ...)
        self._moves: dict = {}
        self._walks: dict = {}  # (support word, coords, left) -> least sum

    def _moves_at(self, coords: tuple, letter: tuple) -> tuple:
        got = self._moves.get((coords, letter))
        if got is None:
            fam, r = letter
            step = 1 if fam == "e" else -1
            layout, at = self.window.layout, self.window.at
            row = _row_entries(layout[r], coords)
            held = _row_support(row, _row_entries(layout[r + step], coords))
            moves = []
            for j, (_, k, _, _) in enumerate(layout[r]):
                to = _bumped(coords, k, step)
                moves.append(((j not in held) - (row.count(row[j]) - 1), to, to in at))
            got = self._moves[coords, letter] = tuple(moves)
        return got

    def _walk(self, word: tuple, coords: tuple, left: bool) -> float:
        """The least sum of z - h over the walks of `word` from `coords` that
        end on a member and have left the members (`left` says whether the
        walk so far has): inf when there is none."""
        if not word:
            return 0 if left and coords in self.window.at else inf
        if not left and len(word) == 1:
            return inf
        key = (word, coords, left)
        got = self._walks.get(key)
        if got is None:
            rest, got = word[1:], inf
            for d, to, member in self._moves_at(coords, word[0]):
                got = min(got, d + self._walk(rest, to, left or not member))
            self._walks[key] = got
        return got

    def order(self, word: tuple, pos: int) -> int:
        return min(1, self._walk(word, self.window.coords[pos], False))

    def hit(self, words: frozenset, pos: int) -> bool:
        return any(self.order(w, pos) <= 0 for w in words)

    def scan(self, words: frozenset, eligible: list) -> list[int]:
        """The positions of `eligible` in the hit set of a case with support
        words `words`, in their order: none when no word has two letters."""
        words = frozenset(w for w in words if len(w) > 1)
        return [p for p in eligible if self.hit(words, p)] if words else []


def _bumped(coords: tuple, k: int, step: int) -> tuple:
    """`coords` with slot k moved by `step`."""
    return coords[:k] + (coords[k] + step,) + coords[k + 1:]
