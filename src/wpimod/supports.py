"""Ladder supports read off a basis window's entries, with no arithmetic.

The support rule (`_row_support`) says which ladder moves of a window
member have a nonzero coefficient; `cyclicity_probe` walks those moves, and
the defining-relation oracle's wall sets (`_WallSets`) find where a relation
case can fail among the positions eligible for it (`_eligible`).
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

from .tableau import row_indices

if TYPE_CHECKING:
    from .gt_module import BasisWindow


def _row_layout(window: BasisWindow) -> list:
    """Per row 0..n of the window's pyramid, each triple's (triple,
    coordinate slot or None on the frozen top row, class, seed offset)."""
    pyramid, seed, slot = window.seed.pyramid, window.seed, window.checker.slot
    return [
        [(t, slot.get(t), *seed.entry(t)) for t in row_indices(pyramid, r)]
        for r in range(pyramid.n + 1)
    ]


def _member_entries(layout: list, coords: tuple) -> list:
    """Per row, the entries (class, seed offset + coordinate) of the shift with
    coordinates `coords`, in `_row_layout`'s order."""
    return [
        [(cls, off if k is None else off + coords[k]) for _, k, cls, off in row]
        for row in layout
    ]


def _row_support(entries: list, r: int, other: int) -> list[int]:
    """The pivots of row r (indices into its entries) whose ladder move toward
    row `other` (r + 1 for e, r - 1 for f) has a nonzero coefficient, read
    off `entries`.

    The support rule.  In `ActionContext.ladder_terms`, the move of pivot t
    in row r (up for e, down for f) has coefficient +-N / D times a power of
    -(v_t + pole), where v_t is t's value, N is the product of
    (v_s - v_t) over the adjacent row (r + 1 for e, r - 1 for f; row 0 is
    empty) and D is the product of (v_s - v_t) over row r without t.  At the
    lowest superscript the power is 1.  Under a `GenericAssignment`, two
    values of distinct classes differ by a non-integer (the classes' residues
    mod 997 are distinct), and two of one class differ by their offsets'
    difference.  So a value difference is zero exactly when the two entries
    (class, seed offset + shift) are equal, at every instantiation: the move
    is in the support exactly when t's entry equals no entry of the adjacent
    row, and D = 0, which raises `CriticalityError`, exactly when two entries
    of row r are equal.
    """
    adjacent = set(entries[other])
    return [j for j, entry in enumerate(entries[r]) if entry not in adjacent]


def _row_peaks(window: BasisWindow) -> list[tuple[int, ...]]:
    """Per member, in position order, the largest absolute coordinate on each
    row 1..n-1, read off the coordinates."""
    free = window.free
    rows = [
        [k for k, t in enumerate(free) if t.i == i] for i in range(1, window.seed.pyramid.n)
    ]
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
    row equal to its pivot's (`_row_support`); both are read off the entries.
    A walk that ends off the members adds only to a component the relation
    module does not have, so it never counts: a one-letter word has order 1
    everywhere, and a last step that leaves the members adds nothing.  `hit`
    tells whether some support word of a case has order at most 0 at pos,
    and `scan` lists the hit positions among a case's eligible ones.

    A target is a member exactly when its coordinates are in `window.at`.
    From a position eligible for a case no walk of its words leaves the box
    (the margins), and a box shift that keeps C is a member, so no walk from
    there meets `BasisWindow.step`'s -1.  The moves of a (position, letter)
    are built on first use.
    """

    def __init__(self, window: BasisWindow):
        self.window = window
        self.at = window.at
        self.layout = _row_layout(window)
        self._entries: dict[int, list] = {}  # pos -> `_member_entries`
        # (pos, letter) -> ((z, target position or None), ...), one per pivot
        self._moves: dict = {}
        self._orders: dict = {}  # (support word, pos) -> order

    def _entries_at(self, pos: int) -> list:
        got = self._entries.get(pos)
        if got is None:
            got = self._entries[pos] = _member_entries(self.layout, self.window.coords[pos])
        return got

    def _at(self, pos: int, letter: tuple) -> tuple:
        got = self._moves.get((pos, letter))
        if got is None:
            fam, r = letter
            held = _row_support(self._entries_at(pos), r, r + 1 if fam == "e" else r - 1)
            coords, step = self.window.coords[pos], 1 if fam == "e" else -1
            got = self._moves[pos, letter] = tuple(
                (0 if j in held else 1, self.at.get(_bumped(coords, k, step)))
                for j, (_, k, _, _) in enumerate(self.layout[r])
            )
        return got

    def order(self, word: tuple, pos: int) -> int:
        key = (word, pos)
        got = self._orders.get(key)
        if got is not None:
            return got
        letter, rest = word[0], word[1:]
        best = 1
        if rest:  # one letter from a member ends where it leaves the members
            coords, step = self.window.coords[pos], 1 if letter[0] == "e" else -1
            for j, (z, to) in enumerate(self._at(pos, letter)):
                if to is None:
                    k = self.layout[letter[1]][j][1]
                    best = min(best, z + self._least_order(
                        rest, _bumped(coords, k, step), _moved(self._entries_at(pos), letter, j)
                    ))
                elif len(rest) > 1:
                    # a step from a member has h = 0, and one letter from a
                    # member either stays on the members or ends off them
                    best = min(best, z + self.order(rest, to))
        self._orders[key] = best
        return best

    def _least_order(self, word: tuple, coords: tuple, entries: list) -> float:
        """The least sum of z - h over the walks of support word `word` that
        end on a member, from the shift with coordinates `coords` and row
        entries `entries`, member or not: 0 for no letter on a member, and
        inf (at least 1) when no walk ends on one."""
        if not word:
            return 0 if coords in self.at else inf
        letter, rest = word[0], word[1:]
        fam, r = letter
        row, step = entries[r], 1 if fam == "e" else -1
        held = _row_support(entries, r, r + 1 if fam == "e" else r - 1)
        return min(
            (0 if j in held else 1) - (row.count(row[j]) - 1)
            + self._least_order(rest, _bumped(coords, k, step), _moved(entries, letter, j))
            for j, (_, k, _, _) in enumerate(self.layout[r])
        )

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


def _moved(entries: list, letter: tuple, j: int) -> list:
    """`entries` after ladder letter (family, row) moves pivot j of its row."""
    fam, r = letter
    row = list(entries[r])
    cls, off = row[j]
    row[j] = (cls, off + (1 if fam == "e" else -1))
    return entries[:r] + [row] + entries[r + 1:]
