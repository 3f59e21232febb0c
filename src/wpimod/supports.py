"""Ladder supports read off a basis window's entries, with no arithmetic.

The support rule (`_row_support`) says which ladder moves of a window
member have a nonzero coefficient; `cyclicity_probe` walks those moves, and
the defining-relation oracle's wall sets (`_WallSets`) find where a relation
case can fail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .tableau import TableauDelta, row_indices

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


class _WallSets:
    """Where the relation cases can fail in one window: the hit sets of
    `verify_defining_relations`.

    A support word is a word's ladder letters (family, row) in the order they
    act.  `order(word, pos)` is the least sum of z - h over the walks of
    `word` from member pos that visit a target that is not a member, at most
    1 (also when no walk leaves the members).  A step's z is 1 when its
    coefficient is zero and h counts the other entries of its own row equal
    to its pivot's (`_row_support`); both are read off the entries.  `hit`
    tells whether some support word of a case has order at most 0 at pos.
    """

    def __init__(self, window: BasisWindow):
        self.window = window
        self.layout = _row_layout(window)
        self.units = {
            (fam, r): [TableauDelta.unit(t, step) for t, *_ in self.layout[r]]
            for r in range(1, window.seed.pyramid.n)
            for fam, step in (("e", 1), ("f", -1))
        }
        # pos -> (entries, {letter: ((z, target position), ...)})
        self._moves: dict[int, tuple] = {}
        self._orders: dict = {}  # (support word, pos) -> order

    def _at(self, pos: int) -> tuple:
        got = self._moves.get(pos)
        if got is None:
            entries = _member_entries(self.layout, self.window.coords[pos])
            moves = {}
            for (fam, r), units in self.units.items():
                held = _row_support(entries, r, r + 1 if fam == "e" else r - 1)
                moves[fam, r] = tuple(
                    (0 if j in held else 1, self.window.step(pos, u))
                    for j, u in enumerate(units)
                )
            got = self._moves[pos] = (entries, moves)
        return got

    def order(self, word: tuple, pos: int) -> int:
        key = (word, pos)
        got = self._orders.get(key)
        if got is not None:
            return got
        entries, moves = self._at(pos)
        letter, rest = word[0], word[1:]
        best = 1
        for j, (z, to) in enumerate(moves[letter]):
            if to is not None and to >= 0:
                # a step from a member has h = 0, so a zero step followed by
                # at most one letter has order at least 1
                if rest and (z == 0 or len(rest) > 1):
                    best = min(best, z + self.order(rest, to))
            else:
                best = min(best, z + _least_order(rest, _moved(entries, letter, j)))
        self._orders[key] = best
        return best

    def hit(self, words: frozenset, pos: int) -> bool:
        return any(self.order(w, pos) <= 0 for w in words)


def _moved(entries: list, letter: tuple, j: int) -> list:
    """`entries` after ladder letter (family, row) moves pivot j of its row."""
    fam, r = letter
    row = list(entries[r])
    cls, off = row[j]
    row[j] = (cls, off + (1 if fam == "e" else -1))
    return entries[:r] + [row] + entries[r + 1:]


def _least_order(word: tuple, entries: list) -> int:
    """The least sum of z - h over the walks of support word `word` from the
    tableau with row entries `entries`, member or not (0 for no letter)."""
    if not word:
        return 0
    letter, rest = word[0], word[1:]
    fam, r = letter
    row = entries[r]
    held = _row_support(entries, r, r + 1 if fam == "e" else r - 1)
    return min(
        (0 if j in held else 1) - (row.count(row[j]) - 1)
        + _least_order(rest, _moved(entries, letter, j))
        for j in range(len(row))
    )
