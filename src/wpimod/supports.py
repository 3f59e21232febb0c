"""Ladder supports read off a basis window's coordinates, with no arithmetic.

One support table per window (`_SupportTable`) holds, for each ladder
letter (family, row), each pivot's slot and the same-class entries of the
adjacent row and of its own row with their seed-offset gaps, and each row's
same-class pairs.  The support rule (`_SupportTable.rule`) and the
criticality test (`_SupportTable.critical`) are then integer comparisons on
coordinates.  `cyclicity_probe` walks the moves in the support, named by
the z-only reader `_SupportTable.open_slots`; the defining-relation
oracle's criticality scan reads the pairs, and its wall sets (`_WallSets`),
one flat walk over cached moves, find where a relation case can fail among
the positions eligible for it (`_eligible`).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gt_module import BasisWindow


class _SupportTable:
    """The ladder supports of one window, read off coordinates as integer
    comparisons: the support rule, built once per window from its `layout`.

    For each ladder letter (family, row r), `letters` holds per pivot t of
    row r, in row order, its slot, the same-class entries s of the adjacent
    row (r + 1 for e, r - 1 for f) and the same-class entries q of row r
    without t, each as (slot, gap), the gap being its seed offset less t's.
    An entry is (class, seed offset + coordinate), so t's entry equals s's
    exactly when c_t - c_s is that gap, at coordinates c; an entry of the
    frozen top row has slot -1, and the readers append its coordinate, 0,
    to c (`open_slots` is handed c with it appended).  So t's z is 1 when
    c_t - c_s equals the gap for some adjacent s, and its h counts the q
    with c_t - c_q equal to theirs (`rule`); `open_slots` reads z alone,
    off the same table.  `pairs` holds per row 0..n its same-class pairs
    (x, y), x before y in row order, with their slots and gap, for the
    criticality scan (`critical`).

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

    def __init__(self, layout: list):
        # each row's (triple, slot, class, seed offset), slot -1 on the top row
        rows = [[(t, -1 if k is None else k, cls, off) for t, k, cls, off in row]
                for row in layout]

        def same(row: list, cls, off: int, skip=None) -> tuple:
            # the entries of `row` of class cls, but the skip-th: (slot, gap)
            return tuple((k, o - off) for j, (_, k, c, o) in enumerate(row)
                         if c == cls and j != skip)

        self.letters = {
            (fam, r): tuple((k, same(rows[r + step], cls, off), same(rows[r], cls, off, j))
                            for j, (_, k, cls, off) in enumerate(rows[r]))
            for r in range(1, len(rows) - 1) for fam, step in (("e", 1), ("f", -1))
        }
        self.pairs = [[(x, y, kx, ky, oy - ox) for (x, kx, cx, ox), (y, ky, cy, oy)
                       in itertools.combinations(row, 2) if cx == cy] for row in rows]

    def rule(self, coords: tuple, letter: tuple) -> list[tuple[int, int, int]]:
        """Per pivot of the letter's row, in row order: (slot, z, h) at the
        shift with coordinates `coords`, member or not."""
        coords += (0,)
        out = []
        for k, adjacent, own in self.letters[letter]:
            c = coords[k]
            z = h = 0
            for s, gap in adjacent:
                if c - coords[s] == gap:
                    z = 1
                    break
            for s, gap in own:
                if c - coords[s] == gap:
                    h += 1
            out.append((k, z, h))
        return out

    def open_slots(self, coords: tuple, letter: tuple) -> list[int]:
        """The slots of the letter's pivots whose move has a nonzero
        coefficient, those with z = 0 in `rule`, in row order.  `coords`
        ends with the top row's 0: the caller appends it once per shift."""
        out = []
        for k, adjacent, _ in self.letters[letter]:
            c = coords[k]
            for s, gap in adjacent:
                if c - coords[s] == gap:
                    break
            else:
                out.append(k)
        return out

    def critical(self, coords: tuple, rows) -> tuple | None:
        """The first equal pair (row, x, y) of `rows`, in their order, of the
        shift with coordinates `coords`: None when there is none."""
        coords += (0,)
        for r in rows:
            for x, y, kx, ky, gap in self.pairs[r]:
                if coords[kx] - coords[ky] == gap:
                    return r, x, y
        return None


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
    row equal to its pivot's (`_SupportTable.rule`); both are read off the
    coordinates the step starts from, member or not.  A walk that ends off
    the members adds only to a component the relation module does not have,
    so it never counts.  `hit` tells whether some support word of a case has
    order at most 0 at pos, and `scan` lists the hit positions among a
    case's eligible ones.

    The relation tables' support words have at most 3 letters, and `order`
    walks them as one flat loop nest; a longer word raises ValueError.  A
    word of fewer than 2 letters has order 1: its one step either stays on
    the members or ends off them.  In a 2-letter word the first step must
    leave the members and the second end on them; in a 3-letter word one of
    the first two steps must leave, so from a member reached by two steps
    that stayed on the members, no third step is walked.  The moves of a
    (coordinates, letter), each (z - h, target coordinates, target is a
    member), are built on first use from the window's one `table`.
    """

    def __init__(self, window: BasisWindow):
        self.window = window
        self.table = _SupportTable(window.layout)
        self._moves: dict = {}  # (coords, letter) -> ((z - h, target, is member), ...)

    def _moves_at(self, coords: tuple, letter: tuple) -> tuple:
        got = self._moves.get((coords, letter))
        if got is None:
            step, at, moves = (1 if letter[0] == "e" else -1), self.window.at, []
            for k, z, h in self.table.rule(coords, letter):
                to = _bumped(coords, k, step)
                moves.append((z - h, to, to in at))
            got = self._moves[coords, letter] = tuple(moves)
        return got

    def order(self, word: tuple, pos: int) -> int:
        if len(word) > 3:
            raise ValueError(f"support word {word!r} has more than 3 letters")
        if len(word) < 2:
            return 1
        moves, best = self._moves_at, 1
        # the walk's last two steps start from member pos itself, or from
        # each target of a first letter: (z - h so far, coordinates, stayed
        # on the members)
        *first, b, c = word
        start = self.window.coords[pos]
        for d0, at, stayed in moves(start, first[0]) if first else [(0, start, True)]:
            for d1, to, member in moves(at, b):
                if stayed and member:
                    continue
                d = d0 + d1
                for d2, _, member in moves(to, c):
                    if member and d + d2 < best:
                        best = d + d2
        return best

    def hit(self, words: tuple, pos: int) -> bool:
        return any(self.order(w, pos) <= 0 for w in words)

    def scan(self, words: tuple, eligible: list) -> list[int]:
        """The positions of `eligible` in the hit set of a case with support
        words `words`, in their order: none when no word has two letters.
        The words are walked in their given order, so the moves built are
        the same in every process."""
        words = tuple(w for w in words if len(w) > 1)
        return [p for p in eligible if self.hit(words, p)] if words else []


def _bumped(coords: tuple, k: int, step: int) -> tuple:
    """`coords` with slot k moved by `step`."""
    return coords[:k] + (coords[k] + step,) + coords[k + 1:]
