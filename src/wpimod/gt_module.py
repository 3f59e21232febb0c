"""Relation modules at desk scale: basis windows, exact generator actions,
the defining-relation verifier, and the irreducibility test.

The infinite module is explored through a finite window of integral shifts
around a seed tableau.  Coefficients on shift targets that violate the relation
set are zero (the gating rule); a target that satisfies the relation set but
falls outside the window is a hard error, never a silent zero.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, inf, lcm

from .exact_arith import CriticalityError, GenericAssignment, as_integer, generic_instantiate
from .pyramid import e_generator_min_degree
from .relations import (
    RelationSet,
    _relax,
    maximal_set,
    reduce_set,
    require_same_pyramid,
    satisfies,
)
from .supports import _bumped, _eligible, _row_peaks, _SupportTable, _WallSets
from .tableau import Tableau, TableauDelta, mutable_indices, row_indices


class WindowOverflowError(RuntimeError):
    """A shift target satisfies the relation set but lies outside the window."""


# Most members a basis window may hold, read at each call: `BasisWindow.points`
# raises ValueError as soon as it passes this count, so an oversized radius or
# depth costs bounded time and memory; the CLI reports it as an input error.
MAX_WINDOW_MEMBERS = 100_000


class BasisWindow:
    """Finite slice of the shift lattice: all window shifts satisfying C.

    Inside the engine a member is its coordinates, its offsets over `free`
    as a tuple; `slot` maps each free triple to its place there.  The window
    is its list `coords`, in the order of the members' keys as `points`
    finds them, and `at` maps each to its position.  A shift is built only
    where one is named: `position(d)` finds shift d's position and raises
    ValueError naming d on a shift that is not a member, `member(pos)`
    builds the shift at a position, and `members` builds them all on each
    call.  Raises ValueError on a non-integral radius and past
    MAX_WINDOW_MEMBERS members.

    The class structure of the seed is shift-invariant, so the component
    clause is checked once, and each edge is kept once, as an inequality
    over the slots: an arc d_g >= d_l + c (from l in `_up`, reversed in
    `_down`), or, with one end on the frozen top row (d = 0), a bound
    `floors[g]` or `ceilings[l]`.  An edge with both ends frozen is the
    seed's own, which holds.  `satisfied` reads them on coordinates; as a
    difference system they let `points` list the accepted shifts of a box
    without scanning it.  `layout` holds, per row 0..n of the pyramid, each
    triple's (triple, slot or None on the frozen top row, class, seed
    offset), from which the generator actions and the supports read a
    member's entries.
    """

    def __init__(self, C: RelationSet, seed: Tableau, radius: int):
        self.radius = as_integer(radius, "radius")
        self._build(C, seed)
        self.coords = self.points(-self.radius, self.radius)
        self.at = dict(zip(self.coords, range(len(self.coords))))

    def _build(self, C: RelationSet, seed: Tableau) -> None:
        """The seed, slots, edge system and layout every window starts from."""
        if not satisfies(C, seed):
            raise ValueError("seed tableau does not satisfy the relation set")
        self.seed = seed
        self.free = mutable_indices(seed.pyramid)
        self.slot = slot = {t: k for k, t in enumerate(self.free)}
        # the slots in `TriIndex` order, which a key follows; on a pyramid
        # with more than one layer it is not the order of `free`
        self.key_order = sorted(slot.items())
        self.layout = [[(t, slot.get(t), *seed.entry(t)) for t in row_indices(seed.pyramid, r)]
                       for r in range(seed.pyramid.n + 1)]
        self._up: list[list] = [[] for _ in self.free]
        self._down: list[list] = [[] for _ in self.free]
        self.floors: dict[int, int] = {}
        self.ceilings: dict[int, int] = {}
        for e in sorted(C.edges):
            # d_g - d_l >= c: the edge's least gap (1 if strict) less the seed's
            c = (1 if e.strict else 0) - (seed.entry(e.greater)[1] - seed.entry(e.lesser)[1])
            g, l = slot.get(e.greater), slot.get(e.lesser)
            if g is not None and l is not None:
                self._up[l].append((g, c))
                self._down[g].append((l, c))
            elif g is not None:
                self.floors[g] = max(self.floors.get(g, c), c)
            elif l is not None:
                self.ceilings[l] = min(self.ceilings.get(l, -c), -c)

    def satisfied(self, coords: tuple[int, ...]) -> bool:
        """Whether the shift with the given coordinates keeps every edge."""
        return (
            all(coords[g] >= coords[l] + c for l, arcs in enumerate(self._up) for g, c in arcs)
            and all(coords[k] >= f for k, f in self.floors.items())
            and all(coords[k] <= c for k, c in self.ceilings.items())
        )

    def shift(self, coords: tuple[int, ...]) -> TableauDelta:
        """The shift with the given coordinates."""
        return TableauDelta._normal({t: v for t, v in zip(self.free, coords) if v})

    def coords_of(self, d: TableauDelta) -> tuple[int, ...] | None:
        """The coordinates of shift d, or None when d has support off the free triples."""
        get = d.offsets.get
        coords = tuple([get(t, 0) for t in self.free])
        return coords if len(coords) - coords.count(0) == len(d.offsets) else None

    def key(self, coords: tuple[int, ...]) -> tuple:
        """`TableauDelta.key` of the shift with the given coordinates, built
        from them."""
        return tuple([(t, coords[k]) for t, k in self.key_order if coords[k]])

    def points(self, low: int, high: int, depth: int | None = None) -> list[tuple[int, ...]]:
        """The coordinates of every accepted shift with low <= d_t <= high on
        the free triples.

        With `depth`, only shifts with -sum(d) <= depth.  ValueError as soon
        as more than MAX_WINDOW_MEMBERS are found: the last slot's run of
        values is counted before it is listed, and every other interval is
        walked lazily, so an oversized box fails at once.  The coordinates
        come in the order of their keys (`key`), so no caller sorts them.

        Each free triple's exact interval comes from two least solutions,
        lists over the slots: of y = d - low over the lower bounds and the
        arcs, and of z = high - d over the upper bounds and the reversed
        arcs.  The triples are assigned depth-first in `key_order`; after
        each assignment `relations._relax` re-tightens y and z from that slot
        only, so the work follows what the assignment changes.  Bounds
        consistency is exact for difference constraints in any slot order,
        so every value of a tightened interval extends to a member (Freuder,
        JACM 1982) and the cost follows the members, not the box.  The arcs
        have no positive cycle (d = 0 solves them), so neither system is ever
        infeasible.  The vector of upper bounds is itself a solution, the
        shallowest one extending the partial assignment, so pruning on its
        depth is exact as well.

        A key lists the nonzero coordinates in `TriIndex` order, and a key
        that is a prefix of another sorts first.  So below an assigned prefix
        the members come in three runs, each in key order:
        (A) the prefix followed by zeros, which is the prefix's own key;
        (B) the nonzero values of the next slot, ascending, each followed by
            its own runs; their keys go on with that slot's (triple, value);
        (C) the value 0 followed by the completions that still hold a
            nonzero value, whose keys go on with a later triple.
        (A) is a member exactly when 0 lies in the tightened interval of
        every slot left and, with `depth`, the prefix's own depth fits: d = 0
        keeps every arc between slots left, and the arcs to assigned slots,
        the floors and the ceilings are already inside the intervals.  (C)
        is taken only when a slot left can still be nonzero, which bounds
        consistency makes exact without `depth`.
        """
        n, up, down = len(self.free), self._up, self._down
        y, z = [0] * n, [0] * n
        for k, f in self.floors.items():
            y[k] = max(0, f - low)
        for k, c in self.ceilings.items():
            z[k] = max(0, high - c)
        _relax(y, up, range(n))
        _relax(z, down, range(n))
        if any(a + b > high - low for a, b in zip(y, z)):
            return []
        # Coordinates only: a caller builds shifts after the search, since
        # long-lived shifts allocated between its short-lived lists would
        # scatter over the allocator's pools and raise the process's peak
        # memory.
        found: list[tuple[int, ...]] = []
        order = [k for _, k in self.key_order]
        rests = [order[i:] for i in range(n + 1)]
        values = [0] * n  # the assigned coordinates, 0 on the slots still free

        def spare(z) -> float:
            """Depth left over by the shallowest completion, the upper bounds."""
            return inf if depth is None else depth - (sum(z) - n * high)

        def full() -> ValueError:
            return ValueError(f"basis window has more than {MAX_WINDOW_MEMBERS} members")

        def extend(i: int, y: list, z: list, bare: bool, used: int) -> None:
            # slot k = order[i] is next; `bare`: the rest may be all zero;
            # `used`: the depth of the assigned prefix
            k = order[i]
            lo, hi = low + y[k], high - z[k]
            # no value below hi - spare(z) fits: each step down from hi costs
            # at least one unit of depth
            first = lo if depth is None else max(lo, hi - spare(z))
            if i == n - 1:
                # every value of the last interval completes a member: 0
                # first when the rest may be zero, then the others ascending
                zero = first <= 0 <= hi
                if len(found) + hi - first + 1 - (zero and not bare) > MAX_WINDOW_MEMBERS:
                    raise full()
                before, after = tuple(values[:k]), tuple(values[k + 1:])
                if zero and bare:
                    found.append(before + (0,) + after)
                found.extend([before + (a,) + after for a in range(first, hi + 1) if a])
                return
            # (A) the prefix followed by zeros, when 0 fits every slot left
            if bare and (depth is None or used <= depth):
                for j in rests[i]:
                    if y[j] > -low or z[j] > high:
                        break
                else:
                    found.append(tuple(values))
                    if len(found) > MAX_WINDOW_MEMBERS:
                        raise full()
            # (B) the nonzero values, ascending.  A higher value only loosens
            # the depth, so a value too deep is skipped.  y only tightens as
            # the value rises, so it is re-tightened in place from the last
            # value; z is tightened afresh from the node's own for each.  At
            # an end of the interval, that side's bound is unchanged.
            y2 = y
            for a in range(first, hi + 1):
                if not a:
                    continue
                z2 = z
                if a < hi:
                    z2 = z[:]
                    z2[k] = high - a
                    _relax(z2, down, (k,))
                    if depth is not None and spare(z2) < 0:
                        continue
                if a > lo:
                    if y2 is y:
                        y2 = y[:]
                    y2[k] = a - low
                    _relax(y2, up, (k,))
                values[k] = a
                extend(i + 1, y2, z2, True, used - a)
            values[k] = 0
            # (C) the value 0, when a later slot can still take a nonzero value
            if first <= 0 <= hi:
                y3, z3 = y, z
                if lo < 0:
                    y3 = y[:]
                    y3[k] = -low
                    _relax(y3, up, (k,))
                if hi > 0:
                    z3 = z[:]
                    z3[k] = high
                    _relax(z3, down, (k,))
                if depth is None or spare(z3) >= 0:
                    for j in rests[i + 1]:
                        if y3[j] < -low or z3[j] < high:
                            extend(i + 1, y3, z3, False, used)
                            break

        if spare(z) < 0:
            return []
        if not n:
            return [()]
        extend(0, y, z, True, 0)
        return found

    @property
    def members(self) -> list[TableauDelta]:
        return list(map(self.shift, self.coords))

    def member(self, pos: int) -> TableauDelta:
        return self.shift(self.coords[pos])

    def _find(self, coords: tuple[int, ...]) -> int | None:
        """The position of the member with coordinates `coords`, or None."""
        return self.at.get(coords)

    def position(self, d: TableauDelta) -> int:
        coords = self.coords_of(d)
        pos = None if coords is None else self._find(coords)
        if pos is None:
            raise ValueError(f"shift {d!r} is not a member of the window")
        return pos

    def __contains__(self, d: TableauDelta) -> bool:
        return self.coords_of(d) in self.at

    def step(self, pos: int, slot: int, step: int) -> int | None:
        """Where the ladder move of `step` (+1 or -1) on coordinate `slot`
        takes member pos: the target's position, None when the target breaks
        the relations, or -1 when it keeps them but leaves the box.

        The target is found by its coordinates.  Only a target that is not a
        member and leaves the box, which only its moved slot can, is checked
        against the relations: the members are every satisfying box shift.
        """
        coords = _bumped(self.coords[pos], slot, step)
        to = self._find(coords)
        if to is None and self.radius is not None and abs(coords[slot]) > self.radius:
            return -1 if self.satisfied(coords) else None
        return to


class FreeWindow(BasisWindow):
    """A basis window with no box bound: gating only, never overflow.

    Its coordinate lookup appends an unseen target that satisfies C to
    `coords`, with no shift built, so `position` and `step` grow the window
    and positions never move; `position` raises ValueError on any other
    shift, and `in` never appends.  There is no box to enumerate, so the
    members start empty; `_admit` appends a point of `points`, which
    satisfies C by construction, with no check.  Since positions never
    move, `member(pos)` builds each position's shift once and keeps it, one
    object for every reader of the window.
    """

    def __init__(self, C: RelationSet, seed: Tableau):
        self.radius = None
        self._build(C, seed)
        self.coords: list[tuple[int, ...]] = []
        self.at: dict[tuple[int, ...], int] = {}
        self._shifts: list[TableauDelta | None] = []  # per position, once built

    def member(self, pos: int) -> TableauDelta:
        d = self._shifts[pos]
        if d is None:
            d = self._shifts[pos] = self.shift(self.coords[pos])
        return d

    def _find(self, coords: tuple[int, ...]) -> int | None:
        pos = self.at.get(coords)
        if pos is None and self.satisfied(coords):
            pos = self._admit(coords)
        return pos

    def _admit(self, coords: tuple[int, ...]) -> int:
        """The position of coordinates known to satisfy C, appended if unseen."""
        pos = self.at.get(coords)
        if pos is None:
            pos = self.at[coords] = len(self.coords)
            self.coords.append(coords)
            self._shifts.append(None)
        return pos


def enumerate_basis(C: RelationSet, l: Tableau, radius: int) -> BasisWindow:
    return BasisWindow(C, l, radius)


CLIP = "clip"
STRICT = "strict"


class ActionContext:
    """Instantiated generator actions over a basis window.

    Columns are keyed by the window's member positions, and the formulas
    read a member's rows off its coordinates.  STRICT columns are stored
    once per generator and member, and the oracle's word walks and the
    shift-keyed `column` share them; CLIP columns are never stored.  The
    evaluation factors, which keep columns of their own, read the ladder
    terms themselves (`ladder_ints`).

    Coefficients are exact.  The code runs on integers (`_row_ints`): the
    entries times `_scale`, the least common denominator of the seed's
    values.  A ladder coefficient leaves as an integer (num, den) pair in
    lowest terms (`ladder_ints`), which the columns here make a `Fraction`
    once (`ladder_terms`); a diagonal one becomes a `Fraction` at the end
    (`_finish`).  The oracle builds one context per instantiation; the
    evaluation factors of `yangian_tensor` build one per factor core, over
    a `FreeWindow`.
    """

    def __init__(self, window: BasisWindow, assignment: GenericAssignment):
        self.window = window
        self.pyramid = window.seed.pyramid
        self.n = self.pyramid.n
        # an entry's value is its class's value plus an integer offset, so
        # it has the class value's denominator
        classes = assignment.class_values
        self._scale = scale = lcm(*(classes[cls].denominator
                                    for row in window.layout for _, _, cls, _ in row))
        # per row 0..n, in row order: each entry's (coordinate slot or None
        # on the top row, seed value times _scale)
        self._rows = {r: [(k, classes[cls].numerator * (scale // classes[cls].denominator)
                           + off * scale)
                          for _, k, cls, off in row]
                      for r, row in enumerate(window.layout)}
        # STRICT columns per generator: {member position: ((member position,
        # coefficient), ...)}, each built once by `_build_column`.
        self._columns: defaultdict = defaultdict(dict)

    def _row_ints(self, r: int, coords: tuple[int, ...]) -> list[int]:
        """Row r of the member with coordinates `coords` as integers, in row
        order: each value times `_scale`."""
        scale = self._scale
        return [v if k is None else v + scale * coords[k] for k, v in self._rows.get(r, ())]

    def _finish(self, num: int, den: int, power: int) -> Fraction:
        """The coefficient (num/den) / `_scale`^power of integers from `_row_ints`."""
        if power >= 0:
            return Fraction(num, den * self._scale ** power)
        return Fraction(num * self._scale ** -power, den)

    # -- diagonal series ---------------------------------------------------

    def _diag_coeff(self, fam: str, r: int, sup: int, coords: tuple[int, ...]):
        """Coefficient of u^-sup in the r-th diagonal series (d) or its inverse
        (dprime), at the member with coordinates `coords`.

        The series is prod(u + a) / (u^p prod(u + b)), a over row r and b over
        row r - 1 (each entry plus r - 1), p = p_r.  Both sides have the same
        degree, so in x = 1/u it is prod(1 + a x) / prod(1 + b x), and the
        inverse swaps a and b.  The coefficients c_0, ..., c_sup come from the
        recurrences c_t += a c_{t-1} (times 1 + a x) and c_t -= b c_{t-1}
        (over 1 + b x), computed on each call: the STRICT column store and
        the evaluation factors' column caches keep what is built from them.
        """
        # on `_row_ints`, c_t is kept times _scale^t
        shift = (r - 1) * self._scale
        a = [v + shift for v in self._row_ints(r, coords)]
        b = [v + shift for v in self._row_ints(r - 1, coords)]
        if fam == "dprime":
            a, b = b, a
        c = [1] + [0] * sup
        for x in a:
            for t in range(sup, 0, -1):
                c[t] += x * c[t - 1]
        for x in b:
            for t in range(1, sup + 1):
                c[t] -= x * c[t - 1]
        return self._finish(c[sup], 1, sup)

    # -- ladder coefficient pieces ----------------------------------------

    def _ratios(self, r: int, other_row: int, coords: tuple[int, ...]):
        """(power, [(pv, num, den), ...]): per pivot of row r, in row order, its
        integer pv and the product num over the other row of (entry - pv)
        over the product den over the rest of row r, from one `_row_ints`
        read of each row at the member with coordinates `coords`.  Each
        difference is `_scale` times the exact one, so the ratio is
        `_finish(num, den, power)`."""
        row, others = self._row_ints(r, coords), self._row_ints(other_row, coords)
        out = []
        for p, pv in enumerate(row):
            num = den = 1
            for v in others:
                num *= v - pv
            for q, v in enumerate(row):
                if q != p:
                    if v == pv:
                        d = self.window.shift(coords)
                        raise CriticalityError(f"coincident entries in row {r} at shift {d!r}")
                    den *= v - pv
            out.append((pv, num, den))
        return len(others) - (len(row) - 1), out

    def ladder_ints(self, fam: str, r: int, sup: int, coords: tuple) -> list[tuple[int, int, int]]:
        """Expansion of the raising (e) or lowering (f) generator on the basis
        vector with coordinates `coords`, in integers.

        Returns the (slot, num, den) terms before gating, computed on each
        call, each coefficient num/den nonzero, in lowest terms by one gcd,
        with den > 0; each slot is the coordinate of a pivot in row r, which
        moves one step up (e) or down (f).
        Each pivot contributes its ratio (`_ratios`) times a simple pole:
        -u^-gap / (u + pv + r) against row r + 1 for e, from the least
        superscript p_{r+1} - p_r + 1, and 1 / (u + pv + r - 1) against row
        r - 1 for f, from superscript 1.  The sign and the pole's powers are
        taken on the integers, with `_scale`'s powers as `_finish` takes them.
        """
        if fam == "e":
            other, pole, lo = r + 1, r, e_generator_min_degree(self.pyramid, r)
        else:
            other, pole, lo = r - 1, r - 1, 1
        if sup < lo:
            raise ValueError(
                f"{'raising' if fam == 'e' else 'lowering'} superscript {sup}"
                f" below the minimum {lo} for row {r}"
            )
        power, ratios = self._ratios(r, other, coords)
        k, shift = sup - lo, pole * self._scale
        power += k
        up, down = (self._scale ** -power, 1) if power < 0 else (1, self._scale ** power)
        if fam == "e":
            up = -up
        terms = []
        for (slot, _), (pv, num, den) in zip(self._rows.get(r, ()), ratios):
            num *= (-(pv + shift)) ** k * up
            if num:
                den *= down
                g = gcd(num, den) if den > 0 else -gcd(num, den)
                terms.append((slot, num // g, den // g))
        return terms

    def ladder_terms(self, fam: str, r: int, sup: int, coords: tuple) -> list[tuple[int, Fraction]]:
        """`ladder_ints` as (slot, coefficient) pairs, each coefficient a `Fraction`."""
        return [(slot, Fraction(num, den)) for slot, num, den in self.ladder_ints(fam, r, sup, coords)]

    # -- vector-level application ------------------------------------------

    def column(self, gen: tuple, d: TableauDelta, policy: str = STRICT) -> tuple:
        """The image of the basis vector d under one generator.

        Returns ((target, coefficient), ...) with nonzero coefficients, after
        gating and the window check: the one-generator `_walk` from d's
        position, mapped back to members.  Raises ValueError when d is not a
        member of a `BasisWindow`.
        """
        col = self._walk((gen,), self.window.position(d), policy)
        return tuple((self.window.member(q), c) for q, c in col.items())

    def _build_column(self, gen: tuple, pos: int, policy: str) -> tuple:
        """The column of member pos, ((member position, coefficient), ...),
        each ladder target placed by `window.step`.

        A STRICT window overflow or a CriticalityError raises while the column
        is built, so neither is ever stored.
        """
        fam, row, sup = gen
        coords = self.window.coords[pos]
        if fam in ("d", "dprime"):
            val = Fraction(1) if sup == 0 else self._diag_coeff(fam, row, sup, coords)
            return ((pos, val),) if val != 0 else ()
        step = 1 if fam == "e" else -1
        col = []
        for slot, coeff in self.ladder_terms(fam, row, sup, coords):
            to = self.window.step(pos, slot, step)
            if to == -1 and policy == STRICT:
                target = self.window.shift(_bumped(coords, slot, step))
                raise WindowOverflowError(
                    f"target {target!r} satisfies the relations but leaves the window"
                )
            if to is not None and to >= 0:
                col.append((to, coeff))
        return tuple(col)

    def apply(self, gen: tuple, vec: dict, policy: str = STRICT) -> dict:
        """Apply one generator to a sparse vector {shift: coefficient}.

        gen is (family, row, superscript) with family in {d, dprime, e, f}.
        Targets violating the relation set are dropped (gating); satisfying
        targets outside the window raise (strict) or are dropped (clip).
        """
        return _combine((c, self.column(gen, d, policy)) for d, c in vec.items() if c != 0)

    def _walk(self, word, pos: int, policy: str = STRICT) -> dict:
        """A word (rightmost acts first) on window member pos, keyed by member
        position, zeros dropped.

        Each generator's image is summed by `_combine`, as `apply` sums it,
        so the same columns are built in the same order and raise the same
        errors.  A STRICT walk reads and fills the context's column store, a
        CLIP walk a scratch store of its own.
        """
        table = self._columns if policy == STRICT else defaultdict(dict)
        vec = {pos: Fraction(1)}
        for gen in reversed(word):
            cols, build = table[gen], self._build_column
            vec = _combine((c, cols[p] if p in cols else cols.setdefault(p, build(gen, p, policy)))
                           for p, c in vec.items())
        return vec

    def apply_word(self, word, d: TableauDelta, policy: str = STRICT) -> dict:
        """Apply a product of generators (rightmost acts first) to a window member."""
        image = self._walk(word, self.window.position(d), policy)
        return {self.window.member(p): c for p, c in image.items()}


def _combine(terms) -> dict:
    """The sum of c * col over the (c, col) pairs of `terms`, each col an
    iterable of (key, coefficient) pairs, zero coefficients dropped: every
    scalar sum of the generator actions and the Yangian factors."""
    out: dict = {}
    get = out.get
    for c, col in terms:
        for key, x in col:
            prev = get(key)
            out[key] = c * x if prev is None else prev + c * x
    return {key: x for key, x in out.items() if x}


def _commutator(x: tuple, y: tuple) -> list:
    """The words of the commutator [x, y] = xy - yx."""
    return [(1, [x, y]), (-1, [y, x])]


def _shifted_commutator(x: tuple, y: tuple, r: int, s: int) -> list:
    """The words of [x^(r), y^(s+1)] - [x^(r+1), y^(s)] for letters x, y = (family, row)."""
    low = _commutator((*x, r + 1), (*y, s))
    return _commutator((*x, r), (*y, s + 1)) + [(-c, word) for c, word in low]


def _nested_commutator(x: tuple, y: tuple, z: tuple) -> list:
    """The words of [x, [y, z]]."""
    inner = _commutator(y, z)
    return [(c, [x, *word]) for c, word in inner] + [(-c, [*word, x]) for c, word in inner]


def _mirror(sign: int, *sides) -> tuple:
    """Each side's words with e and f swapped and every product reversed, times sign."""
    swap = {"e": "f", "f": "e"}
    return tuple([(sign * c, [(swap.get(fam, fam), row, sup) for fam, row, sup in reversed(word)])
                  for c, word in words] for words in sides)


def _relation_cases(pyramid, budget: int):
    """Yield (family name, index dict, lhs words, rhs words) for every case.

    Words are lists of (signed coefficient, [generators]); both sides are sums
    of such words applied right-to-left.  The families are the defining
    relations of the shifted Yangian whose quotient is the finite W-algebra
    (Brundan-Kleshchev, Adv. Math. 2006).  Each f family is the `_mirror` of
    the e family listed before it, times -1 for df and ff-far: the e family
    runs over its row's e superscripts, from `e_generator_min_degree` on, and
    its mirror over the f superscripts 1..budget.  One asymmetry is kept:
    serre-e takes r, s from the first two of row i's e superscripts and t,
    which it names, from the first of row j's, while serre-f takes r, s in
    (1, 2) and t = 1 whatever the budget, and names no t.
    """
    n = pyramid.n
    d_sups = f_sups = range(1, budget + 1)

    def e_sups(i):
        lo = e_generator_min_degree(pyramid, i)
        return range(lo, lo + budget)

    def de(i, j, r, s):
        sign = (1 if i == j else 0) - (1 if i == j + 1 else 0)
        rhs = [(sign, [("d", i, t), ("e", j, r + s - t - 1)]) for t in range(r) if sign]
        return _commutator(("d", i, r), ("e", j, s)), rhs

    def ee(i, r, s):
        x, y = ("e", i, r), ("e", i, s)
        return _shifted_commutator(("e", i), ("e", i), r, s), [(1, [x, y]), (1, [y, x])]

    def ee_adj(i, r, s):
        rhs = [(-1, [("e", i, r), ("e", i + 1, s)])]
        return _shifted_commutator(("e", i), ("e", i + 1), r, s), rhs

    def far(i, j, r, s):
        return _commutator(("e", i, r), ("e", j, s)), []

    def serre(i, j, r, s, t):
        x, y, z = ("e", i, r), ("e", i, s), ("e", j, t)
        return _nested_commutator(x, y, z) + _nested_commutator(y, x, z), []

    # 1: torus commutativity
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for r, s in product(d_sups, d_sups):
                lhs = _commutator(("d", i, r), ("d", j, s))
                yield ("dd", {"i": i, "j": j, "r": r, "s": s}, lhs, [])
    # 2: ladder pairing against the torus
    for i in range(1, n):
        for j in range(1, n):
            for r, s in product(e_sups(i), f_sups):
                lhs = _commutator(("e", i, r), ("f", j, s))
                rhs = [(-1, [("dprime", i, t), ("d", i + 1, r + s - t - 1)])
                       for t in range(r + s) if i == j]
                yield ("ef", {"i": i, "j": j, "r": r, "s": s}, lhs, rhs)
    # 3 and 4: torus moves ladders
    for i in range(1, n + 1):
        for j in range(1, n):
            for r in d_sups:
                for s in e_sups(j):
                    yield ("de", {"i": i, "j": j, "r": r, "s": s}, *de(i, j, r, s))
                for s in f_sups:
                    yield ("df", {"i": i, "j": j, "r": r, "s": s}, *_mirror(-1, *de(i, j, r, s)))
    # 5: same-row quadratic
    for i in range(1, n):
        for r, s in product(e_sups(i), e_sups(i)):
            yield ("ee", {"i": i, "r": r, "s": s}, *ee(i, r, s))
        for r, s in product(f_sups, f_sups):
            yield ("ff", {"i": i, "r": r, "s": s}, *_mirror(1, *ee(i, r, s)))
    # 6: adjacent-row quadratic
    for i in range(1, n - 1):
        for r, s in product(e_sups(i), e_sups(i + 1)):
            yield ("ee-adj", {"i": i, "r": r, "s": s}, *ee_adj(i, r, s))
        for r, s in product(f_sups, f_sups):
            yield ("ff-adj", {"i": i, "r": r, "s": s}, *_mirror(1, *ee_adj(i, r, s)))
    # 7: distant commutation
    for i in range(1, n):
        for j in range(i + 2, n):
            for r, s in product(e_sups(i), e_sups(j)):
                yield ("ee-far", {"i": i, "j": j, "r": r, "s": s}, *far(i, j, r, s))
            for r, s in product(f_sups, f_sups):
                yield ("ff-far", {"i": i, "j": j, "r": r, "s": s}, *_mirror(-1, *far(i, j, r, s)))
    # 8: cubic triples for neighbours
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if not 1 <= j <= n - 1:
                continue
            for r, s, t in product(e_sups(i)[:2], e_sups(i)[:2], e_sups(j)[:1]):
                idx = {"i": i, "j": j, "r": r, "s": s, "t": t}
                yield ("serre-e", idx, *serre(i, j, r, s, t))
            for r, s in product((1, 2), (1, 2)):
                idx = {"i": i, "j": j, "r": r, "s": s}
                yield ("serre-f", idx, *_mirror(1, *serre(i, j, r, s, 1)))


def _word_row_margins(words) -> dict[int, int]:
    """Worst-case number of ladder steps per row over all monomials."""
    margins: dict[int, int] = {}
    for _, word in words:
        counts: dict[int, int] = {}
        for fam, row, _ in word:
            if fam in ("e", "f"):
                counts[row] = counts.get(row, 0) + 1
        for row, c in counts.items():
            margins[row] = max(margins.get(row, 0), c)
    return margins


@lru_cache(maxsize=32)
def _relation_table(pyramid, budget: int) -> tuple:
    """Every case of `_relation_cases`, in its order, built once per (pyramid, budget).

    Each case is (family, indices as (name, value) pairs, terms, margins,
    support words): terms is lhs - rhs as one signed sum of words, every sign
    +1 or -1, margins is the case's `_word_row_margins` as sorted (row, steps)
    pairs, and the support words are its words' distinct nonempty
    `_support_word`s, sorted, so the wall sets walk them in one order
    whatever the hash seed.  All of it is immutable, so no caller can change
    the cached table.
    """
    return tuple(
        (
            fam,
            tuple(idx.items()),
            tuple((sign, tuple(word)) for sign, word in lhs)
            + tuple((-sign, tuple(word)) for sign, word in rhs),
            tuple(sorted(_word_row_margins(lhs + rhs).items())),
            tuple(sorted({w for _, word in lhs + rhs if (w := _support_word(word))})),
        )
        for fam, idx, lhs, rhs in _relation_cases(pyramid, budget)
    )


def _support_word(word) -> tuple:
    """The ladder letters (family, row) of a word, in the order they act."""
    return tuple((fam, row) for fam, row, _ in reversed(word) if fam in ("e", "f"))


def verify_defining_relations(
    C: RelationSet,
    l: Tableau,
    radius: int,
    budget: int,
    instantiations: int = 3,
    seed0: int = 1,
    max_violations: int = 1,
) -> dict:
    """Check every defining relation on all sufficiently interior window shifts.

    Returns a report dict with per-family status and the violations found
    (stopping after max_violations; pass 0 for exhaustive collection).  Each
    failing case reports its least failing instantiation at that
    instantiation's least failing position, in `Fraction`.  Raises ValueError
    when `instantiations` or `budget` is below 1, which would check nothing.

    Every residual is decided over the rationals: instantiation k in its own
    exact `ActionContext`, built when a case's scan first reaches k, so
    instantiations past the least failing one are never built.

    A case is evaluated at an eligible position only when the position is
    in the case's hit set (`_WallSets`): elsewhere its residual is zero at
    every instantiation, so skipping it moves no first failing position and
    no report byte.

    Why.  The Gelfand-Tsetlin formulas satisfy the defining relations as
    identities of rational functions in the entries, on the span of all
    integral shifts with no gating (Gelfand-Tsetlin for gl_n;
    Futorny-Molev-Ovsienko, Adv. Math. 2010, for finite W-algebras of type
    A).  Put x = v + eps * y, with v an instantiation's values and y generic.
    For small eps != 0 no two entries differ by an integer, so for every
    target the identity holds there: the sum over the walks of the case's
    words (a walk picks a pivot for each ladder letter) of the products of
    their coefficients is 0.  A ladder coefficient is +-N / D times a
    polynomial (`supports._SupportTable`), and a factor x_s - x_t of N or D
    vanishes at eps = 0, to order exactly 1, when the entries of s and t are
    equal, and not at all otherwise.  So a step has order at least z - h in eps:
    z is 1 when its pivot's entry equals an entry of the adjacent row (a
    zero coefficient), and h counts the other entries of its own row equal
    to it (a pole).  Diagonal letters have polynomial coefficients.  On
    members h = 0 (the criticality scan), so a walk that stays on members
    has a finite product whose value at eps = 0 is the term the relation
    module sums: zero exactly when some z is 1, since the module drops that
    move.  So the module's residual at a member T is minus the limit of the
    sum over the walks that end at T and visit a target that is not a
    member, and that limit is zero when each of them has a sum of z - h of
    at least 1.  A walk that ends off the members adds only to that
    target's component, which the module does not have, so it never counts.

    The hit set holds the positions from which some walk of one of the
    case's words leaves the members and ends on one with a sum of z - h of
    at most 0.  Two kinds of move leave: a wall, a move with a nonzero
    coefficient whose target breaks C; and a singular target, a move with a
    zero coefficient whose target breaks C and equals another entry of its
    own row, followed by a move of that row (0 times a pole).  In a
    three-letter word a zero move may also be followed by a move that makes
    two entries of a row equal and a move of one of them, and `_WallSets`
    counts that walk the same way: it reads z and h off the coordinates of
    each step's start, on the members and off them alike, by the window's
    one support table, whose same-row pairs the criticality scan reads
    too.  z and h depend only on each letter's family and row: a higher
    superscript multiplies the lowest one's coefficient by a polynomial, and
    diagonal letters do not move.  From an eligible position no walk leaves
    the box (the margins), and a box shift that keeps C is a member, so no
    residual evaluated there meets -1 from `window.step`.  A pass whose hit sets are
    all empty builds no context: it is decided from the entries alone.
    """
    if instantiations < 1 or budget < 1:
        raise ValueError(
            f"instantiations ({instantiations}) and budget ({budget}) must be at least 1"
        )
    window = BasisWindow(C, l, radius)
    report: dict = {
        "families": {},
        "violations": [],
        "members": len(window.coords),
    }

    # criticality scan: equal same-row entries anywhere in the window
    walls = _WallSets(window)
    rows = [r for r, pairs in enumerate(walls.table.pairs) if pairs]
    for coords in window.coords if rows else ():
        pair = walls.table.critical(coords, rows)
        if pair is not None:
            _, x, y = pair
            report["violations"].append(
                {
                    "family": "critical",
                    "indices": {},
                    "shift": window.key(coords),
                    "detail": f"equal entries at {tuple(x)}, {tuple(y)}",
                }
            )
            report["families"]["critical"] = "fail"
            return report

    # instantiation k's exact context, built when a scan first reaches it
    classes = l.classes()
    contexts: list[ActionContext] = []

    peaks = _row_peaks(window)
    eligible_by_margins: dict = {}
    scans: dict = {}
    for fam, idx, terms, profile, words in _relation_table(l.pyramid, budget):
        status = report["families"].setdefault(fam, "pass")
        if status == "fail" and max_violations:
            continue
        if any(m > radius for _, m in profile):
            raise WindowOverflowError(
                f"window radius {radius} is too small for relation family {fam}"
            )
        eligible = eligible_by_margins.get(profile)
        if eligible is None:
            eligible = eligible_by_margins[profile] = _eligible(window, peaks, dict(profile))
        scan = scans.get((words, profile))
        if scan is None:
            scan = scans[words, profile] = walls.scan(words, eligible)
        if not scan:
            continue
        # the least failing instantiation, at its least failing position
        failing = None
        for k in range(instantiations):
            if k == len(contexts):
                contexts.append(ActionContext(window, generic_instantiate(classes, seed0 + k)))
            ctx = contexts[k]
            failing = next(
                ((pos, acc) for pos in scan if (acc := _residual(ctx, terms, pos))), None
            )
            if failing is not None:
                break
        if failing is None:
            continue
        pos, acc = failing
        report["families"][fam] = "fail"
        report["violations"].append(
            {
                "family": fam,
                "indices": dict(idx),
                "shift": window.key(window.coords[pos]),
                "detail": sorted(
                    (window.key(window.coords[p]), str(c)) for p, c in acc.items()
                ),
            }
        )
        if max_violations and len(report["violations"]) >= max_violations:
            return report
    return report


def _residual(ctx: ActionContext, terms, pos: int) -> dict:
    """lhs - rhs of one relation case on window member pos, keyed by member
    position, zeros dropped: the signed sum of its words' walks (`_combine`)."""
    return _combine((sign, ctx._walk(word, pos).items()) for sign, word in terms)


def report_passes(report: dict) -> bool:
    return not report["violations"]


def is_irreducible(C: RelationSet, l: Tableau) -> bool:
    """The module over the window seed is irreducible iff C is maximal for the seed."""
    require_same_pyramid(C, l)
    return reduce_set(C) == maximal_set(l)


def cyclicity_probe(window: BasisWindow, start: TableauDelta, budget: int) -> set[TableauDelta]:
    """Shifts reachable from `start` by ladder generators inside the window.

    The walk runs over member positions; a `start` that is not a member raises
    ValueError.  Eigenvalue separation makes every summand with a nonzero
    coefficient reachable, so the closure of supports is the generated
    subspace's basis.  The supports are read off the coordinates by one
    `supports._SupportTable` per call, with no coefficient computed: its
    z-only reader `open_slots` names the moves with a nonzero coefficient,
    and its same-row pairs raise `CriticalityError` exactly where the
    coefficients would.  A move's target is looked up by its coordinates
    (`_find`).  In a window with a box that is one dict lookup: the members
    are exactly the box shifts that satisfy the relations, so a target that
    breaks them or leaves the box is absent and dropped, with no check of
    its own; a `FreeWindow` admits a target that satisfies them.

    The reached set is the same for every budget >= 1, so only each row's
    lowest superscript (`e_generator_min_degree` for e, 1 for f) is walked;
    budget 0 reaches only `start`, with no row checked.  Superscript s has
    the targets of the lowest one, lo, with coefficient +-N / D *
    (-(v_t + pole))^(s - lo): its support is a subset of lo's.  Members are
    walked in breadth-first order, each checked over all ladder rows at once
    and then walked as e_1, f_1, e_2, f_2, ..., so the first member with a
    critical row raises, naming the least such row.
    """
    table = _SupportTable(window.layout)
    ladder_rows = range(1, window.seed.pyramid.n) if budget >= 1 else ()
    letters = [((fam, r), step) for r in ladder_rows for fam, step in (("e", 1), ("f", -1))]
    find, open_slots = window._find, table.open_slots
    frontier = [window.position(start)]
    reached = set(frontier)
    while frontier:
        nxt = []
        for p in frontier:
            coords = window.coords[p]
            pair = table.critical(coords, ladder_rows)
            if pair is not None:
                raise CriticalityError(
                    f"coincident entries in row {pair[0]} at shift {window.member(p)!r}"
                )
            padded = coords + (0,)
            for letter, step in letters:
                for k in open_slots(padded, letter):
                    q = find(_bumped(coords, k, step))
                    if q is not None and q not in reached:
                        reached.add(q)
                        nxt.append(q)
        frontier = nxt
    return {window.member(p) for p in reached}
