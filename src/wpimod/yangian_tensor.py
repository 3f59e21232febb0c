"""Tensor products of highest-weight evaluation modules over the Yangian.

Each factor is a gl_n highest-weight module realized as a relation module over
a one-column pyramid, pulled back through the evaluation map
t_ij(u) -> delta_ij + E_ij/(u - a).  The coproduct spreads t_ij(u) over the
factors; quantum minors are computed as exact truncated series, and
singular vectors are exact kernels of the adjacent raising series
t_{i,i+1}(u), truncated at order k for k factors, on weight spaces.  At root
offset c only the rows with c_i > 0 are applied, since t_{i,i+1} maps into
the empty space at c - alpha_i when c_i = 0.  One fraction-free integer
elimination takes each kernel exactly: the series are integers over one
denominator, and the elimination scales rows by integers instead of dividing,
so a `Fraction` is built only for the returned vectors.  The coproduct runs on
series in v = D*u, with D the product's scale, the lcm of its points'
denominators, so every pole D*point is an integer; a series is scaled by D^t
at coefficient t once on the way in and once on the way out, and a kernel
needs neither, since that scaling is an invertible diagonal change of the
image coordinates.  Inside, tensor keys are tuples of positions in each
factor's member list: each factor lists its members of bounded depth once,
with their key ranks and root offsets read off the coordinates, and the
weight spaces are walked from those lists, so a shift is built only for a
key that leaves the library.  A weight space's
keys go through the coproduct together, once per raising row.  The diagonal
E_aa and the raising E_ab that would leave the weights below the highest are
read off a member's root offset, with no Gelfand-Tsetlin formula.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import gt_module
from .exact_arith import InvSeries, as_integer, as_scalar
from .gt_module import MAX_WINDOW_MEMBERS, ActionContext, FreeWindow, _combine
from .pyramid import Pyramid
from .relations import maximal_set
from .tableau import Tableau, TableauDelta, TriIndex, tableau_from_values

# Most weight spaces `singular_dimensions` probes.  comb(depth + n - 1, n - 1)
# root offsets have height <= depth, and past this count the depth is refused
# before any is probed: a finite-dimensional product never reaches the member
# caps, so they alone would not bound it.
MAX_WEIGHT_SPACES = 100_000

# Most factors a `TensorModule` may have.  The coproduct costs about n^2
# `_slot_t` calls per factor, and the basis walk recurses once per factor;
# 64 generic gl_2 factors take a few seconds at depth 1.
MAX_FACTORS = 64


def require_factor_count(count: int) -> None:
    """Raise ValueError when `count` factors are more than MAX_FACTORS."""
    if count > MAX_FACTORS:
        raise ValueError(f"tensor product has more than {MAX_FACTORS} factors")


def _require_indices(n: int, indices) -> None:
    """Raise IndexError unless every index lies in 1..n."""
    if not all(1 <= x <= n for x in indices):
        raise IndexError(f"index out of range for gl_{n}")


def _depth(depth) -> int:
    """`depth` as an int; ValueError when it is not an integer or is negative."""
    depth = as_integer(depth, "depth")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return depth


class GlWeight:
    """A gl_n highest weight (lambda_1, ..., lambda_n) with exact entries.

    The shifted coordinates are computed once per weight.
    """

    __slots__ = ("values", "_l_values")

    def __init__(self, values):
        self.values = tuple(as_scalar(v) for v in values)
        if not self.values:
            raise ValueError("weight needs at least one entry")
        self._l_values = tuple(v - i for i, v in enumerate(self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    def l_values(self) -> tuple[Fraction, ...]:
        """The shifted coordinates l_i = lambda_i - i + 1."""
        return self._l_values

    def is_good(self) -> bool:
        """Entry differences within indices 1..n-1 non-integral or above the index gap."""
        for i in range(self.n - 1):
            for j in range(i + 1, self.n - 1):
                diff = self.values[i] - self.values[j]
                if diff.denominator == 1 and diff <= i - j:
                    return False
        return True

    def is_dominant_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values) and all(
            a >= b for a, b in zip(self.values, self.values[1:])
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, GlWeight) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"GlWeight({[str(v) for v in self.values]})"


def is_generic(weights) -> bool:
    """No cross-family entry difference is an integer."""
    ws = list(weights)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            for a in ws[i].values:
                for b in ws[j].values:
                    if (a - b).denominator == 1:
                        return False
    return True


def weyl_dimension(w: GlWeight) -> int:
    """Dimension of the simple module with dominant integral highest weight."""
    if not w.is_dominant_integral():
        raise ValueError("Weyl dimension requires a dominant integral weight")
    num = 1
    den = 1
    n = w.n
    for i in range(n):
        for j in range(i + 1, n):
            num *= int(w.values[i] - w.values[j]) + j - i
            den *= j - i
    return num // den


# -- interval sets ----------------------------------------------------------


class IntervalSet:
    """A union of bounded integer intervals and half-infinite integer rays.

    A bounded part is (lo, hi, excluded): the values lo + z for integers z >= 0
    up to hi, minus the excluded finite set.  A ray is (anchor, direction,
    excluded): the values anchor + direction*z for z >= 0, minus the excluded
    set.  Values are Fractions and excluded sets frozensets of them.
    Membership is exact and costs the same however long a part is.
    """

    __slots__ = ("bounded", "rays")

    def __init__(self, bounded=(), rays=()):
        self.bounded = tuple(bounded)
        self.rays = tuple(rays)

    def __contains__(self, x) -> bool:
        x = as_scalar(x)
        for lo, hi, excluded in self.bounded:
            if lo <= x <= hi and (x - lo).denominator == 1 and x not in excluded:
                return True
        for anchor, direction, excluded in self.rays:
            gap = (x - anchor) * direction
            if gap.denominator == 1 and gap >= 0 and x not in excluded:
                return True
        return False


def _integer_chains(values, indices):
    """Group (index, value) pairs into integer-linked chains, indices descending."""
    chains: list[list[tuple[int, Fraction]]] = []
    for idx in sorted(indices, reverse=True):
        v = values[idx - 1]
        for chain in chains:
            if (v - chain[0][1]).denominator == 1:
                chain.append((idx, v))
                break
        else:
            chains.append([(idx, v)])
    return chains


def interval_sets(l_values, i: int, j: int) -> tuple[IntervalSet, IntervalSet]:
    """The pair of sets attached to coordinates l_i, ..., l_j (1-based, i < j).

    Each integer-linked chain contributes either the bounded integer interval
    between its extreme values minus the chain, or a half-infinite ray minus the
    chain, depending on whether the chain reaches index j (minus side) or
    index i (plus side).
    """
    if not 1 <= i < j <= len(l_values):
        raise ValueError("need 1 <= i < j <= len(l_values)")
    values = [as_scalar(v) for v in l_values]
    chains = _integer_chains(values, range(i, j + 1))
    minus_bounded, minus_rays, plus_bounded, plus_rays = [], [], [], []
    for chain in chains:
        members = frozenset(v for _, v in chain)
        first = chain[0]  # largest index
        last = chain[-1]  # smallest index
        span = (first[1], last[1], members)
        if first[0] == j:
            minus_bounded.append(span)
        else:
            minus_rays.append((first[1], -1, members))
        if last[0] == i:
            plus_bounded.append(span)
        else:
            plus_rays.append((last[1], +1, members))
    return (
        IntervalSet(minus_bounded, minus_rays),
        IntervalSet(plus_bounded, plus_rays),
    )


def integral_condition(lam: GlWeight, mu: GlWeight) -> bool:
    """Sufficient irreducibility condition for a two-factor integral tensor product."""
    if lam.n != mu.n:
        raise ValueError("weights must have the same length")
    if not lam.is_good() or not mu.is_good():
        raise ValueError("both weights must be good")
    ls = lam.l_values()
    ms = mu.l_values()
    for i in range(1, lam.n + 1):
        for j in range(i + 1, lam.n + 1):
            lminus, lplus = interval_sets(ls, i, j)
            first = ms[j - 1] not in lminus and ms[i - 1] not in lplus
            if first:
                continue
            mminus, mplus = interval_sets(ms, i, j)
            second = ls[j - 1] not in mminus and ls[i - 1] not in mplus
            if not second:
                return False
    return True


# -- evaluation factors -----------------------------------------------------


# Distinct weights whose factor core `_factor_core` keeps, and distinct seed
# shapes whose relation set, window and member lists `_factor_shape` keeps,
# the least recently used evicted first.  A sweep over a weight box builds
# the same weights in many products; past this many distinct weights, it
# should keep and reuse its own factors.
FACTOR_MEMO_SIZE = 128


@lru_cache(maxsize=FACTOR_MEMO_SIZE)
def _factor_shape(pyramid: Pyramid, entries: tuple) -> tuple:
    """What every factor whose seed has these entries shares, built once
    while stored: (maximal set, free window, `EvaluationFactor._members`
    lists by depth).  `entries` are the seed's (triple, (class, offset))
    pairs, as `tableau_from_values` gives them.

    The relation set and the basis depend only on which entries of the seed
    differ by integers, and by how much, not on the weight's values, so
    the window is built over a seed with no assignment: a read of the
    values through it raises.  Its positions are appended and never move,
    so each weight keeps its own columns keyed by them.  A shape whose
    maximal set fails raises every time and is never stored.
    """
    seed = Tableau(pyramid, dict(entries))
    relations = maximal_set(seed)
    return relations, FreeWindow(relations, seed), {}


@lru_cache(maxsize=FACTOR_MEMO_SIZE)
def _factor_core(weight: GlWeight) -> tuple:
    """The core that every evaluation factor of `weight` shares, built once
    while stored: (seed, maximal set, free window, member lists by depth,
    exact action context, column store).  The seed is the highest-weight
    tableau of the shifted coordinates over the one-column pyramid, with
    the weight's values; the maximal set, window and member lists are its
    shape's (`_factor_shape`), shared with every weight of that shape, and
    the action context and column store are the weight's own.  A weight
    whose core fails raises every time and is never stored.  The store's
    bound counts weights, not bytes: a stored core keeps the columns of
    the deepest product built on its weight, and its shape the window and
    member lists of each depth built on any weight of the shape: 0.31 MB
    for the generic gl_3 pair [1/3, 1/7, 2/5], [1/5, 1/2, 3/11], one shape,
    at depth 8, under tracemalloc.
    A weight that is not good (`GlWeight.is_good`) raises ValueError: its
    carrier would break the gl_n relations, so it is no gl_n module.  A
    good weight whose seed has no maximal set (`maximal_set` raises) raises
    ValueError naming the weight and that failure.
    """
    if not weight.is_good():
        raise ValueError(f"weight {[str(v) for v in weight.values]} is not good")
    n = weight.n
    ls = weight.l_values()
    seed = tableau_from_values(
        Pyramid((1,) * n),
        {TriIndex(1, i, j): ls[j - 1] for i in range(1, n + 1) for j in range(1, i + 1)},
    )
    try:
        relations, window, member_lists = _factor_shape(seed.pyramid, tuple(seed.entries.items()))
    except ValueError as err:
        raise ValueError(f"weight {[str(v) for v in weight.values]} has no factor: {err}") from err
    return seed, relations, window, member_lists, ActionContext(window, seed.assignment), {}


class EvaluationFactor:
    """A gl_n highest-weight module at an evaluation point.

    The carrier is the relation module of the maximal relation set of the
    highest-weight tableau over the one-column pyramid; basis vectors are
    integral shifts of the seed, graded by total lowering depth.  Inside,
    a basis vector is its position in the window, whose columns, integer
    (target, num, den) triples, move its coordinates and append each new
    target; a shift is built only where `E`, `column` or `deltas` takes or
    returns one, once per position of the shape's window
    (`FreeWindow.member`).

    The module depends on the weight alone: t_ij(u) -> delta_ij +
    E_ij/(u - point) puts the point only into the pole, which a tensor
    module holds as the integer scale*point (`TensorModule.poles`).  So all
    factors of one weight share one core from `_factor_core`: the seed, the
    exact action context and one store of E_ab columns are the weight's
    own, and the maximal set, the window and the member lists by depth are
    its seed's shape's (`_factor_shape`), shared with every weight whose
    seed has the same classes and offsets.  Each store keeps its last
    FACTOR_MEMO_SIZE entries and evicts the least recently used; the bound
    counts weights and shapes, and each holds what its deepest product
    grew (see `_factor_core`).
    Of its own a factor has only `weight`, `n`, `point` and the row of each
    window coordinate; its `seed`, `relations`, `window`, `ctx` and column
    store are the core's.
    `depth` has no effect.  Outside the tests, the benchmark's jobs
    (`perfbench/jobs.py`) are the last caller that passes it.
    """

    def __init__(self, weight: GlWeight, point=0, depth: int = 3):
        self.weight = weight
        self.point = as_scalar(point)
        self.n = weight.n
        (self.seed, self.relations, self.window, self._member_lists, self.ctx,
         self._columns) = _factor_core(weight)
        # per window coordinate in row i, the index of c_i in a root offset
        self._rows = tuple(t.i - 1 for t in self.window.free)

    def highest(self) -> TableauDelta:
        return TableauDelta()

    def depth_of(self, d: TableauDelta) -> int:
        return -sum(d.offsets.values())

    def root_offset(self, d: TableauDelta) -> tuple[int, ...]:
        """Per-row lowering counts (c_1, ..., c_{n-1})."""
        return self._offset_at(self.window.coords_of(d))

    def _offset_at(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """`root_offset` of the shift with the given window coordinates."""
        out = [0] * (self.n - 1)
        for i, v in zip(self._rows, coords):
            out[i] -= v
        return tuple(out)

    def _weight_at(self, a: int, c: tuple[int, ...]) -> Fraction:
        """Entry a of the gl_n weight lambda - sum c_i alpha_i at root offset
        c: lambda_a plus `_lift`."""
        return self.weight.values[a - 1] + self._lift(a, c)

    def _lift(self, a: int, c: tuple[int, ...]) -> int:
        """c_{a-1} - c_a at root offset c, with c_0 = c_n = 0: what entry a
        of the weight gains there."""
        return (c[a - 2] if a > 1 else 0) - (c[a - 1] if a < self.n else 0)

    def gl_weight(self, d: TableauDelta) -> tuple[Fraction, ...]:
        """Eigenvalues of the diagonal E_kk on the shifted basis vector, read off
        its root offset (`_weight_at`).  They are the u^-1 coefficients of
        d_k(u), sum(row k) - sum(row k - 1) + k - 1: lowering row k by one
        lowers E_kk by one and raises E_k+1,k+1 by one."""
        c = self.root_offset(d)
        return tuple(self._weight_at(a, c) for a in range(1, self.n + 1))

    def _members(self, depth: int) -> list[tuple[int, int, int, tuple[int, ...]]]:
        """(depth, rank, position, root offset) of every member of depth at
        most `depth`, in (depth, key) order, read off the coordinates: the
        rank is the member's index in `BasisWindow.points`, which lists them
        in key order, so ranks compare as the shifts' keys do.  Raises
        ValueError past MAX_WINDOW_MEMBERS members, as a basis window does.

        Each depth's list is built once per shape and kept in its member
        lists, which every factor of the shape reads and none changes; a
        kept list is held against the cap again, which is read at call time.
        """
        out = self._member_lists.get(depth)
        if out is None:
            window = self.window
            coords = window.points(-depth, 0, depth=depth)
            out = [(-sum(c), rank, window._admit(c), self._offset_at(c))
                   for rank, c in enumerate(coords)]
            out.sort()
            self._member_lists[depth] = out
        elif len(out) > gt_module.MAX_WINDOW_MEMBERS:
            raise ValueError(f"basis window has more than {gt_module.MAX_WINDOW_MEMBERS} members")
        return out

    def deltas(self, depth: int) -> list[TableauDelta]:
        """All basis shifts of total depth at most `depth`, in (depth, key) order.

        Raises ValueError on a depth that is not a nonnegative integer, and
        past MAX_WINDOW_MEMBERS shifts, as a basis window does.
        """
        member = self.window.member
        return [member(pos) for _, _, pos, _ in self._members(_depth(depth))]

    def column(self, a: int, b: int, d: TableauDelta) -> tuple:
        """The image of the basis shift d under E_ab, as ((target, coefficient), ...).

        `_column` over member positions, with the positions mapped back to
        shifts and each coefficient a `Fraction`.
        """
        member = self.window.member
        return tuple((member(p), Fraction(num, den))
                     for p, num, den in self._column(a, b, self.window.position(d)))

    def _column(self, a: int, b: int, pos: int) -> tuple:
        """The image of member pos under E_ab, as ((target position, num,
        den), ...): each coefficient num/den nonzero, in lowest terms, with
        den > 0.

        Built once per (a, b, pos) and weight, in the core's column store
        that every factor of the weight shares.  Two columns are read off the
        member's root offset c alone: E_aa is entry a of its gl_n weight,
        lambda_a - c_a + c_{a-1} (`_weight_at`), the integer `_lift` times
        lambda_a's denominator added to its numerator, and a raising E_ab (a < b)
        is empty when c_r = 0 for some a <= r < b, since its target would
        lie above the highest weight.  Otherwise E_a,a+1 and E_a+1,a are the
        e_a^(1) and f_a^(1) terms of the factor's exact action context
        (`ActionContext.ladder_ints`), each target placed by `window.step`,
        and an off-adjacent column is the commutator [E_a,mid, E_mid,b] of
        cached columns, with mid the index next to b on the side of a, its
        (num, den) products summed per target and reduced once.
        """
        key = (a, b, pos)
        col = self._columns.get(key)
        if col is None:
            _require_indices(self.n, (a, b))
            col = self._columns[key] = self._build_column(a, b, pos)
        return col

    def _build_column(self, a: int, b: int, pos: int) -> tuple:
        window = self.window
        if a <= b:
            c = self._offset_at(window.coords[pos])
            if a == b:
                lam = self.weight.values[a - 1]
                num = lam.numerator + self._lift(a, c) * lam.denominator
                return ((pos, num, lam.denominator),) if num else ()
            if 0 in c[a - 1:b - 1]:
                # E_ab would raise the weight past c_r = 0 for some a <= r < b,
                # above the highest weight, where no member lies
                return ()
        if abs(a - b) == 1:
            fam, row, step = ("e", a, 1) if b == a + 1 else ("f", b, -1)
            # a free window has no box: a target is a member or breaks C
            return tuple((to, num, den)
                         for slot, num, den in self.ctx.ladder_ints(fam, row, 1, window.coords[pos])
                         if (to := window.step(pos, slot, step)) is not None)
        mid = b - 1 if a < b else b + 1
        sums: dict = {}  # target position -> [num, den], over a common den
        for inner, outer, sign in (((mid, b), (a, mid), 1), ((a, mid), (mid, b), -1)):
            for p1, n1, d1 in self._column(*inner, pos):
                for p2, n2, d2 in self._column(*outer, p1):
                    num, den = sign * n1 * n2, d1 * d2
                    acc = sums.get(p2)
                    if acc is None:
                        sums[p2] = [num, den]
                    elif acc[1] == den:
                        acc[0] += num
                    else:
                        g = math.gcd(acc[1], den)
                        acc[0] = acc[0] * (den // g) + num * (acc[1] // g)
                        acc[1] *= den // g
        out = []
        for p, (num, den) in sums.items():
            if num:
                g = math.gcd(num, den)
                out.append((p, num // g, den // g))
        return tuple(out)

    def E(self, a: int, b: int, vec: dict) -> dict:
        """The gl_n basis element E_ab on a sparse vector {shift: coefficient}."""
        _require_indices(self.n, (a, b))
        return _combine((c, self.column(a, b, d)) for d, c in vec.items())


# -- tensor modules ---------------------------------------------------------


class TensorModule:
    """An ordered tensor product of evaluation factors, graded by root height."""

    def __init__(self, factors, depth: int = 3):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("need at least one factor")
        require_factor_count(len(self.factors))
        ns = {f.n for f in self.factors}
        if len(ns) > 1:
            raise ValueError("all factors must share the same rank")
        self.n = self.factors[0].n
        self.depth = _depth(depth)
        # the series of the coproduct are in v = scale*u, so every pole,
        # scale times a factor's point, is an integer
        self.scale = math.lcm(*(f.point.denominator for f in self.factors))
        self.poles = tuple(int(f.point * self.scale) for f in self.factors)
        # the keys of `_walk(self._grouped)` by root offset: every offset of
        # height up to `_grouped` reads its keys here
        self._grouped = -1
        self._spaces: dict[tuple, list[tuple]] = {}

    def highest(self) -> tuple:
        return tuple(f.highest() for f in self.factors)

    def depth_of(self, key) -> int:
        return sum(f.depth_of(d) for f, d in zip(self.factors, key))

    def root_offset(self, key) -> tuple[int, ...]:
        out = [0] * (self.n - 1)
        for f, d in zip(self.factors, key):
            for i, c in enumerate(f.root_offset(d)):
                out[i] += c
        return tuple(out)

    def basis(self, depth: int | None = None) -> list[tuple]:
        """Keys of total depth at most `depth`, in (depth, keys) order: the
        keys of `_walk`, as shifts.

        Raises ValueError on a depth that is not a nonnegative integer, and
        past MAX_WINDOW_MEMBERS keys, as a basis window does.
        """
        depth = self.depth if depth is None else _depth(depth)
        return self._shift_keys(key for key, _ in self._walk(depth))

    def weight_space(self, offset) -> list[tuple]:
        """Basis keys whose root-height offset equals the given tuple, in basis
        order: `_space` as shifts; ValueError on a non-integral entry."""
        return self._shift_keys(self._space(tuple(as_integer(c, "offset entry") for c in offset)))

    def _space(self, offset: tuple) -> list[tuple]:
        """The position keys of the weight space at `offset`, in basis order
        (the module's own list).

        Read from the deepest walk grouped so far (`_group`): a key's depth
        is its offset's height, so `_walk(depth)` holds the whole weight
        space of every offset of height up to depth, in the same order.  A
        deeper offset first groups the walk of its own height.
        """
        if sum(offset) > self._grouped:
            self._group(sum(offset))
        return self._spaces.get(offset, [])

    def _group(self, depth: int) -> None:
        """Group `_walk(depth)` by root offset, in place of any shallower grouping."""
        spaces: dict[tuple, list[tuple]] = {}
        for key, offset in self._walk(depth):
            spaces.setdefault(offset, []).append(key)
        self._spaces, self._grouped = spaces, depth

    def _walk(self, depth: int) -> list[tuple[tuple, tuple]]:
        """(key, root offset) of every key of total depth at most `depth`, in
        (depth, keys) order, each key a tuple of member positions.

        Each factor lists its members by depth (`EvaluationFactor._members`),
        so the walk takes from each factor only the members that fit in the
        depth left, and sums their root offsets as it goes.  The keys are
        sorted by depth and then by the factors' ranks, which compare as
        their shifts' keys do.  Raises ValueError past MAX_WINDOW_MEMBERS
        members of a factor or keys, as a basis window does.
        """
        per = [f._members(depth) for f in self.factors]
        out = []

        def walk(slot: int, left: int, ranks: tuple, key: tuple, offset: tuple) -> None:
            if slot == len(per):
                out.append((depth - left, ranks, key, offset))
                if len(out) > MAX_WINDOW_MEMBERS:
                    raise ValueError(
                        f"tensor basis has more than {MAX_WINDOW_MEMBERS} members"
                    )
                return
            for k, rank, pos, c in per[slot]:
                if k > left:
                    break
                walk(slot + 1, left - k, ranks + (rank,), key + (pos,),
                     tuple(map(operator.add, offset, c)))

        walk(0, depth, (), (), (0,) * (self.n - 1))
        out.sort()
        return [(key, offset) for _, _, key, offset in out]

    def _positions(self, key: tuple) -> tuple[int, ...]:
        """A key of shifts as the tuple of their member positions, one per factor."""
        return tuple(f.window.position(d) for f, d in zip(self.factors, key))

    def _shift_keys(self, keys) -> list[tuple]:
        """Keys of member positions as keys of shifts, each shift the one its
        factor's window keeps for the position (`FreeWindow.member`)."""
        members = [f.window.member for f in self.factors]
        return [tuple(member(p) for member, p in zip(members, key)) for key in keys]


def _add_scaled(out: dict, key, ser: list, cn: int = 1, cd: int = 1):
    """out[key] += (cn/cd)*ser on scaled series; sums keep the shorter.

    A scaled series [D, n_0, ..., n_T] holds the exact coefficients n_t/D
    as integers over one positive denominator D, so products and sums cost
    integer operations only.  A sum over two denominators goes over their
    least common multiple.
    """
    tgt = out.get(key)
    if tgt is None:
        out[key] = list(ser) if cn == cd == 1 else [ser[0] * cd] + [cn * x for x in ser[1:]]
        return
    del tgt[len(ser):]
    den, tden = ser[0] * cd, tgt[0]
    if den == tden:
        for t in range(1, len(tgt)):
            tgt[t] += cn * ser[t]
        return
    g = math.gcd(den, tden)
    up, cn = den // g, cn * (tden // g)
    tgt[0] = tden * up
    for t in range(1, len(tgt)):
        tgt[t] = tgt[t] * up + cn * ser[t]


def _fractions(ser: list, scale: int) -> list[Fraction]:
    """The exact u-coefficients [c_0, ..., c_T] of a scaled series in
    v = scale*u: coefficient t is divided by scale^t."""
    den = ser[0]
    return [Fraction(x, den * scale ** t) for t, x in enumerate(ser[1:])]


def _slot_t(M: TensorModule, slot: int, a: int, b: int, arg_shift: int, vec: dict,
            order: int, out: dict) -> None:
    """Add t_ab(u - arg_shift), acting on factor `slot` of the scaled-series
    vector `vec`, into `out` in place, with `_add_scaled`.

    Keys are tuples of member positions, one per factor, and values scaled
    series (`_add_scaled`) in v = D*u, D the module's scale.  t_ab(u - s) =
    delta_ab + E_ab/(u - s - point) = delta_ab + D*E_ab/(v - P), with the
    integer pole P = D*(point + s); dividing a series by (v - P) is the
    recurrence q_0 = 0, q_t = c_{t-1} + P*q_{t-1}.  Image series are not
    reduced to lowest terms: their values are exact either way, and
    `Fraction` or the kernel's gcd step reduces them once.
    """
    f = M.factors[slot]
    pole = M.poles[slot] + arg_shift * M.scale
    for key, ser in vec.items():
        if a == b:
            _add_scaled(out, key, ser)
        col = f._column(a, b, key[slot])
        if not col:
            continue
        q = [ser[0]] + [0] * min(len(ser) - 1, order + 1)
        for t in range(2, len(q)):
            q[t] = ser[t - 1] + pole * q[t - 1]
        for d2, num, den in col:
            _add_scaled(out, key[:slot] + (d2,) + key[slot + 1:], q, M.scale * num, den)


def _tensor_t(M: TensorModule, a: int, b: int, arg_shift: int, vec: dict, order: int, lo: int,
              hi: int) -> dict:
    """Iterated-coproduct image of t_ab(u - arg_shift) on factor slots [lo, hi).

    The coproduct t_ab = sum over c of t_ac (x) t_cb makes this the sum, over
    chains a = c_lo, ..., c_hi = b, of t_{c_s c_s+1} on each slot s.  The
    images are built from the last slot back: `images[c]` is t_cb on slots
    [s, hi) applied to vec, the sum over mid of t_{c,mid} on slot s applied
    to the image of mid on [s + 1, hi).  Each (slot, index) image is built
    once, so k slots of gl_n cost at most (k - 2) n^2 + 2n `_slot_t` calls:
    n on the last slot, where only mid = b is nonzero, n^2 on each middle
    one and n on the first, where only c = a is needed.  Every `_slot_t`
    call of one (slot, c) adds into that image's dict, so nothing is merged
    twice.
    """
    images = {b: vec}
    for slot in range(hi - 1, lo - 1, -1):
        nxt: dict = {}
        for c in (a,) if slot == lo else range(1, M.n + 1):
            out: dict = {}
            for mid, inner in images.items():
                _slot_t(M, slot, c, mid, arg_shift, inner, order, out)
            if out:
                nxt[c] = out
        images = nxt
    return images.get(a, {})


def _as_series_vec(vec: dict, order: int, scale: int) -> dict:
    """Scalar and InvSeries values in u as scaled series in v = scale*u
    (`_add_scaled`): coefficient t is multiplied by scale^t."""
    out = {}
    for key, c in vec.items():
        if not isinstance(c, InvSeries):  # a scalar c is [den(c), num(c), 0, ...]
            c = as_scalar(c)
            out[key] = [c.denominator, c.numerator] + [0] * order
            continue
        xs = [as_scalar(x) * scale ** t for t, x in enumerate((c.constant, *c.coeffs))]
        den = math.lcm(*(x.denominator for x in xs))
        out[key] = [den] + [x.numerator * (den // x.denominator) for x in xs]
    return out


def t_coefficient(M: TensorModule, i: int, j: int, r: int, vec: dict) -> dict:
    """Apply the single generator coefficient t_ij^(r) (t^(0) is delta_ij)."""
    i, j = as_integer(i, "row index"), as_integer(j, "column index")
    r = as_integer(r, "coefficient index r")
    _require_indices(M.n, (i, j))
    if r < 0:
        raise ValueError(f"coefficient index r must be >= 0, got {r}")
    if r == 0:
        return dict(vec) if i == j else {}
    vec = {M._positions(key): c for key, c in vec.items()}
    out_ser = _tensor_t(M, i, j, 0, _as_series_vec(vec, r, M.scale), r, 0, len(M.factors))
    out = {key: Fraction(s[r + 1], s[0] * M.scale ** r) for key, s in out_ser.items() if s[r + 1]}
    return dict(zip(M._shift_keys(out), out.values()))


class OperatorSeries:
    """A quantum minor as an applicable truncated-series operator."""

    def __init__(self, M: TensorModule, a_rows, b_cols, order: int,
                 lo: int = 0, hi: int | None = None):
        self.M = M
        self.a_rows = tuple(as_integer(a, "row index") for a in a_rows)
        self.b_cols = tuple(as_integer(b, "column index") for b in b_cols)
        if len(self.a_rows) != len(self.b_cols):
            raise ValueError("row and column index lists must have equal length")
        _require_indices(M.n, self.a_rows + self.b_cols)
        self.order = as_integer(order, "truncation order")
        if self.order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        self.lo = as_integer(lo, "lo")
        self.hi = len(M.factors) if hi is None else as_integer(hi, "hi")
        if not 0 <= self.lo <= self.hi <= len(M.factors):
            raise ValueError(f"factor slots need 0 <= lo <= hi <= {len(M.factors)}, "
                             f"got lo {self.lo}, hi {self.hi}")
        self.repeated = (
            len(set(self.a_rows)) < len(self.a_rows)
            or len(set(self.b_cols)) < len(self.b_cols)
        )

    def apply(self, vec: dict) -> dict:
        """Image of a vector; keys map to truncated `InvSeries`, all-zero ones left out."""
        M = self.M
        if self.repeated:
            return {}
        vec = _as_series_vec({M._positions(key): c for key, c in vec.items()}, self.order,
                             M.scale)
        out: dict = {}
        for sigma in itertools.permutations(range(len(self.a_rows))):
            sgn = (-1) ** sum(x > y for x, y in itertools.combinations(sigma, 2))
            cur = vec
            for pos in range(len(sigma) - 1, -1, -1):
                cur = _tensor_t(M, self.a_rows[sigma[pos]], self.b_cols[pos], pos, cur,
                                self.order, self.lo, self.hi)
                if not cur:
                    break
            for key, s in cur.items():
                _add_scaled(out, key, s, sgn)
        out = {k: _fractions(s, M.scale) for k, s in out.items() if any(s[1:])}
        return dict(zip(M._shift_keys(out), (InvSeries(s[0], s[1:]) for s in out.values())))


def quantum_minor(M: TensorModule, a_rows, b_cols, order: int,
                  lo: int = 0, hi: int | None = None) -> OperatorSeries:
    return OperatorSeries(M, a_rows, b_cols, order, lo, hi)


# -- singular vectors -------------------------------------------------------


def _raising_images(M: TensorModule, keys, rows, order: int) -> list[list[tuple[int, dict]]]:
    """Per key of member positions, (i, image of the key under t_{i,i+1}(u))
    for each row i of `rows`, as scaled series at `order`.

    The whole space goes through `_tensor_t` once per row: each key carries
    its index as a trailing key component, which no slot touches, and the
    images are split by that index.  No two keys share a target there, so
    each image holds the series, in the order, that the key's own
    `_tensor_t` would.
    """
    one = [1, 1] + [0] * order  # 1 as a scaled series
    start = {key + (idx,): one for idx, key in enumerate(keys)}
    images: list[list] = [[] for _ in keys]
    for i in rows:
        parts: list[dict] = [{} for _ in keys]
        for target, s in _tensor_t(M, i, i + 1, 0, start, order, 0, len(M.factors)).items():
            parts[target[-1]][target[:-1]] = s
        for image, part in zip(images, parts):
            image.append((i, part))
    return images


def _dependencies(M: TensorModule, offset: tuple, order: int):
    """Yield a kernel vector of the raising coefficients for each dependent
    key of the weight space at root offset `offset`.

    The keys are tuples of member positions, the module's own list at the
    offset (`TensorModule._space`), and their images are taken together
    (`_raising_images`).  Each key's image, the coefficients of t_{i,i+1}(u)
    with the targets as member positions, is one integer vector over (i,
    target key, t): each scaled series is multiplied by L / D, with L the
    lcm of the image's denominators D.  The key's combination starts at L
    times the key, so the vector is always the image of its combination.  The
    vector is reduced against the echelon vectors of the keys before it
    without dividing: against a vector e with pivot value p, where the
    vector holds c, with g = gcd(p, c), both the vector and its combination
    become (p/g) times themselves minus (c/g) times e's.  Each echelon vector
    is 0 at earlier pivots and is stored divided by the gcd of its entries
    and its combination's.  Only the rows i with c_i > 0 on the offset c are
    applied: t_{i,i+1} maps the keys into the space at c - alpha_i, which is
    empty when c_i = 0.  At offset 0 no row applies, so the highest vector,
    the space's one key, is the kernel.

    A key whose vector reduces to zero yields its combination divided by the
    combination's entry at the key, as `Fraction`s in key order.  That is a
    kernel vector, 1 at the key and supported on the earlier independent
    keys (every echelon combination is made of independent keys only), and
    it is the only one: two such vectors differ by a kernel vector on the
    independent keys, whose images are linearly independent, so they agree.
    These are the reduced-echelon null-space basis vectors with the keys as
    columns, whatever integer multiples the reduction went through.
    """
    keys = M._space(offset)
    rows = [i for i, c in enumerate(offset, 1) if c] if keys else []
    echelon = []  # (pivot, pivot value, vector, combination of key positions)
    images = _raising_images(M, keys, rows, order)
    for idx in range(len(keys)):
        # each key's images are dropped once read, so they are never all held
        # beside the echelon vectors built from them
        key_images, images[idx] = images[idx], None
        scale = math.lcm(*(s[0] for _, image in key_images for s in image.values()))
        vec = {(i, ok, t): x * (scale // s[0])
               for i, image in key_images for ok, s in image.items()
               for t, x in enumerate(s[1:]) if x}
        combo = {idx: scale}
        for pivot, p, e, e_combo in echelon:
            c = vec.get(pivot)
            if c:
                g = math.gcd(p, c)
                up, c = p // g, c // g
                for part, src in ((vec, e), (combo, e_combo)):
                    if up != 1:
                        for coord in part:
                            part[coord] *= up
                    for coord, x in src.items():
                        part[coord] = part.get(coord, 0) - c * x
        vec = {coord: x for coord, x in vec.items() if x}
        if not vec:
            den = combo[idx]
            yield {keys[j]: Fraction(c, den) for j, c in sorted(combo.items()) if c}
            continue
        pivot, p = next(iter(vec.items()))
        g = math.gcd(*vec.values(), *combo.values())
        g = -g if p < 0 else g
        if g != 1:
            vec = {coord: x // g for coord, x in vec.items()}
            combo = {j: x // g for j, x in combo.items()}
        echelon.append((pivot, p // g, vec, combo))


def find_singular_vectors(M: TensorModule, offset) -> list[dict]:
    """Exact kernel of all raising series t_{i,i+1}(u) on one weight space.

    `offset` gives per-row lowering counts, n - 1 nonnegative integers for
    gl_n (ValueError otherwise); the returned vectors are sparse dicts over
    the weight-space basis keys, the reduced-echelon null-space basis in key
    order, with `Fraction` entries.  One fraction-free integer elimination,
    `_dependencies`, takes them over member positions, and only the returned
    vectors' keys are built as shifts.

    The kernel K_T of every t_{i,i+1}^(r) is the space of singular vectors,
    those killed by every t_ij(u) with i < j.  The RTT relation gives
    [t_ij^(1), t_jl^(r)] = t_il^(r) for i < j < l, so by induction on l - i
    whatever the adjacent coefficients kill, every t_il^(r) kills.  It is
    also the kernel of the Drinfeld series B_m(u), the quantum minors of rows
    1..m and columns 1..m-1, m+1 (Brundan-Kleshchev): in the Gauss
    decomposition T(u) = F(u)H(u)E(u), t_ij(u) = sum over k <= i of
    f_ik(u)h_k(u)e_kj(u), so by induction on i the t_ij with i < j kill v
    exactly when the e_kj do; each e_kj^(r) is a nested commutator of
    coefficients of the e_{m,m+1}(u) = A_m(u)^-1 B_m(u), and A_m(u) is
    invertible.

    The truncation order k, for k factors, gives the kernel of the whole
    series.  A factor acts through t_ab(u) = delta_ab + E_ab/(u - point),
    one simple pole, so under the k-fold coproduct t_{i,i+1}(u) = P(u)/Q(u)
    on the weight space, with one scalar Q = prod (u - point) of degree k for
    every key and deg P <= k.  If c_0, ..., c_k of a combination's image
    vanish, then P = Q * (P/Q) is a polynomial in O(u^-1), so P = 0.  The
    images are taken in v = D*u, D the module's scale (`_slot_t`): their
    coefficient t is D^t times the u-coefficient, so the same combinations
    vanish.
    """
    offset = tuple(as_integer(c, "offset entry") for c in offset)
    if len(offset) != M.n - 1 or any(c < 0 for c in offset):
        raise ValueError(
            f"offset must be {M.n - 1} nonnegative integers for gl_{M.n}, got {offset}"
        )
    return [dict(zip(M._shift_keys(v), v.values()))
            for v in _dependencies(M, offset, len(M.factors))]


def _offsets(shape: int, depth: int):
    """Every tuple of `shape` nonnegative integers with sum <= depth, in
    lexicographic order."""
    if shape == 0:
        if depth >= 0:
            yield ()
        return
    for head in range(depth + 1):
        for tail in _offsets(shape - 1, depth - head):
            yield (head,) + tail


def singular_dimensions(M: TensorModule, depth: int | None = None) -> dict:
    """Kernel dimension per root-height offset, all offsets of height <= depth,
    in lexicographic order.

    Raises ValueError on a depth that is not a nonnegative integer, and,
    before probing any offset, when there are more than MAX_WEIGHT_SPACES
    such offsets, comb(depth + n - 1, n - 1) of them, or when the whole
    depth is past a member cap.

    The keys of the whole depth (`TensorModule._walk`) are grouped by root
    offset once, before the first probe, and every weight space is read
    from them, so a depth whose basis is past a member cap (a factor's
    window or the tensor basis, MAX_WINDOW_MEMBERS) raises its error before
    any elimination.
    """
    depth = M.depth if depth is None else _depth(depth)
    shape = M.n - 1
    if math.comb(depth + shape, shape) > MAX_WEIGHT_SPACES:
        raise ValueError(
            f"depth {depth} has more than {MAX_WEIGHT_SPACES} root offsets"
            f" for gl_{M.n}"
        )
    M._group(depth)
    return {
        combo: len(find_singular_vectors(M, combo))
        for combo in _offsets(shape, depth)
    }


def only_top_line(dims: dict) -> bool:
    """True when kernel dimensions by offset show one line at offset 0 and none elsewhere."""
    return all(dim == (0 if any(offset) else 1) for offset, dim in dims.items())


def only_top_singular(M: TensorModule, depth: int | None = None) -> bool:
    """True when the only singular line in the probed depths is the top one."""
    return only_top_line(singular_dimensions(M, depth))
