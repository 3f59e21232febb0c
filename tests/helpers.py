"""Shared constructions for the test suite."""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque

from wpimod import (
    Pyramid,
    RelationSet,
    Tableau,
    TriIndex,
    all_relations,
    enumerate_basis,
    generic_instantiate,
    noncritical_satisfying_tableau,
    permute,
    standard_set,
)
from wpimod.exact_arith import CriticalityError
from wpimod.gt_module import (
    ActionContext,
    WindowOverflowError,
    _combine,
    _relation_table,
    _residual,
)
from wpimod.relations import (
    ClosureOrder,
    Relation,
    _literal_admissible,
    _row_images,
    decompose,
    is_noncritical_set,
    is_satisfiable,
    vertices,
)
from wpimod.supports import _SupportTable
from wpimod.tableau import row_indices
from wpimod.yangian_tensor import (
    OperatorSeries,
    TensorModule,
    _factor_core,
    _factor_shape,
    quantum_minor,
)

GL2 = Pyramid((1, 1))
GL3 = Pyramid((1, 1, 1))
P12 = Pyramid((1, 2))
P22 = Pyramid((2, 2))


def spread_seed(C: RelationSet, gap: int = 4) -> Tableau:
    """A satisfying noncritical seed with offsets scaled to open the window.

    Scaling the canonical offsets by `gap` keeps every edge inequality and all
    same-row distinctness while leaving room for shifts of size < gap.
    """
    seed = noncritical_satisfying_tableau(C)
    entries = {t: (cls, off * gap) for t, (cls, off) in seed.entries.items()}
    return Tableau(C.pyramid, entries)


def try_relation_set(pi: Pyramid, rels) -> RelationSet | None:
    """Build a relation set, or None when construction rejects it (loops)."""
    try:
        return RelationSet(pi, rels)
    except ValueError:
        return None


def relation_subsets(pi: Pyramid, max_edges: int = 5):
    """Every constructible relation set with at most max_edges edges."""
    rels = all_relations(pi)
    for r in range(max_edges + 1):
        for combo in itertools.combinations(rels, r):
            C = try_relation_set(pi, combo)
            if C is not None:
                yield C


def _row_relabelings(pi: Pyramid, support=None):
    """Products of within-row (layer, position) relabelings, identity first.

    The product of the rows' `_row_images`, in lexicographic order of the
    row-by-row image tuples: the enumeration whose first passing relabeling
    `is_admissible` finds without enumerating it.  Yields {row: mapping}
    dictionaries consumable by `relations._relabel`, one row entry per
    non-identity row mapping.
    """
    per_row = [
        [(i, None if im == tuple(pairs) else dict(zip(pairs, im))) for im in images]
        for i, (pairs, images) in enumerate(_row_images(pi, support), 1)
    ]
    for combo in itertools.product(*per_row):
        yield {row: mapping for row, mapping in combo if mapping is not None}


def _reference_is_admissible(C, support=None):
    """The labelled conditions tried under every within-row relabeling in turn.

    With a support, only the relabelings `_row_relabelings` keeps for it: the
    least one per way of moving the supported triples.
    """
    if not is_satisfiable(C):
        return False, {"reason": "unsatisfiable"}
    first_fail = None
    for relabeling in _row_relabelings(C.pyramid, support):
        sC = C
        try:
            for row, mapping in relabeling.items():
                sC = permute(sC, row, mapping)
        except ValueError:
            continue
        ok, cert = _literal_admissible(sC)
        if ok:
            if relabeling:
                cert["relabeling"] = {
                    row: sorted((a, b) for a, b in m.items() if a != b)
                    for row, m in relabeling.items()
                }
            return True, cert
        if first_fail is None:
            first_fail = cert
    return False, first_fail


def clear_factor_stores() -> None:
    """Empty the factor-core and seed-shape stores, as in a fresh process."""
    _factor_core.cache_clear()
    _factor_shape.cache_clear()


def drinfeld_b(M: TensorModule, m: int, order: int) -> OperatorSeries:
    """The Drinfeld series B_m(u): the quantum minor of rows 1..m and columns
    1..m-1, m+1, whose joint kernel on a weight space is the space of
    singular vectors."""
    return quantum_minor(M, range(1, m + 1), [*range(1, m), m + 1], order)


def add_into(out: dict, key, ser: list, c=None) -> None:
    """out[key] += c*ser (ser if c is None) on `Fraction` lists [c_0, ..., c_T];
    sums keep the shorter.  The reference for the scaled-series sums."""
    tgt = out.get(key)
    if tgt is None:
        out[key] = list(ser) if c is None else [c * x for x in ser]
        return
    del tgt[len(ser):]
    for t in range(len(tgt)):
        tgt[t] += ser[t] if c is None else c * ser[t]


def entry_int_diff(l: Tableau, a: TriIndex, b: TriIndex):
    """Integer difference entry(a) - entry(b) if the entries share a class, else None."""
    ca, oa = l.entry(a)
    cb, ob = l.entry(b)
    return oa - ob if ca == cb else None


def reference_satisfies(C: RelationSet, l: Tableau) -> bool:
    """`satisfies` by a pair scan of each row against the components'
    indices in `decompose`."""
    for e in C.edges:
        diff = entry_int_diff(l, e.greater, e.lesser)
        if diff is None or diff < (1 if e.strict else 0):
            return False
    comp = {v: idx for idx, c in enumerate(decompose(C)) for v in vertices(c)}
    for i in range(1, l.pyramid.n + 1):
        row = row_indices(l.pyramid, i)
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                if entry_int_diff(l, row[a], row[b]) is not None:
                    ca, cb = comp.get(row[a]), comp.get(row[b])
                    if ca is None or cb is None or ca != cb:
                        return False
    return True


def reference_maximal_set(l: Tableau) -> RelationSet:
    """`maximal_set` by the plain pipeline: a pair scan of each row, the held
    relations checked by `RelationSet`, their reduction through one closure
    of the whole set, and `reference_satisfies`."""
    pi = l.pyramid
    for i in range(1, pi.n + 1):
        row = row_indices(pi, i)
        for x in range(len(row)):
            for y in range(x + 1, len(row)):
                if entry_int_diff(l, row[x], row[y]) == 0:
                    raise ValueError("tableau is critical")
    H = RelationSet(pi, [
        e for e in all_relations(pi)
        if (d := entry_int_diff(l, e.greater, e.lesser)) is not None
        and d >= (1 if e.strict else 0)
    ])
    if not (is_satisfiable(H) and is_noncritical_set(H)):
        raise ValueError(
            "the relations held by the tableau form a critical set; "
            "no noncritical set captures all of its integer links"
        )
    order = ClosureOrder(H)
    C = RelationSet(pi, [
        e for e in H.edges
        if not any(f.greater == e.greater and order.geq(f.lesser, e.lesser) for f in H.edges)
    ])
    if not reference_satisfies(C, l):
        raise ValueError(
            "tableau holds integer links that no chain of allowed relations connects"
        )
    return C


def reference_least_solution(verts, arcs):
    """`relations._least_solution` by full Bellman-Ford passes over every arc
    (Cormen et al., section 24.4): the least nonnegative solution of
    x_v >= x_u + w over the arcs (u, v, w), or None on a positive cycle."""
    x = dict.fromkeys(verts, 0)
    for _ in range(len(x) + 1):
        changed = False
        for u, v, w in arcs:
            if x[u] + w > x[v]:
                x[v] = x[u] + w
                changed = True
        if not changed:
            return x
    return None


def reference_relax(x, out, todo) -> bool:
    """`relations._relax` by its FIFO worklist alone (Moore 1959), built on
    every call: x raised in place to the least solution above it of the
    arcs out[u] = [(v, w), ...], each meaning x_v >= x_u + w, where only
    arcs leaving `todo` may be broken on entry; False on a positive cycle,
    found as a chain of V relaxations."""
    n = len(x)
    chain: dict = {}
    queue = deque(todo)
    waiting = set(queue)
    while queue:
        u = queue.popleft()
        waiting.discard(u)
        xu, length = x[u], chain.get(u, 0) + 1
        for v, w in out[u]:
            if xu + w > x[v]:
                if length == n:
                    return False
                x[v] = xu + w
                chain[v] = length
                if v not in waiting:
                    waiting.add(v)
                    queue.append(v)
    return True


def reference_top_row_loop(C: RelationSet) -> bool:
    """`RelationSet._has_top_row_loop` by depth-first search: whether the
    edges with both ends on the top row close a directed cycle."""
    n = C.pyramid.n
    adj: dict[TriIndex, list[TriIndex]] = {}
    for e in C.edges:
        if e.greater.i == n and e.lesser.i == n:
            adj.setdefault(e.greater, []).append(e.lesser)
    state: dict[TriIndex, int] = {}

    def dfs(v: TriIndex) -> bool:
        state[v] = 1
        for w in adj.get(v, ()):
            s = state.get(w, 0)
            if s == 1 or (s == 0 and dfs(w)):
                return True
        state[v] = 2
        return False

    return any(state.get(v, 0) == 0 and dfs(v) for v in list(adj))


def reference_verify(C: RelationSet, l: Tableau, radius: int, budget: int,
                     instantiations: int = 3, seed0: int = 1,
                     max_violations: int = 1) -> dict:
    """`verify_defining_relations` by a full scan: each case is evaluated at
    every eligible position, with no hit set, in each instantiation's own
    exact context, and fails at its least failing instantiation's least
    failing position."""
    window = enumerate_basis(C, l, radius)
    members = window.members
    report: dict = {"families": {}, "violations": [], "members": len(members)}
    for d in members:
        for i in range(1, l.pyramid.n + 1):
            row = row_indices(l.pyramid, i)
            entries = [(l.entry(t)[0], l.entry(t)[1] + d.get(t)) for t in row]
            for x, y in itertools.combinations(range(len(row)), 2):
                if entries[x] == entries[y]:
                    report["violations"].append({
                        "family": "critical",
                        "indices": {},
                        "shift": d.key(),
                        "detail": f"equal entries at {tuple(row[x])}, {tuple(row[y])}",
                    })
                    report["families"]["critical"] = "fail"
                    return report
    contexts = [
        ActionContext(window, generic_instantiate(l.classes(), seed0 + k))
        for k in range(instantiations)
    ]
    for fam, idx, terms, profile, _ in _relation_table(l.pyramid, budget):
        if report["families"].setdefault(fam, "pass") == "fail" and max_violations:
            continue
        margins = dict(profile)
        if any(m > radius for m in margins.values()):
            raise WindowOverflowError(
                f"window radius {radius} is too small for relation family {fam}"
            )
        eligible = [
            pos for pos, d in enumerate(members)
            if all(abs(d.get(t)) <= radius - margins.get(t.i, 0) for t in window.free)
        ]
        failing = next(
            ((pos, acc) for ctx in contexts for pos in eligible
             if (acc := _residual(ctx, terms, pos))),
            None,
        )
        if failing is None:
            continue
        pos, acc = failing
        report["families"][fam] = "fail"
        report["violations"].append({
            "family": fam,
            "indices": dict(idx),
            "shift": members[pos].key(),
            "detail": sorted((members[p].key(), str(c)) for p, c in acc.items()),
        })
        if max_violations and len(report["violations"]) >= max_violations:
            return report
    return report


def gl_relations_hold(f, depth: int) -> bool:
    """[E_ab, E_cd] v = delta_bc E_ad v - delta_da E_cb v for every shift v
    of depth <= `depth` of the evaluation factor `f`: its carrier is a gl_n
    module there."""
    idx = range(1, f.n + 1)
    for v in f.deltas(depth):
        img = {(a, b): f.E(a, b, {v: 1}) for a in idx for b in idx}
        for a, b, c, d in itertools.product(idx, repeat=4):
            if _combine([(1, f.E(a, b, img[c, d]).items()), (-1, f.E(c, d, img[a, b]).items()),
                         (-(b == c), img[a, d].items()), (int(d == a), img[c, b].items())]):
                return False
    return True


def reference_walk_order(window, word, pos: int) -> int:
    """The least sum of z - h over the walks of support word `word` (ladder
    letters (family, row) in the order they act) from window member pos
    that leave the members and end on one, at most 1 (also when there is no
    such walk): every choice of pivots enumerated, with no memo.

    A step moves pivot j of its letter's row one step up (e) or down (f);
    its z is 1 when j's entry equals an entry of the adjacent row (r + 1
    for e, r - 1 for f), and its h counts the other entries of row r equal
    to j's, both read off the seed's entries plus the current coordinates.
    Members are the coordinates in `window.at`, so a walk must stay in the
    window's box: only positions at least len(word) inside it compare.
    """
    pyramid, seed, slot = window.seed.pyramid, window.seed, window.slot
    rows = [row_indices(pyramid, r) for r in range(pyramid.n + 1)]

    def entries(coords, r):
        return [(seed.entry(t)[0], seed.entry(t)[1] + (coords[slot[t]] if t in slot else 0))
                for t in rows[r]]

    best = 1
    for pivots in itertools.product(*(range(len(rows[r])) for _, r in word)):
        coords, total, left = window.coords[pos], 0, False
        for (fam, r), j in zip(word, pivots):
            row = entries(coords, r)
            adjacent = entries(coords, r + 1 if fam == "e" else r - 1)
            total += (row[j] in adjacent) - (row.count(row[j]) - 1)
            moved = list(coords)
            moved[slot[rows[r][j]]] += 1 if fam == "e" else -1
            coords = tuple(moved)
            left = left or coords not in window.at
        if left and coords in window.at:
            best = min(best, total)
    return best


def reference_row_entries(row: list, coords: tuple) -> list:
    """The entries (class, seed offset + coordinate) of one `BasisWindow.layout`
    row at the shift with coordinates `coords`."""
    return [(cls, off if k is None else off + coords[k]) for _, k, cls, off in row]


def reference_row_support(row: list, adjacent: list) -> list[int]:
    """The pivots of a row (indices into its entries `row`) whose ladder move
    toward the adjacent row, with entries `adjacent`, has a nonzero
    coefficient: those whose entry equals no adjacent entry, compared as
    lists of entries."""
    adjacent = set(adjacent)
    return [j for j, entry in enumerate(row) if entry not in adjacent]


def reference_supports(window, coords: tuple, letter: tuple) -> list[tuple[int, bool, int]]:
    """Per pivot of the letter's row, in row order: (slot, z, h) at `coords`,
    from the entry lists: z when the pivot is out of `reference_row_support`,
    h the other entries of its row equal to its own."""
    fam, r = letter
    layout = window.layout
    row = reference_row_entries(layout[r], coords)
    adjacent = reference_row_entries(layout[r + 1 if fam == "e" else r - 1], coords)
    held = reference_row_support(row, adjacent)
    return [(k, j not in held, row.count(row[j]) - 1) for j, (_, k, _, _) in enumerate(layout[r])]


def reference_critical_pair(window, coords: tuple, rows) -> tuple | None:
    """The first equal pair (row, x, y) of `rows` at `coords`, x before y in
    row order, from the entry lists: None when there is none."""
    for r in rows:
        row = reference_row_entries(window.layout[r], coords)
        for x, y in itertools.combinations(range(len(row)), 2):
            if row[x] == row[y]:
                return r, window.layout[r][x][0], window.layout[r][y][0]
    return None


def reference_cyclicity(window, start, budget: int) -> set:
    """`cyclicity_probe` placing each target by `window.step` and reading z
    off `_SupportTable.rule`, each row checked by `critical` just before its
    moves: the shifts reached from `start` along moves with z = 0 whose
    target is a member, or the `CriticalityError` of the first member in
    breadth-first order with a critical row, naming the least such row."""
    table = _SupportTable(window.layout)
    ladder_rows = range(1, window.seed.pyramid.n) if budget >= 1 else ()
    frontier = [window.position(start)]
    reached = set(frontier)
    while frontier:
        nxt = []
        for p in frontier:
            coords = window.coords[p]
            for r in ladder_rows:
                if table.critical(coords, (r,)) is not None:
                    raise CriticalityError(
                        f"coincident entries in row {r} at shift {window.member(p)!r}"
                    )
                for fam, step in (("e", 1), ("f", -1)):
                    for k, z, _ in table.rule(coords, (fam, r)):
                        q = None if z else window.step(p, k, step)
                        if q is not None and q >= 0 and q not in reached:
                            reached.add(q)
                            nxt.append(q)
        frontier = nxt
    return {window.member(p) for p in reached}


def relation_table_digest(pyramid: Pyramid, budgets) -> str:
    """The sha256 of the oracle's relation tables at each budget, in order.

    Each case is hashed in a form that fixes everything the oracle reads:
    its family, its indices in order, its signed terms as a sorted multiset,
    its row margins and its sorted support words.  The order of the terms
    inside a case is left out: `_residual` sums them and reports sorted.
    """
    h = hashlib.sha256()
    for budget in budgets:
        for fam, idx, terms, margins, support in _relation_table(pyramid, budget):
            h.update(json.dumps([fam, idx, sorted(terms), margins, sorted(support)]).encode())
            h.update(b"\n")
    return h.hexdigest()


def rel(g, l, strict) -> Relation:
    return Relation(TriIndex(*g), TriIndex(*l), bool(strict))


# The two non-admissible two-edge patterns, minimally embedded in the
# one-column gl_3 pyramid at the middle row.
def bad_pattern_upper() -> RelationSet:
    """Chain through the row above only: (1,2,1) > (1,3,2) >= (1,2,2)."""
    return RelationSet(GL3, [rel((1, 2, 1), (1, 3, 2), True),
                             rel((1, 3, 2), (1, 2, 2), False)])


def bad_pattern_lower() -> RelationSet:
    """Chain through the row below only: (1,2,1) >= (1,1,1) > (1,2,2)."""
    return RelationSet(GL3, [rel((1, 2, 1), (1, 1, 1), False),
                             rel((1, 1, 1), (1, 2, 2), True)])


def diamond_set() -> RelationSet:
    """The admissible 4-edge diamond through both neighbouring rows of gl_3."""
    return RelationSet(GL3, [
        rel((1, 2, 1), (1, 3, 1), True),
        rel((1, 3, 1), (1, 2, 2), False),
        rel((1, 2, 1), (1, 1, 1), False),
        rel((1, 1, 1), (1, 2, 2), True),
    ])


def fan_gl5() -> RelationSet:
    """(1,5,j) >= (1,4,1) for j = 1..5: five top-row entries over one entry."""
    return RelationSet(Pyramid((1, 1, 1, 1, 1)),
                       [rel((1, 5, j), (1, 4, 1), False) for j in range(1, 6)])


def gl2_tableau(top1, top2, low) -> Tableau:
    """Instantiated gl_2 one-column tableau with the given values."""
    from wpimod.tableau import tableau_from_values

    return tableau_from_values(GL2, {
        TriIndex(1, 2, 1): top1,
        TriIndex(1, 2, 2): top2,
        TriIndex(1, 1, 1): low,
    })


def standard_gl2() -> RelationSet:
    return standard_set(GL2)
