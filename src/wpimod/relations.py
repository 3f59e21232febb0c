"""Relation sets between tableau triples, and their decision procedures.

A relation set is a digraph on triples (k, i, j) with strictness flags.  Weak
edges run from a row to the row below (or within the top row); strict edges run
from a row to the row above.  The procedures here decide satisfaction,
noncriticality, pre-admissibility, admissibility (with certificates), compute
the unique reduced representative, remove extremal triples, and extract the
maximal set of relations held by a tableau.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .pyramid import Pyramid
from .tableau import (
    INDEX_MEMO_SIZE,
    Tableau,
    TriIndex,
    all_indices,
    row_indices,
    triple_from_json,
    valid_index,
)


class Relation(NamedTuple):
    greater: TriIndex
    lesser: TriIndex
    strict: bool


def _relation_shape_ok(pi: Pyramid, rel: Relation) -> bool:
    g, l = rel.greater, rel.lesser
    if not (valid_index(pi, g) and valid_index(pi, l)):
        return False
    if rel.strict:
        # strict edges climb one row
        return g.i == l.i - 1 and 2 <= l.i <= pi.n
    if g.i == pi.n and l.i == pi.n:
        return g.j != l.j
    return g.i == l.i + 1 and 2 <= g.i <= pi.n


class RelationSet:
    """A loop-free subset of the allowed relation patterns."""

    __slots__ = ("pyramid", "edges")

    def __init__(self, pyramid: Pyramid, edges):
        self._keep(pyramid, [
            Relation(TriIndex(*e.greater), TriIndex(*e.lesser), bool(e.strict)) for e in edges
        ])

    def _keep(self, pyramid: Pyramid, rels: list[Relation]) -> None:
        """Check `rels`, `Relation`s of `TriIndex`es and bools, in order, and
        keep them: each must be an allowed pattern, and no top-row loop."""
        for rel in rels:
            if not _relation_shape_ok(pyramid, rel):
                raise ValueError(f"relation {rel} is not an allowed pattern")
        self.pyramid = pyramid
        self.edges = frozenset(rels)
        if self._has_top_row_loop():
            raise ValueError("relation set contains a top-row loop")

    @classmethod
    def _subset(cls, pyramid: Pyramid, edges) -> "RelationSet":
        """The set of `edges` drawn from a validated set, unchecked: a subset of
        a loop-free set of allowed edges is one too."""
        C = object.__new__(cls)
        C.pyramid = pyramid
        C.edges = frozenset(edges)
        return C

    def _has_top_row_loop(self) -> bool:
        """Whether the top-row edges, all weak, close a cycle: exactly a
        positive cycle of their arcs at weight 1, which `_least_solution`
        reports as infeasible.  Most sets have no top-row edge, and skip it."""
        n = self.pyramid.n
        arcs = [(e.greater, e.lesser, 1) for e in self.edges if e.greater.i == e.lesser.i == n]
        return bool(arcs) and _least_solution({v for a in arcs for v in a[:2]}, arcs) is None

    def sorted_edges(self) -> list[Relation]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelationSet)
            and self.pyramid == other.pyramid
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.pyramid, self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        parts = [
            f"{tuple(e.greater)}{'>' if e.strict else '>='}{tuple(e.lesser)}"
            for e in self.sorted_edges()
        ]
        return "RelationSet{" + ", ".join(parts) + "}"

    def to_json(self) -> dict:
        return {
            "edges": [
                {
                    "greater": {"k": e.greater.k, "i": e.greater.i, "j": e.greater.j},
                    "lesser": {"k": e.lesser.k, "i": e.lesser.i, "j": e.lesser.j},
                    "strict": e.strict,
                }
                for e in self.sorted_edges()
            ]
        }

    @classmethod
    def from_json(cls, pi: Pyramid, obj: dict) -> "RelationSet":
        """The set of the "edges" array; each relation is built once, from
        triples and a "strict" flag whose JSON types are checked."""
        edges = []
        for e in obj["edges"]:
            if type(e["strict"]) is not bool:
                raise ValueError('"strict" must be a JSON boolean')
            edges.append(Relation(
                triple_from_json(e["greater"]), triple_from_json(e["lesser"]), e["strict"]
            ))
        C = object.__new__(cls)
        C._keep(pi, edges)
        return C


def vertices(C: RelationSet) -> set[TriIndex]:
    out = set()
    for e in C.edges:
        out.add(e.greater)
        out.add(e.lesser)
    return out


def _roots(C: RelationSet) -> dict[TriIndex, TriIndex]:
    """Each involved triple's component representative, by one union-find."""
    parent: dict[TriIndex, TriIndex] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in C.edges:
        ra = find(parent.setdefault(e.greater, e.greater))
        rb = find(parent.setdefault(e.lesser, e.lesser))
        if ra != rb:
            parent[ra] = rb
    return {v: find(v) for v in parent}


def decompose(C: RelationSet) -> list[RelationSet]:
    """Split into connected components, ordered by least triple."""
    root = _roots(C)
    groups: dict[TriIndex, list[Relation]] = {}
    for e in C.edges:
        groups.setdefault(root[e.greater], []).append(e)
    comps = [RelationSet._subset(C.pyramid, es) for es in groups.values()]
    comps.sort(key=lambda c: min(vertices(c)))
    return comps


class ClosureOrder:
    """Reachability along relation chains, with strictness tracking."""

    def __init__(self, C: RelationSet):
        # best[a][b] = 1 if some chain a -> b contains a strict edge,
        # 0 if only weak chains exist, absent if unreachable.
        succ: dict[TriIndex, list[tuple[TriIndex, int]]] = {}
        for e in C.edges:
            succ.setdefault(e.greater, []).append((e.lesser, 1 if e.strict else 0))
        best: dict[TriIndex, dict[TriIndex, int]] = {v: {} for v in vertices(C)}
        changed = True
        while changed:
            changed = False
            for a in best:
                for b, w in succ.get(a, ()):
                    for tgt, wt in [(b, w)] + [
                        (c, max(w, wc)) for c, wc in best.get(b, {}).items()
                    ]:
                        if best[a].get(tgt, -1) < wt:
                            best[a][tgt] = wt
                            changed = True
        self._best = best

    def geq(self, a: TriIndex, b: TriIndex) -> bool:
        """Some chain of relations leads from a down to b."""
        return b in self._best.get(a, ())

    def gt(self, a: TriIndex, b: TriIndex) -> bool:
        """Some chain from a to b contains a strict relation."""
        return self._best.get(a, {}).get(b, 0) == 1


def _closures(C: RelationSet) -> list[tuple[RelationSet, ClosureOrder]]:
    """Each component of C with its closure order, built once for every phase."""
    return [(comp, ClosureOrder(comp)) for comp in decompose(C)]


def require_same_pyramid(C: RelationSet, l: Tableau) -> None:
    """Raise ValueError, naming both pyramids, unless l is on C's pyramid."""
    if l.pyramid != C.pyramid:
        raise ValueError(f"tableau is on {l.pyramid}, the relations on {C.pyramid}")


def satisfies(C: RelationSet, l: Tableau) -> bool:
    """Edge inequalities hold, and same-row integer links stay inside components.

    Raises ValueError when l is on another pyramid than C.
    """
    require_same_pyramid(C, l)
    entries = l.entries
    for e in C.edges:
        cg, og = entries[e.greater]
        cl, ol = entries[e.lesser]
        if cg != cl or og - ol < (1 if e.strict else 0):
            return False
    root = _roots(C)
    for i in range(1, l.pyramid.n + 1):
        first: dict = {}  # each class's component in the row, from its first entry
        for t in row_indices(l.pyramid, i):
            cls, r = entries[t][0], root.get(t)
            if cls not in first:
                first[cls] = r
            elif r is None or first[cls] != r:
                return False
    return True


def _arcs(C: RelationSet) -> list[tuple[TriIndex, TriIndex, int]]:
    """Arcs (u, v, w) meaning x_v >= x_u + w, one per edge of C."""
    return [(e.lesser, e.greater, 1 if e.strict else 0) for e in C.edges]


def _least_solution(verts, arcs):
    """Least nonnegative integral solution of the arcs (u, v, w): x_v >= x_u + w.

    Longest paths from a virtual source with an arc of weight 0 to each
    vertex (Cormen et al., section 24.4), found by `_relax` from every
    vertex; None when a positive cycle makes the system infeasible.
    """
    x = dict.fromkeys(verts, 0)
    out: dict = {v: [] for v in x}
    for u, v, w in arcs:
        out[u].append((v, w))
    return x if _relax(x, out, list(x)) else None


def _relax(x, out, todo) -> bool:
    """Raise x, in place, to the least solution above it of the arcs
    out[u] = [(v, w), ...], each meaning x_v >= x_u + w; False on a positive
    cycle.  Only arcs that leave a vertex of `todo` may be broken on entry.
    x and out are indexed alike, as dicts over the vertices or lists over
    slots 0..V-1.

    When none of them is broken, x already solves the system and is left as
    it is, with no worklist built: the common case of the single-slot
    re-tightenings in `BasisWindow.points`.  Otherwise `_worklist` raises x.
    """
    for u in todo:
        xu = x[u]
        for v, w in out[u]:
            if xu + w > x[v]:
                return _worklist(x, out, todo)
    return True


def _worklist(x, out, todo) -> bool:
    """`_relax` on a system with a broken arc.

    The vertices whose value rose wait in a FIFO worklist, and each one taken
    from it relaxes its out-arcs (Moore 1959).  A value is set by a chain of
    relaxations; a chain of V arcs repeats a vertex, whose value it raised
    above its own earlier value, so the closed part of the chain is a
    positive cycle.  Without one the chains stay shorter than V, and a vertex
    waits at most once per round of the FIFO, so the worst case is V rounds
    over the E arcs, O(V E).  Started from a solution of a looser system,
    the work follows what the tightening changes.
    """
    n = len(x)
    chain: dict = {}  # arcs in the chain of relaxations that set each value
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


def _symbolic_tableau(pi: Pyramid, entries: dict[TriIndex, tuple]) -> Tableau:
    """The tableau with the given entries and a fresh class g0, g1, ... elsewhere."""
    entries = dict(entries)
    fresh = 0
    for t in all_indices(pi):
        if t not in entries:
            entries[t] = (f"g{fresh}", 0)
            fresh += 1
    return Tableau(pi, entries)


def is_satisfiable(C: RelationSet) -> bool:
    """Some tableau satisfies C (the edge system admits an integral solution)."""
    return _least_solution(vertices(C), _arcs(C)) is not None


def critical_pair(C: RelationSet):
    """A same-row pair of one component that some satisfying tableau can equate.

    Setting a = b closes a positive cycle exactly when a strict chain already
    joins a and b, so the first same-row pair that no strict chain orders is
    returned, or None when the set is noncritical.  A component that nothing
    satisfies is vacuously noncritical and contributes no pair, so callers
    check `is_satisfiable` first.
    """
    return _critical_pair(_closures(C))


def _critical_pair(closures):
    for comp, order in closures:
        vs = sorted(vertices(comp))
        if any(order.gt(v, v) for v in vs):
            continue  # nothing satisfies this component
        for x in range(len(vs)):
            for y in range(x + 1, len(vs)):
                a, b = vs[x], vs[y]
                if a.i == b.i and not (order.gt(a, b) or order.gt(b, a)):
                    return (a, b)
    return None


def is_noncritical_set(C: RelationSet) -> bool:
    """No satisfying tableau equates a same-row pair; see `critical_pair`."""
    return critical_pair(C) is None


def _component_seed(pi: Pyramid, comps: list[RelationSet], extra) -> Tableau:
    """The least offsets of each component's arcs plus the `extra` arcs that
    start in it, component idx in class c{idx}, a fresh class elsewhere.

    `comps` is `decompose(C)`; each caller makes every system solvable.
    """
    entries: dict[TriIndex, tuple] = {}
    for idx, comp in enumerate(comps):
        vs = vertices(comp)
        off = _least_solution(vs, _arcs(comp) + [arc for arc in extra if arc[0] in vs])
        for v in vs:
            entries[v] = (f"c{idx}", off[v])
    return _symbolic_tableau(pi, entries)


def noncritical_satisfying_tableau(C: RelationSet) -> Tableau:
    """A canonical symbolic tableau satisfying C with all same-row entries distinct.

    Component triples share a class; everything else gets its own class.  With
    y the least solution of C's arcs at unit weights, which grows strictly up
    every chain, each row of each component is ordered by (y, triple) and
    consecutive entries are made to differ by a strict arc; every arc then
    increases (y, triple), so the system is solvable whenever C is.  For a
    noncritical C a strict chain already orders each such pair, so the seed is
    C's own least solution.  Raises only when C is unsatisfiable.
    """
    # weak edges never lead down a row and C has no top-row loop, so every
    # cycle holds a strict edge: unit weights are infeasible exactly when C is
    y = _least_solution(vertices(C), [(u, v, 1) for u, v, _ in _arcs(C)])
    if y is None:
        raise ValueError("relation set is unsatisfiable")
    comps = decompose(C)
    extra = []
    for comp in comps:
        rows: dict[int, list[TriIndex]] = {}
        for v in sorted(vertices(comp), key=lambda v: (y[v], v)):
            rows.setdefault(v.i, []).append(v)
        extra += [(u, v, 1) for row in rows.values() for u, v in zip(row, row[1:])]
    return _component_seed(C.pyramid, comps, extra)


def critical_satisfying_tableau(C: RelationSet):
    """A symbolic tableau satisfying C that equates a same-row pair, or None.

    Witnesses set-level criticality: each component takes its least solution,
    and the one holding the pair (a, b) reported by critical_pair takes it
    with a = b added.  Raises when C is unsatisfiable.
    """
    if not is_satisfiable(C):
        raise ValueError("relation set is unsatisfiable")
    closures = _closures(C)
    pair = _critical_pair(closures)
    if pair is None:
        return None
    a, b = pair
    return _component_seed(C.pyramid, [comp for comp, _ in closures], [(a, b, 0), (b, a, 0)])


def has_cross(comp: RelationSet):
    """A strict up-edge and a weak down-edge interleaving positions, if present."""
    for e1 in sorted(comp.edges):
        if not e1.strict:
            continue
        k, i, j = e1.greater
        if e1.lesser.k != k:
            continue
        t = e1.lesser.j
        for e2 in sorted(comp.edges):
            if e2.strict:
                continue
            if e2.greater.k != k or e2.lesser.k != k:
                continue
            if e2.greater.i != i + 1 or e2.lesser.i != i:
                continue
            s, r = e2.greater.j, e2.lesser.j
            if j < r and s < t:
                return (e1, e2)
    return None


def _lex_pair(t: TriIndex) -> tuple[int, int]:
    return (t.k, t.j)


def pre_admissibility_failure(closures):
    """None if the set with these `_closures` is pre-admissible, else (reason, witness)."""
    pair = _critical_pair(closures)
    if pair is not None:
        return ("critical", pair)
    for comp, order in closures:
        vs = sorted(vertices(comp))
        n = comp.pyramid.n
        for a in vs:
            for b in vs:
                if a == b or a.i != b.i:
                    continue
                if a.i < n and order.gt(a, b) and not _lex_pair(a) < _lex_pair(b):
                    return ("order", (a, b))
                if a.i == n and order.geq(a, b) and not _lex_pair(a) < _lex_pair(b):
                    return ("order", (a, b))
        cross = has_cross(comp)
        if cross is not None:
            return ("cross", cross)
    return None


def is_pre_admissible(C: RelationSet) -> bool:
    return is_satisfiable(C) and pre_admissibility_failure(_closures(C)) is None


def adjoining_pairs(comp: RelationSet, order: ClosureOrder) -> list[tuple[TriIndex, TriIndex]]:
    """Same-row comparable pairs below the top row with no triple strictly between."""
    vs = sorted(vertices(comp))
    n = comp.pyramid.n
    out = []
    for a in vs:
        for b in vs:
            if a == b or a.i != b.i or a.i >= n:
                continue
            if not order.gt(a, b):
                continue
            between = any(
                c.i == a.i and c not in (a, b) and order.gt(a, c) and order.gt(c, b)
                for c in vs
            )
            if not between:
                out.append((a, b))
    return out


def _bridge_sets(comp: RelationSet, a: TriIndex, b: TriIndex):
    """The middles a bridge of the same-row pair (a, b) can pass through.

    Returns (ups, downs, covers, lifts): a > m for m in ups and a >= m for m in
    downs, in the rows above and below a; m >= b for m in covers and m > b for
    m in lifts, in the rows above and below b; each list sorted.
    """
    i = a.i
    ups = sorted(
        e.lesser for e in comp.edges if e.strict and e.greater == a and e.lesser.i == i + 1
    )
    downs = sorted(
        e.lesser for e in comp.edges if not e.strict and e.greater == a and e.lesser.i == i - 1
    )
    covers = sorted(
        e.greater for e in comp.edges if not e.strict and e.lesser == b and e.greater.i == i + 1
    )
    lifts = sorted(
        e.greater for e in comp.edges if e.strict and e.lesser == b and e.greater.i == i - 1
    )
    return ups, downs, covers, lifts


def _bridging_witness(comp: RelationSet, a: TriIndex, b: TriIndex):
    """Witness edges certifying the adjoining pair (a, b), or None."""
    ups, downs, covers, lifts = _bridge_sets(comp, a, b)
    # both-rows bridge: a > m1 >= b through the row above and a >= m2 > b below
    m1s = [m for m in ups if m in covers]
    m2s = [m for m in downs if m in lifts]
    if m1s and m2s:
        return {"kind": "diamond", "upper": m1s[0], "lower": m2s[0]}
    # split bridge through the row above with lexicographically ordered middles
    for m1 in ups:
        for m2 in covers:
            if _lex_pair(m1) < _lex_pair(m2):
                return {"kind": "split", "from": m1, "to": m2}
    return None


def _literal_admissible(C: RelationSet, closures=None):
    """Admissibility check with the labels taken at face value.

    `closures` are C's own `_closures`, built here when not given.
    """
    if closures is None:
        closures = _closures(C)
    fail = pre_admissibility_failure(closures)
    if fail is not None:
        reason, witness = fail
        return False, {"reason": reason, "witness": witness}
    witnesses = []
    for comp, order in closures:
        for a, b in adjoining_pairs(comp, order):
            w = _bridging_witness(comp, a, b)
            if w is None:
                return False, {"reason": "unbridged", "witness": (a, b)}
            witnesses.append({"pair": (a, b), **w})
    return True, {"reason": "admissible", "witnesses": witnesses}


# Most images `_row_images` lists for one row: m!/(m - k)! for a row of m
# triples, k of them in the support, so m! when all are (720 on a gl_6 top
# row).  9! keeps every row of gl_9 and under; a row past it is refused
# before any row is listed.
MAX_ROW_IMAGES = 362_880


def _row_images(pi: Pyramid, support=None):
    """Each row's sorted (layer, position) pairs and their images, sorted.

    An image is the tuple of targets of the row's pairs, so the least image is
    the identity.  With no support, every within-row permutation.  With a
    support (a set of triples), one image per injective image of the
    supported pairs of the row, the other pairs taking the leftover targets in
    increasing order: that completion is the least of all images agreeing on
    the support, so the list is the unrestricted one with every image dropped
    that moves the support like an earlier one.  Raises ValueError, before
    any row is listed, when a row has more than MAX_ROW_IMAGES images.
    """
    rows = []
    for i in range(1, pi.n + 1):
        pairs = sorted((t.k, t.j) for t in row_indices(pi, i))
        moved = pairs if support is None else [
            p for p in pairs if TriIndex(p[0], i, p[1]) in support
        ]
        count = math.perm(len(pairs), len(moved))
        if count > MAX_ROW_IMAGES:
            raise ValueError(
                f"row {i} has {count} relabelings of its related triples,"
                f" more than {MAX_ROW_IMAGES}"
            )
        rows.append((pairs, moved))
    out = []
    for pairs, moved in rows:
        images = []
        for perm in itertools.permutations(pairs, len(moved)):
            head = dict(zip(moved, perm))
            rest = iter(sorted(set(pairs) - set(perm)))
            images.append(tuple(head[p] if p in head else next(rest) for p in pairs))
        images.sort()
        out.append((pairs, images))
    return out


def _least_chain(rows):
    """The first tuple of `itertools.product(*rows)` whose adjacent rows do
    not cross, or None.

    Each row lists (image, up, down) entries; two adjacent entries cross when
    the upper one's down-halves and the lower one's up-halves agree at some
    position.  `least(i, above)` is the first completion of rows i.. under an
    entry with down-halves `above`: a depth-first search in list order, so
    the first completion it meets is the least.  It is memoized for the call,
    so each (row, halves above) state is searched once: at most the sum over
    adjacent rows of the products of their entry counts.
    """

    @lru_cache(maxsize=None)
    def least(i, above):
        if i == len(rows):
            return ()
        for entry in rows[i]:
            if all(x != y for x, y in zip(above, entry[1])):
                rest = least(i + 1, entry[2])
                if rest is not None:
                    return (entry, *rest)
        return None

    return least(0, ())


def _least_passing_relabeling(C: RelationSet, closures):
    """The least relabeling under which C meets the labelled conditions, or None.

    `closures` are C's own.  A relabeling maps C's closure orders, adjoining
    pairs and bridge middles onto the image's, so every condition is compiled
    once into a constraint on the images of C's triples, read through `slot`
    (where a triple's image sits in its row's image tuple):
      - one row: the order rule, distinct positions for weak top-row edges,
        and the split bridge of each adjoining pair of row i, read in row i + 1;
      - two adjacent rows: no cross.  A cross needs its strict edge's greater
        triple and its weak edge's lesser one, in row i, on one layer k with
        j < r, and the other two, in row i + 1, on layer k with s < t; each
        row's half of each cross is k when it holds (0 or -1 when not), so two
        images cross exactly when some halves are equal;
      - none: a diamond bridges its pair under every relabeling, and an
        adjoining pair with neither a diamond nor a split candidate is
        bridged under none.
    Each row's fitting images, in increasing order, carry their halves, and
    `_least_chain` finds the least chain of them with no cross.
    """
    n = C.pyramid.n
    rows = _row_images(C.pyramid, vertices(C))
    slot = {
        TriIndex(k, i, j): s
        for i, (pairs, _) in enumerate(rows, 1)
        for s, (k, j) in enumerate(pairs)
    }
    clauses = {i: [] for i in range(1, n + 1)}  # one (p, q) with im[p] < im[q]
    crosses = {i: [] for i in range(n + 1)}  # between rows i and i + 1
    apart = [(slot[e.greater], slot[e.lesser]) for e in C.edges if e.greater.i == e.lesser.i]
    for comp, order in closures:
        vs = sorted(vertices(comp))
        for a in vs:
            for b in vs:
                if a != b and a.i == b.i and (order.geq if a.i == n else order.gt)(a, b):
                    clauses[a.i].append([(slot[a], slot[b])])
        for a, b in adjoining_pairs(comp, order):
            ups, downs, covers, lifts = _bridge_sets(comp, a, b)
            if set(ups) & set(covers) and set(downs) & set(lifts):
                continue
            split = [(slot[m1], slot[m2]) for m1 in ups for m2 in covers if m1 != m2]
            if not split:
                return None
            clauses[a.i + 1].append(split)
        for e1 in (e for e in comp.edges if e.strict):
            i = e1.greater.i
            for e2 in comp.edges:
                if not e2.strict and (e2.greater.i, e2.lesser.i) == (i + 1, i):
                    crosses[i].append((slot[e1.greater], slot[e2.lesser],
                                       slot[e1.lesser], slot[e2.greater]))

    def fits(i, im):
        return all(any(im[p] < im[q] for p, q in clause) for clause in clauses[i]) and (
            i < n or all(im[p][1] != im[q][1] for p, q in apart)
        )

    def down(i, im):  # row i's halves of its crosses with row i + 1
        return tuple(
            im[g][0] if im[g][0] == im[l][0] and im[g][1] < im[l][1] else 0
            for g, l, _, _ in crosses[i]
        )

    def up(i, im):  # row i's halves of its crosses with row i - 1
        return tuple(
            im[l][0] if im[l][0] == im[g][0] and im[g][1] < im[l][1] else -1
            for _, _, l, g in crosses[i - 1]
        )

    chain = _least_chain([
        [(im, up(i, im), down(i, im)) for im in images if fits(i, im)]
        for i, (_, images) in enumerate(rows, 1)
    ])
    if chain is None:
        return None
    return {
        i: dict(zip(pairs, im))
        for i, ((pairs, _), (im, _, _)) in enumerate(zip(rows, chain), 1)
        if im != tuple(pairs)
    }


def is_admissible(C: RelationSet):
    """Combinatorial admissibility verdict with a certificate.

    The generator formulas are symmetric under permuting entries within one
    row, so admissibility is invariant under within-row relabelings; the
    labelled characterization (lexicographic order compatibility and the
    bridging condition) is checked under every relabeling, identity first.
    Only how a relabeling moves the triples of C changes the image, so the
    relabelings searched are the products of the rows' `_row_images`, in
    lexicographic order of the row-by-row images.  A relabeling is a
    row-preserving bijection of triples, so it keeps C critical or
    noncritical; a critical C fails under every relabeling and is rejected
    with its own witness, unsearched.

    Every labelled condition reads one row or two adjacent rows, so the
    relabelings that pass form a chain of constraints: a depth-first search
    over the rows, each row's images in increasing order, meets the least
    passing relabeling of the product order first, the one the product
    enumeration would meet, and memoized on (row, halves of the row above) it
    searches each state once (`_least_chain`).

    Returns (verdict, certificate); a passing certificate carries that least
    relabeling, when it is not the identity; a failing one names the
    identity-labeling obstruction.  Raises ValueError when the search would
    list more than MAX_ROW_IMAGES images of one row (`_row_images`).
    """
    closures = _closures(C)
    if any(order.gt(v, v) for comp, order in closures for v in vertices(comp)):
        return False, {"reason": "unsatisfiable"}
    ok, cert = _literal_admissible(C, closures)
    if ok or cert["reason"] == "critical":
        return ok, cert
    relabeling = _least_passing_relabeling(C, closures)
    if relabeling is None:
        return False, cert
    ok, cert = _literal_admissible(_relabel(C, relabeling))
    assert ok and relabeling, "the row constraints disagree with the labelled conditions"
    cert["relabeling"] = {
        row: sorted((a, b) for a, b in m.items() if a != b)
        for row, m in relabeling.items()
    }
    return True, cert


def _reduced_edges(closures) -> list[Relation]:
    """The edges of the components in `closures` that no detour implies.

    A transitive reduction (Aho, Garey and Ullman 1972) in one pass over each
    component's closure: edge e is redundant when another edge out of
    e.greater continues down to e.lesser, and every such chain stays in e's
    component.  Weak edges descend or stay in the loop-free top row and
    strict edges climb, so every cycle holds a strict edge and a satisfiable
    set has none (e is no detour for itself); and every chain that climbs a
    row holds a strict edge, so a detour for a strict e is strict.
    """
    out = []
    for comp, order in closures:
        succ: dict[TriIndex, list[TriIndex]] = {}
        for f in comp.edges:
            succ.setdefault(f.greater, []).append(f.lesser)
        out += [
            e for e in comp.edges
            if not any(order.geq(m, e.lesser) for m in succ[e.greater])
        ]
    return out


def reduce_set(C: RelationSet) -> RelationSet:
    """The unique reduced set equivalent to a noncritical C (redundant edges
    dropped), from one closure per component (`_reduced_edges`)."""
    if not is_satisfiable(C):
        raise ValueError("relation set is unsatisfiable")
    closures = _closures(C)
    if _critical_pair(closures) is not None:
        raise ValueError("relation set is critical; reduce is undefined")
    return RelationSet._subset(C.pyramid, _reduced_edges(closures))


def is_maximal_triple(C: RelationSet, t: TriIndex) -> bool:
    return t in vertices(C) and all(e.lesser != t for e in C.edges)


def is_minimal_triple(C: RelationSet, t: TriIndex) -> bool:
    return t in vertices(C) and all(e.greater != t for e in C.edges)


def rr_remove(C: RelationSet, t: TriIndex) -> RelationSet:
    """Drop every relation incident to an extremal triple."""
    t = TriIndex(*t)
    if not (is_maximal_triple(C, t) or is_minimal_triple(C, t)):
        raise ValueError(f"triple {tuple(t)} is not extremal")
    return RelationSet._subset(
        C.pyramid, [e for e in C.edges if t not in (e.greater, e.lesser)]
    )


def permute(C: RelationSet, row: int, mapping: dict) -> RelationSet:
    """Relabel the (layer, position) pairs of one row by a bijection."""
    mapping = {tuple(a): tuple(b) for a, b in mapping.items()}
    if sorted(mapping) != sorted(mapping.values()):
        raise ValueError("mapping must be a bijection on (layer, position) pairs")
    if not all(valid_index(C.pyramid, TriIndex(k, row, j)) for k, j in mapping):
        raise ValueError("mapping leaves the valid index set")  # a bijection: values = keys
    return _relabel(C, {row: mapping})


def _relabel(C: RelationSet, relabeling: dict) -> RelationSet:
    """Move every triple of C through a {row: {(k, j): (k2, j2)}} relabeling at once."""
    def move(t: TriIndex) -> TriIndex:
        k2, j2 = relabeling.get(t.i, {}).get((t.k, t.j), (t.k, t.j))
        return TriIndex(k2, t.i, j2)

    return RelationSet(
        C.pyramid,
        [Relation(move(e.greater), move(e.lesser), e.strict) for e in C.edges],
    )


def held_relations(l: Tableau) -> list[Relation]:
    """Every allowed relation whose inequality the tableau satisfies."""
    entries = l.entries
    out = []
    for e in all_relations(l.pyramid):
        cg, og = entries[e.greater]
        cl, ol = entries[e.lesser]
        if cg == cl and og - ol >= (1 if e.strict else 0):
            out.append(e)
    return out


def maximal_set(l: Tableau) -> RelationSet:
    """Reduced representative of the maximal set of relations held by the tableau.

    The held set needs no check: l satisfies it, and with the entries of each
    row distinct it has no top-row loop.  Its closures, one per component,
    serve both the criticality test and the reduction.
    """
    pi, entries = l.pyramid, l.entries
    for i in range(1, pi.n + 1):
        row = [entries[t] for t in row_indices(pi, i)]
        if len(set(row)) < len(row):
            raise ValueError("tableau is critical")
    closures = _closures(RelationSet._subset(pi, held_relations(l)))
    if _critical_pair(closures) is not None:
        raise ValueError(
            "the relations held by the tableau form a critical set; "
            "no noncritical set captures all of its integer links"
        )
    C = RelationSet._subset(pi, _reduced_edges(closures))
    if not satisfies(C, l):
        raise ValueError(
            "tableau holds integer links that no chain of allowed relations connects"
        )
    return C


def standard_set(pi: Pyramid) -> RelationSet:
    """The interlacing pattern: (k,i+1,j) >= (k,i,j) > (k,i+1,j+1)."""
    edges = []
    for i in range(1, pi.n):
        for j in range(1, i + 1):
            for k in range(1, pi.p(j) + 1):
                edges.append(Relation(TriIndex(k, i + 1, j), TriIndex(k, i, j), False))
                edges.append(Relation(TriIndex(k, i, j), TriIndex(k, i + 1, j + 1), True))
    return RelationSet(pi, edges)


@lru_cache(maxsize=INDEX_MEMO_SIZE)
def all_relations(pi: Pyramid) -> tuple[Relation, ...]:
    """The full list of allowed relation patterns for the pyramid, sorted."""
    idx = all_indices(pi)
    out = []
    for a in idx:
        for b in idx:
            if a == b:
                continue
            if a.i == b.i + 1 and b.i <= pi.n - 1:
                out.append(Relation(a, b, False))
            if a.i == b.i - 1:
                out.append(Relation(a, b, True))
            if a.i == pi.n and b.i == pi.n and a.j != b.j:
                out.append(Relation(a, b, False))
    return tuple(sorted(out))
