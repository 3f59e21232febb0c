"""Relation sets: satisfaction, criticality, reduction, admissibility."""

import itertools
import random
import time

import pytest

from wpimod import (
    Pyramid,
    RelationSet,
    TriIndex,
    all_relations,
    critical_satisfying_tableau,
    decompose,
    is_admissible,
    is_noncritical_set,
    is_pre_admissible,
    is_satisfiable,
    maximal_set,
    noncritical_satisfying_tableau,
    permute,
    reduce_set,
    rr_remove,
    satisfies,
    standard_set,
)
from wpimod import relations
from wpimod.relations import (
    ClosureOrder,
    _arcs,
    _least_chain,
    _least_solution,
    critical_pair,
    has_cross,
    held_relations,
    vertices,
)
from wpimod.tableau import Tableau, is_noncritical, row_indices, tableau_from_values

from helpers import (
    GL2,
    GL3,
    P12,
    _reference_is_admissible,
    _row_relabelings,
    bad_pattern_lower,
    bad_pattern_upper,
    diamond_set,
    fan_gl5,
    gl2_tableau,
    reference_least_solution,
    reference_maximal_set,
    reference_satisfies,
    reference_top_row_loop,
    rel,
    relation_subsets,
    spread_seed,
    try_relation_set,
)


def test_shape_validation():
    with pytest.raises(ValueError):
        RelationSet(GL2, [rel((1, 1, 1), (1, 2, 1), False)])  # weak must descend
    with pytest.raises(ValueError):
        RelationSet(GL2, [rel((1, 2, 1), (1, 1, 1), True)])  # strict must ascend
    with pytest.raises(ValueError):
        RelationSet(P12, [rel((1, 2, 2), (2, 2, 2), False)])  # same top position
    RelationSet(P12, [rel((1, 2, 1), (2, 2, 2), False)])  # distinct top positions


def test_top_row_loop_rejected():
    with pytest.raises(ValueError):
        RelationSet(GL2, [rel((1, 2, 1), (1, 2, 2), False),
                          rel((1, 2, 2), (1, 2, 1), False)])


def test_top_row_loop_matches_the_depth_first_reference():
    """Seeded random sets of top-row edges, with a few edges below the top
    row mixed in: a loop is a positive cycle of the top-row arcs at weight 1."""
    rng = random.Random(36)
    loops = checked = 0
    for rows in [(1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 2), (1, 2, 2)]:
        pyramid = Pyramid(rows)
        top = row_indices(pyramid, pyramid.n)
        pairs = [rel(g, l, False) for g in top for l in top if g.j != l.j]
        below = [r for r in all_relations(pyramid) if r.lesser.i < pyramid.n]
        for _ in range(150):
            edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 7)))
            C = RelationSet._subset(pyramid, edges + rng.sample(below, 2))
            want = reference_top_row_loop(C)
            assert C._has_top_row_loop() == want, (rows, C)
            loops += want
            checked += 1
    assert 0 < loops < checked


def test_vertices_standard_gl2():
    S = standard_set(GL2)
    assert vertices(S) == {TriIndex(1, 2, 1), TriIndex(1, 1, 1), TriIndex(1, 2, 2)}


def test_decompose():
    C = RelationSet(GL3, [rel((1, 2, 1), (1, 1, 1), False),
                          rel((1, 3, 2), (1, 2, 2), False)])
    comps = decompose(C)
    assert len(comps) == 2
    assert sum(len(c) for c in comps) == len(C)
    # a shared triple joins edges into one component
    D = RelationSet(GL2, [rel((1, 2, 1), (1, 1, 1), False),
                          rel((1, 1, 1), (1, 2, 2), True)])
    assert len(decompose(D)) == 1


def test_satisfies():
    S = standard_set(GL2)
    assert satisfies(S, gl2_tableau(2, -1, 0))
    assert not satisfies(S, gl2_tableau(2, -1, -1))  # strict side fails
    assert not satisfies(S, gl2_tableau(2, -1, 3))  # weak side fails
    # empty set: integer links across rows are fine, same-row links are not
    empty = RelationSet(GL2, [])
    assert not satisfies(empty, gl2_tableau(2, -1, 0))
    generic = tableau_from_values(GL2, {
        TriIndex(1, 2, 1): "1/2",
        TriIndex(1, 2, 2): "1/3",
        TriIndex(1, 1, 1): "1/5",
    })
    assert satisfies(empty, generic)


def test_satisfiability():
    bad = RelationSet(GL2, [rel((1, 2, 1), (1, 1, 1), False),
                            rel((1, 1, 1), (1, 2, 1), True)])
    assert not is_satisfiable(bad)
    assert is_satisfiable(standard_set(GL2))


def test_noncriticality_of_sets():
    assert is_noncritical_set(standard_set(GL2))
    assert is_noncritical_set(standard_set(P12))
    # two lower entries under one upper entry can all be equated
    C = RelationSet(GL3, [rel((1, 3, 1), (1, 2, 1), False),
                          rel((1, 3, 1), (1, 2, 2), False)])
    assert not is_noncritical_set(C)
    assert is_noncritical_set(RelationSet(GL2, []))
    # a weak top-row edge alone permits equality
    assert not is_noncritical_set(
        RelationSet(GL2, [rel((1, 2, 1), (1, 2, 2), False)])
    )


def test_critical_satisfying_tableau():
    C = RelationSet(GL3, [rel((1, 3, 1), (1, 2, 1), False),
                          rel((1, 3, 1), (1, 2, 2), False)])
    w = critical_satisfying_tableau(C)
    assert satisfies(C, w)
    assert not is_noncritical(w)
    assert critical_satisfying_tableau(standard_set(GL2)) is None


def test_critical_satisfying_tableau_rejects_unsatisfiable_set():
    # one component is critical, the other has no solution
    C = RelationSet(GL3, [rel((1, 2, 1), (1, 3, 1), True),
                          rel((1, 3, 1), (1, 2, 1), False),
                          rel((1, 3, 2), (1, 2, 2), False),
                          rel((1, 3, 3), (1, 2, 2), False)])
    with pytest.raises(ValueError, match="relation set is unsatisfiable"):
        critical_satisfying_tableau(C)


def test_noncritical_satisfying_tableau():
    for C in (standard_set(GL2), standard_set(P12), diamond_set()):
        l = noncritical_satisfying_tableau(C)
        assert satisfies(C, l)
        assert is_noncritical(l)
    with pytest.raises(ValueError):
        noncritical_satisfying_tableau(
            RelationSet(GL2, [rel((1, 2, 1), (1, 1, 1), False),
                              rel((1, 1, 1), (1, 2, 1), True)])
        )


def _solver_corpus():
    return [*relation_subsets(GL2, 5), *relation_subsets(P12, 5),
            *relation_subsets(GL3, 3)]


def test_least_solution_contract():
    for C in _solver_corpus():
        vs, arcs = vertices(C), _arcs(C)
        x = _least_solution(vs, arcs)
        # a positive cycle is a closed chain through a strict edge
        order = ClosureOrder(C)
        unsat = any(order.gt(v, v) for v in vs)
        assert (x is None) == unsat, C
        if x is None:
            continue
        assert set(x) == vs and all(val >= 0 for val in x.values())
        assert all(x[v] >= x[u] + w for u, v, w in arcs)
        # least: every entry is reached from a zero entry along tight arcs,
        # so any nonnegative solution dominates it
        reached = {v for v in vs if x[v] == 0}
        grew = True
        while grew:
            grew = False
            for u, v, w in arcs:
                if u in reached and v not in reached and x[v] == x[u] + w:
                    reached.add(v)
                    grew = True
        assert reached == vs, C


def _random_system(rng):
    """A seeded difference system: vertices and arcs (u, v, w)."""
    verts = [f"v{k}" for k in range(rng.randint(1, 9))]
    arcs = [
        (rng.choice(verts), rng.choice(verts), rng.randint(-3, 2))
        for _ in range(rng.randint(0, 3 * len(verts)))
    ]
    return verts, arcs


def test_worklist_solver_matches_pass_reference():
    rng = random.Random(32)
    solved = cycles = 0
    for _ in range(3000):
        verts, arcs = _random_system(rng)
        got = _least_solution(verts, arcs)
        assert got == reference_least_solution(verts, arcs), (verts, arcs)
        solved += got is not None
        cycles += got is None
    assert solved > 500 and cycles > 500


def test_worklist_solver_finds_a_long_positive_cycle_at_once():
    # a chain v0 < v1 < ... with its arcs listed backwards takes a pass per
    # vertex in a pass-based solver, V passes over V arcs; the back arc
    # closes a positive cycle, which the worklist meets within one round
    n = 3000
    verts = list(range(n))
    chain = [(k, k + 1, 1) for k in reversed(range(n - 1))]
    start = time.monotonic()
    assert _least_solution(verts, chain + [(n - 1, 0, 1)]) is None
    x = _least_solution(verts, chain)
    assert time.monotonic() - start < 0.5
    assert x == {k: k for k in verts}


def test_noncritical_seed_is_least_solution_per_component():
    checked = 0
    for C in _solver_corpus():
        if not (is_satisfiable(C) and is_noncritical_set(C)):
            continue
        seed = noncritical_satisfying_tableau(C)
        for idx, comp in enumerate(decompose(C)):
            x = _least_solution(vertices(comp), _arcs(comp))
            for v in vertices(comp):
                assert seed.entry(v) == (f"c{idx}", x[v]), C
        checked += 1
    assert checked == 387


def test_every_satisfiable_set_gets_a_noncritical_seed():
    seeded = 0
    for C in _solver_corpus():
        if not is_satisfiable(C):
            with pytest.raises(ValueError, match="^relation set is unsatisfiable$"):
                noncritical_satisfying_tableau(C)
            continue
        seed = noncritical_satisfying_tableau(C)
        assert satisfies(C, seed), C
        for comp in decompose(C):
            vs = sorted(vertices(comp))
            for x, a in enumerate(vs):
                for b in vs[x + 1:]:
                    if a.i == b.i:  # the top row too
                        assert seed.entry(a) != seed.entry(b), (C, a, b)
        seeded += not is_noncritical_set(C)
    assert seeded > 0


def test_critical_seed_is_least_solution_with_the_pair_equated():
    checked = 0
    for C in _solver_corpus():
        if not is_satisfiable(C) or is_noncritical_set(C):
            continue
        a, b = critical_pair(C)
        seed = critical_satisfying_tableau(C)
        for idx, comp in enumerate(decompose(C)):
            vs = vertices(comp)
            arcs = _arcs(comp) + ([(a, b, 0), (b, a, 0)] if a in vs else [])
            x = _least_solution(vs, arcs)
            for v in vs:
                assert seed.entry(v) == (f"c{idx}", x[v]), C
        assert seed.entry(a) == seed.entry(b)
        checked += 1
    assert checked > 0


def test_top_row_fan_gets_consecutive_offsets():
    seed = noncritical_satisfying_tableau(fan_gl5())
    assert [seed.entry(TriIndex(1, 5, j)) for j in range(1, 6)] == [("c0", v) for v in range(5)]
    assert seed.entry(TriIndex(1, 4, 1)) == ("c0", 0)


def test_spread_seed_keeps_satisfaction():
    for C in (standard_set(GL2), standard_set(P12), standard_set(Pyramid((2, 2)))):
        l = spread_seed(C)
        assert satisfies(C, l)
        assert is_noncritical(l)


def test_closure_order():
    S = standard_set(GL3)
    order = ClosureOrder(S)
    assert order.gt(TriIndex(1, 3, 1), TriIndex(1, 3, 2))
    assert order.geq(TriIndex(1, 3, 1), TriIndex(1, 2, 1))
    assert not order.gt(TriIndex(1, 3, 1), TriIndex(1, 2, 1))
    single = RelationSet(GL2, [rel((1, 2, 1), (1, 1, 1), False)])
    o = ClosureOrder(single)
    assert o.geq(TriIndex(1, 2, 1), TriIndex(1, 1, 1))
    assert not o.gt(TriIndex(1, 2, 1), TriIndex(1, 1, 1))


def test_cross_detection():
    pi = Pyramid((1, 1, 1, 1))
    # {(k,i,j) > (k,i+1,t), (k,i+1,s) >= (k,i,r)} with j < r and s < t,
    # joined into one component by a third edge
    C = RelationSet(pi, [rel((1, 2, 1), (1, 3, 3), True),
                         rel((1, 3, 2), (1, 2, 2), False),
                         rel((1, 3, 3), (1, 2, 2), False)])
    (comp,) = decompose(C)
    assert has_cross(comp) is not None
    assert not is_pre_admissible(C)
    for comp in decompose(standard_set(GL3)):
        assert has_cross(comp) is None


def test_pre_admissibility():
    assert is_pre_admissible(standard_set(GL2))
    assert is_pre_admissible(standard_set(P12))
    # order violation: lex-larger triple strictly above lex-smaller one
    C = RelationSet(GL3, [rel((1, 2, 2), (1, 3, 2), True),
                          rel((1, 3, 2), (1, 2, 1), False)])
    assert not is_pre_admissible(C)


def test_reduce():
    S = standard_set(GL2)
    assert reduce_set(S) == S
    # implied top-row relation is dropped
    C = RelationSet(GL2, list(S.edges) + [rel((1, 2, 1), (1, 2, 2), False)])
    assert reduce_set(C) == S
    assert reduce_set(C) == reduce_set(S)
    with pytest.raises(ValueError):
        reduce_set(RelationSet(GL2, [rel((1, 2, 1), (1, 2, 2), False)]))


def test_reduce_idempotent_and_preserving():
    rng = random.Random(5)
    rels = all_relations(P12)
    checked = 0
    while checked < 60:
        combo = rng.sample(rels, rng.randint(0, 4))
        try:
            C = RelationSet(P12, combo)
        except ValueError:
            continue
        if not is_satisfiable(C) or not is_noncritical_set(C):
            continue
        R = reduce_set(C)
        assert reduce_set(R) == R
        l = noncritical_satisfying_tableau(C)
        assert satisfies(R, l)
        checked += 1


def test_rr_remove():
    S = standard_set(GL2)
    out = rr_remove(S, TriIndex(1, 2, 2))
    assert out == RelationSet(GL2, [rel((1, 2, 1), (1, 1, 1), False)])
    assert len(rr_remove(out, TriIndex(1, 2, 1))) == 0
    with pytest.raises(ValueError):
        rr_remove(S, TriIndex(1, 1, 1))  # interior triple is not extremal


def test_is_admissible_examples():
    ok, cert = is_admissible(standard_set(GL2))
    assert ok and cert["reason"] == "admissible"
    ok, cert = is_admissible(standard_set(GL3))
    assert ok
    ok, cert = is_admissible(diamond_set())
    assert ok
    ok, cert = is_admissible(RelationSet(GL2, []))
    assert ok
    for bad in (bad_pattern_upper(), bad_pattern_lower()):
        ok, cert = is_admissible(bad)
        assert not ok
        assert cert["reason"] == "unbridged"


def test_admissibility_permutation_invariance():
    swap = {(1, 1): (1, 2), (1, 2): (1, 1)}
    for C in relation_subsets(GL2, 3):
        sC = permute(C, 2, swap)
        assert is_admissible(C)[0] == is_admissible(sC)[0]


GL4 = Pyramid((1, 1, 1, 1))
GL5 = Pyramid((1, 1, 1, 1, 1))


def test_admissibility_certificate_matches_full_relabeling_search():
    # gl_4 sets that pass only under a 2-, 3- or 4-cycle of the top row
    gl4 = [
        RelationSet(GL4, [rel((1, 3, 1), (1, 4, 3), True),
                          rel((1, 4, 4), (1, 3, 1), False)]),
        RelationSet(GL4, [rel((1, 3, 2), (1, 4, 2), True),
                          rel((1, 4, 4), (1, 3, 2), False)]),
        RelationSet(GL4, [rel((1, 1, 1), (1, 2, 1), True),
                          rel((1, 3, 1), (1, 4, 1), True),
                          rel((1, 4, 4), (1, 3, 1), False)]),
    ]
    for C in gl4:
        assert "relabeling" in _reference_is_admissible(C)[1]
    for C in [*relation_subsets(GL2, 5), *relation_subsets(P12, 5),
              *relation_subsets(GL3, 3), *gl4]:
        assert is_admissible(C) == _reference_is_admissible(C), C


def _crosses(upper, lower):
    return any(x == y for x, y in zip(upper[2], lower[1]))


def _reference_least_chain(rows):
    """The first tuple of the full product with no adjacent rows crossing."""
    for chain in itertools.product(*rows):
        if not any(_crosses(a, b) for a, b in zip(chain, chain[1:])):
            return chain
    return None


def _greedy_chain(rows):
    """Each row's first entry that the row above does not cross: no backing up."""
    chain = []
    for row in rows:
        entry = next((e for e in row if not chain or not _crosses(chain[-1], e)), None)
        if entry is None:
            return None
        chain.append(entry)
    return tuple(chain)


def test_least_chain_is_the_first_passing_product_tuple():
    """On seeded rows of 0-4 sorted images with halves of width 0-2 over
    {0, 1}, `_least_chain` meets the first passing tuple of the product,
    also where a greedy row-by-row choice does not."""
    rng = random.Random(45)

    def halves():
        return tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))

    backs_up = 0
    for _ in range(3000):
        rows = [
            [(im, halves(), halves()) for im in sorted(rng.sample(range(8), rng.randint(0, 4)))]
            for _ in range(rng.randint(1, 4))
        ]
        expected = _reference_least_chain(rows)
        assert _least_chain(rows) == expected, rows
        backs_up += _greedy_chain(rows) != expected
    assert backs_up >= 120


def test_least_chain_searches_each_row_and_halves_once():
    """11 rows of 4 images share one down-half, and the last row crosses
    each of them: an unmemoized search visits 4^11 partial chains, seconds
    where the memoized one takes microseconds, and still ends, so a lost
    memo fails the bound rather than hanging."""
    rows = [[(im, (1,), (0,)) for im in range(4)] for _ in range(11)]
    rows.append([(0, (0,), ())])
    start = time.perf_counter()
    assert _least_chain(rows) is None
    assert time.perf_counter() - start < 0.5


def _noncritical_sets(pi, edges, count, seed=7):
    """`count` seeded satisfiable noncritical sets of `edges` edges on pi."""
    rng = random.Random(seed)
    rels = all_relations(pi)
    out = []
    while len(out) < count:
        try:
            C = RelationSet(pi, rng.sample(rels, edges))
        except ValueError:
            continue  # top-row loop
        if is_satisfiable(C) and is_noncritical_set(C):
            out.append(C)
    return out


def test_chain_search_matches_full_relabeling_search():
    # the least relabeling that passes on the other conditions puts the weak
    # top-row edge (1,3,3) >= (1,3,2) on one position, which no image may do
    top_row_apart = RelationSet(Pyramid((1, 1, 2)), [
        rel((1, 2, 1), (1, 3, 2), True), rel((1, 2, 2), (1, 3, 1), True),
        rel((1, 3, 3), (1, 2, 1), False), rel((1, 3, 3), (1, 3, 2), False),
        rel((2, 3, 3), (1, 2, 2), False)])
    relabeled = 0
    for C in [*_noncritical_sets(GL4, 4, 40), *_noncritical_sets(GL4, 6, 40),
              *_noncritical_sets(Pyramid((1, 2, 2)), 4, 8), top_row_apart]:
        expected = _reference_is_admissible(C)
        assert is_admissible(C) == expected, C
        relabeled += "relabeling" in expected[1]
    assert relabeled > 0


def test_chain_search_matches_product_search_on_larger_pyramids():
    # the full product has 34,560 images on gl_5 and on (2,2,2); the product
    # over the support is the search the chain replaces
    relabeled = 0
    for C in [*_noncritical_sets(GL5, 4, 12), *_noncritical_sets(GL5, 6, 3),
              *_noncritical_sets(Pyramid((2, 2, 2)), 3, 15),
              *_noncritical_sets(Pyramid((1, 2, 2)), 6, 15)]:
        expected = _reference_is_admissible(C, vertices(C))
        assert is_admissible(C) == expected, C
        relabeled += "relabeling" in expected[1]
    assert relabeled > 0


def test_top_row_five_cycle_certificate():
    # passes only once the whole top row of gl_5 is rotated
    C = RelationSet(GL5, [rel((1, 2, 1), (1, 3, 3), True),
                          rel((1, 3, 1), (1, 4, 4), True),
                          rel((1, 3, 2), (1, 4, 2), True),
                          rel((1, 3, 3), (1, 4, 1), True),
                          rel((1, 4, 1), (1, 5, 1), True),
                          rel((1, 5, 5), (1, 4, 1), False)])
    ok, cert = is_admissible(C)
    assert ok
    assert cert["relabeling"] == {
        5: [((1, 1), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (1, 4)),
            ((1, 4), (1, 5)), ((1, 5), (1, 1))],
    }
    assert (ok, cert) == _reference_is_admissible(C)


def test_six_edge_gl6_set_decided_quickly():
    # 172,800 images of its triples; the product search took over 30 s
    C = RelationSet(Pyramid((1,) * 6), [rel((1, 4, 1), (1, 5, 1), True),
                                        rel((1, 5, 1), (1, 6, 1), True),
                                        rel((1, 5, 3), (1, 6, 5), True),
                                        rel((1, 5, 4), (1, 4, 4), False),
                                        rel((1, 6, 2), (1, 5, 2), False),
                                        rel((1, 6, 5), (1, 5, 5), False)])
    start = time.monotonic()
    ok, cert = is_admissible(C)
    assert time.monotonic() - start < 0.5
    assert (ok, cert) == (False, {"reason": "unbridged",
                                  "witness": (TriIndex(1, 5, 3), TriIndex(1, 5, 5))})


@pytest.mark.parametrize("pi, edges", [
    (Pyramid((1, 1, 1, 1, 1)), [((1, 3, 1), (1, 4, 2), True),
                                ((1, 4, 2), (1, 3, 2), False)]),
    (Pyramid((2, 2, 2)), [((1, 2, 1), (1, 3, 2), True),
                          ((1, 3, 2), (1, 2, 2), False)]),
])
def test_two_edge_unbridged_sets_decided_quickly(pi, edges):
    C = RelationSet(pi, [rel(*e) for e in edges])
    start = time.monotonic()
    ok, cert = is_admissible(C)
    assert time.monotonic() - start < 0.5
    assert not ok and cert["reason"] == "unbridged"


def test_permute_validation():
    S = standard_set(GL2)
    assert permute(S, 2, {}) == S
    swap = {(1, 1): (1, 2), (1, 2): (1, 1)}
    assert permute(permute(S, 2, swap), 2, swap) == S
    with pytest.raises(ValueError):
        permute(S, 2, {(1, 1): (1, 2)})


def test_maximal_set_gl2():
    l = gl2_tableau(2, -1, 0)
    M = maximal_set(l)
    assert reduce_set(M) == reduce_set(standard_set(GL2))
    # every held relation is implied by the maximal set
    order = ClosureOrder(M)
    for e in held_relations(l):
        assert (order.gt if e.strict else order.geq)(e.greater, e.lesser)
    assert satisfies(M, l)


def test_maximal_set_rejects_unforceable_links():
    # low entry above both top entries: nothing can keep the top entries
    # apart in a satisfying tableau, so no noncritical set captures the links
    with pytest.raises(ValueError):
        maximal_set(gl2_tableau(2, -1, 5))
    with pytest.raises(ValueError):
        maximal_set(gl2_tableau(2, 2, 0))  # equal top entries are critical


def test_unsatisfiable_set_is_not_pre_admissible():
    C = RelationSet(GL3, [rel((1, 2, 1), (1, 3, 1), True),
                          rel((1, 3, 1), (1, 2, 1), False)])
    assert not is_satisfiable(C)
    assert is_noncritical_set(C)  # vacuously: nothing satisfies C
    assert not is_pre_admissible(C)
    with pytest.raises(ValueError, match="unsatisfiable"):
        reduce_set(C)


def _random_gl4_sets(count, seed=23):
    rng = random.Random(seed)
    rels = all_relations(GL4)
    out = []
    while len(out) < count:
        try:
            out.append(RelationSet(GL4, rng.sample(rels, rng.randint(2, 7))))
        except ValueError:
            continue  # top-row loop
    return out


def _contract_corpus():
    return [*relation_subsets(GL2, 5), *relation_subsets(P12, 5),
            *relation_subsets(GL3, 4), *_random_gl4_sets(400)]


def _reference_critical_pair(C):
    """The first same-row pair that the solver can still equate, per component."""
    for comp in decompose(C):
        vs, arcs = sorted(vertices(comp)), _arcs(comp)
        if _least_solution(vs, arcs) is None:
            continue
        for x, a in enumerate(vs):
            for b in vs[x + 1:]:
                equal = arcs + [(a, b, 0), (b, a, 0)]
                if a.i == b.i and _least_solution(vs, equal) is not None:
                    return (a, b)
    return None


def test_critical_pair_matches_solver_probe():
    kinds = {"critical": 0, "noncritical": 0, "unsatisfiable": 0}
    for C in _contract_corpus():
        pair = critical_pair(C)
        assert pair == _reference_critical_pair(C), C
        if not is_satisfiable(C):
            kinds["unsatisfiable"] += 1
        else:
            kinds["critical" if pair else "noncritical"] += 1
    assert all(kinds.values()), kinds


def test_reduce_set_is_transitive_reduction():
    checked = 0
    for C in _contract_corpus():
        if not (is_satisfiable(C) and is_noncritical_set(C)):
            continue
        R = reduce_set(C)
        assert R.edges <= C.edges, C
        full, red = ClosureOrder(C), ClosureOrder(R)
        for a in vertices(C):
            for b in vertices(C):
                assert full.geq(a, b) == red.geq(a, b), (C, a, b)
                assert full.gt(a, b) == red.gt(a, b), (C, a, b)
        for e in R.edges:
            rest = ClosureOrder(RelationSet(C.pyramid, R.edges - {e}))
            implied = rest.gt if e.strict else rest.geq
            assert not implied(e.greater, e.lesser), (C, e)
        checked += 1
    assert checked == 844


def _count_closure_orders(monkeypatch):
    """The sets every ClosureOrder is built on from now on, in build order."""
    built = []
    init = ClosureOrder.__init__

    def counting_init(self, C):
        built.append(C)
        init(self, C)

    monkeypatch.setattr(ClosureOrder, "__init__", counting_init)
    return built


def test_is_admissible_builds_one_closure_per_component(monkeypatch):
    # three components, 144 images, none of which is bridged: the chain search
    # reads every image off the set's own closures, built once
    C = RelationSet(GL4, [rel((1, 2, 2), (1, 1, 1), False),
                          rel((1, 3, 2), (1, 4, 3), True),
                          rel((1, 4, 3), (1, 3, 3), False),
                          rel((1, 4, 4), (1, 3, 1), False)])
    components = len(decompose(C))
    assert components == 3
    assert sum(1 for _ in _row_relabelings(GL4, vertices(C))) == 144

    def no_permute(*args):
        raise AssertionError("is_admissible relabels through permute")

    monkeypatch.setattr(relations, "permute", no_permute)
    built = _count_closure_orders(monkeypatch)
    ok, cert = is_admissible(C)
    assert not ok and cert["reason"] == "unbridged"
    assert len(built) == components


def _reversed_interlacing(n):
    """(1,n,j+1) >= (1,n-1,j) > (1,n,j) on the one-column gl_n pyramid: every
    triple of the top two rows is related, so the top row has n! images."""
    return RelationSet(Pyramid((1,) * n), [
        r for j in range(1, n)
        for r in (rel((1, n, j + 1), (1, n - 1, j), False), rel((1, n - 1, j), (1, n, j), True))
    ])


def test_row_images_past_the_bound_are_refused(monkeypatch):
    # gl_8's top row has 8! = 40320 images, under the bound: they are listed
    # and searched, and none passes
    ok, cert = is_admissible(_reversed_interlacing(8))
    assert not ok and cert["reason"] == "order"
    # on gl_6, row 5 has 5! = 120 images and row 6 has 720
    monkeypatch.setattr(relations, "MAX_ROW_IMAGES", 100)
    with pytest.raises(ValueError, match="^row 5 has 120 relabelings of its related triples, "
                                         "more than 100$"):
        is_admissible(_reversed_interlacing(6))


def test_maximal_set_checks_criticality_once(monkeypatch):
    l = spread_seed(standard_set(GL3))
    H = RelationSet(GL3, held_relations(l))
    components = len(decompose(H))
    assert components >= 1
    built = _count_closure_orders(monkeypatch)
    maximal_set(l)
    # one closure per component serves the critical check and the reduction
    assert len(built) == components


def _corpus_tableau(pi, rng):
    """A random tableau on pi whose entries share a few classes.

    Half the rows draw distinct offsets, so the corpus reaches past the
    same-row scan: to noncritical, critical and unforceable held sets.
    """
    entries = {}
    classes = ("a", "b", "c")[: rng.randint(1, 3)]
    for i in range(1, pi.n + 1):
        row = row_indices(pi, i)
        if rng.random() < 0.5:
            offsets = rng.sample(range(-4, 5), len(row))
        else:
            offsets = [rng.randint(-2, 2) for _ in row]
        for t, off in zip(row, offsets):
            entries[t] = (rng.choice(classes), off)
    return Tableau(pi, entries)


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def test_maximal_set_matches_the_reference_pipeline():
    rng = random.Random(30)
    pyramids = [Pyramid((1,) * n) for n in range(2, 6)] + [
        Pyramid(rows) for rows in ((1, 2), (2, 2), (1, 1, 2), (1, 2, 2))
    ]
    kinds = {}
    for pi in pyramids:
        for _ in range(500):
            l = _corpus_tableau(pi, rng)
            got = _outcome(lambda: maximal_set(l))
            assert got == _outcome(lambda: reference_maximal_set(l)), l.entries
            kind = got if isinstance(got, str) else "set"
            kinds[kind] = kinds.get(kind, 0) + 1
    # every outcome: sets, critical tableaux, critical held sets, unforceable links
    assert len(kinds) == 4 and min(kinds.values()) >= 20, kinds


def test_satisfies_matches_the_pair_scan():
    rng = random.Random(31)
    verdicts = set()
    for pi in (GL3, GL4, P12, Pyramid((1, 2, 2))):
        rels = all_relations(pi)
        for _ in range(200):
            C = try_relation_set(pi, rng.sample(rels, rng.randint(0, 5)))
            if C is None:
                continue
            l = _corpus_tableau(pi, rng)
            verdict = satisfies(C, l)
            assert verdict == reference_satisfies(C, l), (C, l.entries)
            verdicts.add(verdict)
        for _ in range(100):  # tableaux that satisfy their held edges
            l = _corpus_tableau(pi, rng)
            held = held_relations(l)
            C = try_relation_set(pi, rng.sample(held, min(len(held), rng.randint(1, 6))))
            if C is not None:
                verdict = satisfies(C, l)
                assert verdict == reference_satisfies(C, l), (C, l.entries)
                verdicts.add(verdict)
    assert verdicts == {True, False}
