"""Basis windows, generator actions, the relation verifier, irreducibility."""

import re
from fractions import Fraction

import pytest

from wpimod import (
    Pyramid,
    RelationSet,
    TableauDelta,
    TriIndex,
    all_indices,
    cyclicity_probe,
    enumerate_basis,
    generic_instantiate,
    is_irreducible,
    report_passes,
    standard_set,
    tableau_from_values,
    verify_defining_relations,
)
from wpimod.exact_arith import CriticalityError, GenericAssignment
from wpimod.gt_module import (
    CLIP,
    STRICT,
    ActionContext,
    WindowOverflowError,
    _relation_cases,
    act_A,
    act_BC_at,
)
from wpimod.relations import (
    critical_satisfying_tableau,
    maximal_set,
    satisfies,
)
from wpimod.tableau import shift

from helpers import GL2, GL3, gl2_tableau, rel, spread_seed, standard_gl2


def unit(t, v):
    return TableauDelta.unit(TriIndex(*t), v)


def literal_assignment(l):
    """Assignment whose class values reproduce the tableau's literal entries."""
    values = {}
    for t in all_indices(l.pyramid):
        cls, off = l.entry(t)
        values[cls] = l.value(t) - off
    return GenericAssignment(values, 0)


def generic_gl2_seed():
    return tableau_from_values(GL2, {
        TriIndex(1, 2, 1): Fraction(1, 2),
        TriIndex(1, 2, 2): Fraction(1, 3),
        TriIndex(1, 1, 1): Fraction(1, 5),
    })


def reducible_gl3_pair():
    """A satisfiable noncritical set strictly weaker than the maximal one.

    The seed links the low entry to the chain only from above, so the held
    strict relation (1,1,1)>(1,2,2) is not implied.
    """
    l = tableau_from_values(GL3, {
        TriIndex(1, 3, 1): 7,
        TriIndex(1, 3, 2): 4,
        TriIndex(1, 3, 3): Fraction(1, 3),
        TriIndex(1, 2, 1): 6,
        TriIndex(1, 2, 2): 2,
        TriIndex(1, 1, 1): 5,
    })
    C = RelationSet(GL3, [
        rel((1, 3, 1), (1, 2, 1), False),
        rel((1, 2, 1), (1, 3, 2), True),
        rel((1, 3, 2), (1, 2, 2), False),
        rel((1, 2, 1), (1, 1, 1), False),
    ])
    return C, l


def test_enumerate_basis_standard_gl2():
    S = standard_gl2()
    w = enumerate_basis(S, gl2_tableau(2, -1, 1), 2)
    assert len(w.members) == 3
    assert {d.get(TriIndex(1, 1, 1)) for d in w.members} == {-1, 0, 1}
    assert TableauDelta() in w


def test_enumerate_basis_empty_set_radius_zero():
    w = enumerate_basis(RelationSet(GL2, []), generic_gl2_seed(), 0)
    assert w.members == [TableauDelta()]


def test_enumerate_basis_radius_monotone():
    S = standard_gl2()
    l = gl2_tableau(2, -1, 1)
    prev = set()
    for r in range(4):
        cur = set(enumerate_basis(S, l, r).members)
        assert prev <= cur
        prev = cur


def test_enumerate_basis_rejects_violating_seed():
    with pytest.raises(ValueError):
        enumerate_basis(standard_gl2(), gl2_tableau(2, -1, 3), 2)


def test_act_A_eigenvalues():
    S = standard_gl2()
    l = gl2_tableau(2, -1, 1)
    w = enumerate_basis(S, l, 1)
    eig = act_A(w, 1, literal_assignment(l))
    assert eig[TableauDelta()].coeffs == (1, 1)  # u + 1
    assert eig[unit((1, 1, 1), -1)].coeffs == (0, 1)  # u
    top = act_A(w, 2, literal_assignment(l))
    for p in top.values():
        assert p.degree == 2
        assert p.coeffs[-1] == 1
        # row 2 is frozen: one shared eigenvalue (u+2)(u-1)
        assert p.coeffs == (-2, 1, 1)


def test_gating_blocks_forbidden_lowering():
    S = standard_gl2()
    l = gl2_tableau(2, -1, 0)  # low entry at the strict boundary
    w = enumerate_basis(S, l, 1)
    ctx = ActionContext(w, generic_instantiate(l.classes(), 3))
    out = ctx.apply(("f", 1, 1), {TableauDelta(): Fraction(1)})
    assert out == {}
    low = act_BC_at(w, 1, Fraction(9), "C", {TableauDelta(): Fraction(1)},
                    generic_instantiate(l.classes(), 3))
    assert low == {}


def test_act_BC_raising_within_window():
    S = standard_gl2()
    l = gl2_tableau(2, -1, 0)
    w = enumerate_basis(S, l, 2)
    up = act_BC_at(w, 1, Fraction(9), "B", {TableauDelta(): Fraction(1)},
                   generic_instantiate(l.classes(), 3))
    assert set(up) == {unit((1, 1, 1), 1)}


def test_window_overflow_is_an_error_not_zero():
    S = standard_gl2()
    l = gl2_tableau(2, -1, 1)
    w = enumerate_basis(S, l, 0)  # valid raise target lies outside
    ctx = ActionContext(w, generic_instantiate(l.classes(), 3))
    with pytest.raises(WindowOverflowError):
        ctx.apply(("e", 1, 1), {TableauDelta(): Fraction(1)})


def _image(fn):
    try:
        return fn()
    except WindowOverflowError:
        return "overflow"


def test_shared_context_matches_fresh_context_per_call():
    """Cached columns reproduce every oracle word built with no cache at all."""
    S = standard_set(GL3)
    seed = spread_seed(S)
    window = enumerate_basis(S, seed, 2)
    assignment = generic_instantiate(seed.classes(), 1)
    shared = ActionContext(window, assignment)

    def fresh(word, d, policy):
        ctx = ActionContext(window, assignment)
        vec = {d: Fraction(1)}
        for gen in reversed(word):
            vec = ctx.apply(gen, vec, policy)
        return vec

    words = sorted({
        tuple(word)
        for _, _, lhs, rhs in _relation_cases(GL3, 2)
        for _, word in lhs + rhs
    })
    assert len(window.members) > 1
    for word in words:
        for d in window.members:
            # CLIP first, so a clipped column leaking into STRICT shows
            for policy in (CLIP, STRICT):
                got = _image(lambda: shared.apply_word(list(word), d, policy))
                assert got == _image(lambda: fresh(word, d, policy)), (word, d, policy)


def test_strict_after_clip_still_overflows():
    l = gl2_tableau(2, -1, 1)
    w = enumerate_basis(standard_gl2(), l, 0)  # the raise target lies outside
    ctx = ActionContext(w, generic_instantiate(l.classes(), 3))
    gen, d0 = ("e", 1, 1), TableauDelta()
    assert ctx.apply(gen, {d0: Fraction(1)}, CLIP) == {}
    for _ in range(2):
        with pytest.raises(WindowOverflowError):
            ctx.apply(gen, {d0: Fraction(1)}, STRICT)
        with pytest.raises(WindowOverflowError):
            ctx.apply_word([gen], d0)
    assert ctx.column(gen, d0, CLIP) == ()


def test_repeated_criticality_error_names_each_shift():
    C = RelationSet(GL3, [rel((1, 3, 1), (1, 2, 1), False),
                          rel((1, 3, 1), (1, 2, 2), False)])
    seed = critical_satisfying_tableau(C)
    w = enumerate_basis(C, seed, 1)
    ctx = ActionContext(w, generic_instantiate(seed.classes(), 1))
    # equal row-2 entries at both shifts, which differ only in row 1
    first, second = TableauDelta(), unit((1, 1, 1), 1)
    assert second in w
    for d in (first, first, second):
        with pytest.raises(CriticalityError, match=re.escape(repr(d))):
            ctx.apply(("e", 2, 1), {d: Fraction(1)})


def test_delta_hash_is_cached_and_structural():
    a, b = TriIndex(1, 1, 1), TriIndex(1, 2, 2)
    built = TableauDelta.unit(a, 1) + TableauDelta.unit(b, -2)
    literal = TableauDelta({b: -2, a: 1})
    for _ in range(2):
        assert hash(built) == hash(literal)
    assert built == literal
    assert {built: "x"}[literal] == "x"
    zero = TableauDelta.unit(a, 1) + TableauDelta.unit(a, -1)
    hash(zero)
    assert zero == TableauDelta() and hash(zero) == hash(TableauDelta())


def test_dprime_convolution_is_delta():
    S = standard_gl2()
    l = gl2_tableau(2, -1, 1)
    w = enumerate_basis(S, l, 1)
    ctx = ActionContext(w, generic_instantiate(l.classes(), 5))
    d0 = TableauDelta()
    for total in range(1, 5):
        acc = Fraction(0)
        for s in range(total + 1):
            a = Fraction(1) if s == 0 else ctx.dprime_series_coeff(2, s, d0)
            b = (Fraction(1) if total - s == 0
                 else ctx.d_series_coeff(2, total - s, d0))
            acc += a * b
        assert acc == 0


def test_verifier_passes_standard_gl2():
    report = verify_defining_relations(
        standard_gl2(), gl2_tableau(2, -1, 1), 2, 3, instantiations=2
    )
    assert report_passes(report)
    assert report["members"] == 3
    assert all(v == "pass" for v in report["families"].values())


def test_verifier_passes_empty_set():
    report = verify_defining_relations(
        RelationSet(GL2, []), generic_gl2_seed(), 2, 2, instantiations=1
    )
    assert report_passes(report)


def test_verifier_flags_critical_window():
    C = RelationSet(GL3, [rel((1, 3, 1), (1, 2, 1), False),
                          rel((1, 3, 1), (1, 2, 2), False)])
    seed = critical_satisfying_tableau(C)
    report = verify_defining_relations(C, seed, 2, 2, instantiations=1)
    assert not report_passes(report)
    assert report["violations"][0]["family"] == "critical"


def test_verifier_rejects_too_small_radius():
    with pytest.raises(WindowOverflowError):
        verify_defining_relations(
            standard_gl2(), gl2_tableau(2, -1, 1), 1, 3, instantiations=1
        )


def test_is_irreducible_examples():
    assert is_irreducible(standard_gl2(), gl2_tableau(2, -1, 0))
    assert is_irreducible(RelationSet(GL2, []), generic_gl2_seed())
    C, l = reducible_gl3_pair()
    assert satisfies(C, l)
    assert not is_irreducible(C, l)
    assert is_irreducible(maximal_set(l), l)


def test_cyclicity_budget_zero():
    w = enumerate_basis(standard_gl2(), gl2_tableau(2, -1, 1), 2)
    assert cyclicity_probe(w, TableauDelta(), 0) == {TableauDelta()}


def test_cyclicity_reaches_irreducible_window():
    w = enumerate_basis(standard_gl2(), gl2_tableau(2, -1, 1), 2)
    reached = cyclicity_probe(w, TableauDelta(), 2)
    assert reached == set(w.members)


def test_cyclicity_traps_in_proper_submodule():
    C, l = reducible_gl3_pair()
    w = enumerate_basis(C, l, 2)

    def inside(d):
        # low entry at or below the second row-2 entry: an invariant region,
        # since the step coefficients carry the factor that vanishes exactly
        # when the two entries coincide
        t = shift(l, d)
        return t.value(TriIndex(1, 1, 1)) <= t.value(TriIndex(1, 2, 2))

    start = TableauDelta({TriIndex(1, 1, 1): -2, TriIndex(1, 2, 2): 2})
    assert start in w and inside(start)
    reached = cyclicity_probe(w, start, 2)
    assert all(inside(d) for d in reached)
    assert TableauDelta() not in reached
    # the seed, by contrast, generates the whole window
    assert cyclicity_probe(w, TableauDelta(), 2) == set(w.members)
