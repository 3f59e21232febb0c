"""Basis windows, generator actions, the relation verifier, irreducibility."""

import re
from fractions import Fraction

import pytest

from wpimod import (
    FreeWindow,
    Pyramid,
    RelationSet,
    TableauDelta,
    TriIndex,
    cyclicity_probe,
    e_generator_min_degree,
    enumerate_basis,
    generic_instantiate,
    is_irreducible,
    report_passes,
    standard_set,
    tableau_from_values,
    verify_defining_relations,
)
from wpimod.exact_arith import CriticalityError, UniPoly, poly_series_quotient
from wpimod.gt_module import (
    CLIP,
    STRICT,
    ActionContext,
    WindowOverflowError,
    _relation_cases,
)
from wpimod.relations import (
    critical_satisfying_tableau,
    maximal_set,
    noncritical_satisfying_tableau,
    satisfies,
)
from wpimod.tableau import shift

from helpers import GL2, GL3, gl2_tableau, rel, spread_seed, standard_gl2


def unit(t, v):
    return TableauDelta.unit(TriIndex(*t), v)


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


def test_gating_blocks_forbidden_lowering():
    S = standard_gl2()
    l = gl2_tableau(2, -1, 0)  # low entry at the strict boundary
    w = enumerate_basis(S, l, 1)
    ctx = ActionContext(w, generic_instantiate(l.classes(), 3))
    out = ctx.apply(("f", 1, 1), {TableauDelta(): Fraction(1)})
    assert out == {}


def _quotient_terms(ctx, fam, r, sup, d):
    """Ladder terms from the full quotient of row-factor products.

    The reference form of `ActionContext.e_terms` / `f_terms`: per pivot, the
    u^-sup coefficient of prod(u + v + r - 1) over the row without the pivot,
    divided by u^gap times the same product over the target row (raising), or
    over the whole row (lowering).
    """
    pyramid = ctx.pyramid
    terms = []
    for pivot, _ in ctx.row_values(r, d):
        step = TableauDelta.unit(pivot, +1 if fam == "e" else -1)
        ratio = ctx._ratio(r, r + 1 if fam == "e" else r - 1, pivot, d)
        num = UniPoly.one()
        for t, v in ctx.row_values(r, d):
            if t != pivot:
                num = num * UniPoly.linear(v + r - 1)
        if fam == "e":
            gap = pyramid.p(r + 1) - pyramid.p(r)
            den = UniPoly((0,) * gap + (1,))
            den_row = ctx.row_values(r, d + step)
        else:
            den, den_row = UniPoly.one(), ctx.row_values(r, d)
        for _, v in den_row:
            den = den * UniPoly.linear(v + r - 1)
        b = poly_series_quotient(num, den, sup).coeff(sup)
        coeff = -ratio * b if fam == "e" else ratio * b
        if coeff != 0:
            terms.append((d + step, coeff))
    return terms


def _outcome(fn):
    try:
        return fn()
    except CriticalityError as exc:
        return ("critical", str(exc))


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2)],
                         ids=lambda rows: "x".join(map(str, rows)))
def test_closed_form_ladder_terms_match_quotient(rows):
    pyramid = Pyramid(rows)
    radius = 2 if pyramid.n == 2 else 1
    S = standard_set(pyramid)
    for seed in (noncritical_satisfying_tableau(S), spread_seed(S)):
        window = enumerate_basis(S, seed, radius)
        for inst in (1, 2):
            ctx = ActionContext(window, generic_instantiate(seed.classes(), inst))
            for r in range(1, pyramid.n):
                lo = {"e": e_generator_min_degree(pyramid, r), "f": 1}
                for fam, terms in (("e", ctx.e_terms), ("f", ctx.f_terms)):
                    for sup in range(lo[fam], lo[fam] + 4):
                        for d in window.members:
                            got = _outcome(lambda: terms(r, sup, d))
                            want = _outcome(lambda: _quotient_terms(ctx, fam, r, sup, d))
                            assert got == want, (rows, inst, fam, r, sup, d)


def _gl3_seed():
    return noncritical_satisfying_tableau(standard_set(GL3))


@pytest.mark.parametrize("C, l", [
    (standard_set(GL3), gl2_tableau(2, -1, 0)),
    (standard_gl2(), _gl3_seed()),
], ids=["gl3-set-gl2-tableau", "gl2-set-gl3-tableau"])
def test_seed_on_another_pyramid_is_value_error(C, l):
    names = f"tableau is on {l.pyramid}, the relations on {C.pyramid}"
    for call in (
        lambda: satisfies(C, l),
        lambda: enumerate_basis(C, l, 1),
        lambda: FreeWindow(C, l),
        lambda: is_irreducible(C, l),
    ):
        with pytest.raises(ValueError, match=re.escape(names)):
            call()


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
