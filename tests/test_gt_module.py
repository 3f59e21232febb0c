"""Basis windows, generator actions, the relation verifier, irreducibility."""

import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from wpimod import gt_module
from wpimod import (
    EvaluationFactor,
    FreeWindow,
    GlWeight,
    Pyramid,
    RelationSet,
    Tableau,
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
from wpimod.exact_arith import (
    CriticalityError,
    GenericAssignment,
    UniPoly,
    poly_series_quotient,
)
from wpimod.gt_module import (
    CLIP,
    STRICT,
    ActionContext,
    WindowOverflowError,
    _relation_cases,
)
from wpimod.relations import (
    _least_solution,
    _relax,
    all_relations,
    critical_satisfying_tableau,
    is_admissible,
    is_noncritical_set,
    is_satisfiable,
    maximal_set,
    noncritical_satisfying_tableau,
    satisfies,
)
from wpimod.supports import _bumped, _eligible, _row_peaks, _SupportTable, _WallSets
from wpimod.tableau import all_indices, mutable_indices, row_indices, shift

from helpers import (
    GL2,
    GL3,
    P12,
    P22,
    bad_pattern_lower,
    bad_pattern_upper,
    clear_factor_stores,
    gl2_tableau,
    reference_critical_pair,
    reference_cyclicity,
    reference_relax,
    reference_supports,
    reference_verify,
    reference_walk_order,
    rel,
    relation_subsets,
    relation_table_digest,
    spread_seed,
    standard_gl2,
    try_relation_set,
)


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

    The reference form of `ActionContext.ladder_terms`: per pivot, the
    u^-sup coefficient of prod(u + v + r - 1) over the row without the pivot,
    divided by u^gap times the same product over the target row (raising), or
    over the whole row (lowering).
    """
    pyramid = ctx.pyramid
    terms = []
    ratios = _int_ratios(ctx, r, r + 1 if fam == "e" else r - 1, d)
    for (pivot, _), ratio in zip(_row_values(ctx, r, d), ratios):
        step = TableauDelta.unit(pivot, +1 if fam == "e" else -1)
        num = UniPoly.one()
        for t, v in _row_values(ctx, r, d):
            if t != pivot:
                num = num * UniPoly.linear(v + r - 1)
        if fam == "e":
            gap = pyramid.p(r + 1) - pyramid.p(r)
            den = UniPoly((0,) * gap + (1,))
            den_row = _row_values(ctx, r, d + step)
        else:
            den, den_row = UniPoly.one(), _row_values(ctx, r, d)
        for _, v in den_row:
            den = den * UniPoly.linear(v + r - 1)
        b = poly_series_quotient(num, den, sup).coeff(sup)
        coeff = -ratio * b if fam == "e" else ratio * b
        if coeff != 0:
            terms.append((d + step, coeff))
    return terms


def _row_values(ctx, r, d):
    """Row r at shift d as (triple, value) pairs, exact values read off the
    context's integer entries over `_scale`."""
    seed = ctx._row_ints(r, (0,) * len(ctx.window.free))
    return [
        (t, Fraction(v, ctx._scale) + d.get(t))
        for t, v in zip(row_indices(ctx.pyramid, r), seed)
    ]


def _int_ratios(ctx, r, other_row, d):
    """Each pivot's ratio of row r against `other_row`, in row order, from
    the integers of `ActionContext._ratios`."""
    power, parts = ctx._ratios(r, other_row, ctx.window.coords_of(d))
    return [ctx._finish(num, den, power) for _, num, den in parts]


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
                for fam in ("e", "f"):
                    for sup in range(lo[fam], lo[fam] + 4):
                        for d in window.members:
                            coords, step = window.coords_of(d), 1 if fam == "e" else -1
                            got = _outcome(lambda: [
                                (d + unit(window.free[k], step), c)
                                for k, c in ctx.ladder_terms(fam, r, sup, coords)
                            ])
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
    except CriticalityError as exc:
        return ("critical", str(exc))


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


def test_non_member_shift_is_a_value_error():
    l = gl2_tableau(2, -1, 1)
    w = enumerate_basis(standard_gl2(), l, 1)
    ctx = ActionContext(w, generic_instantiate(l.classes(), 3))
    outside = unit((1, 1, 1), 5)
    assert outside not in w
    names = re.escape(repr(outside))
    for call in (
        lambda: ctx.column(("f", 1, 1), outside, CLIP),
        lambda: ctx.apply_word([("f", 1, 1)], outside),
        lambda: cyclicity_probe(w, outside, 2),
        lambda: cyclicity_probe(w, outside, 0),
    ):
        with pytest.raises(ValueError, match=names):
            call()


def test_apply_word_on_a_free_window_grows_it_as_apply_does():
    # factors of one weight share one stored core and shape: clearing the
    # stores gives each of the two a fresh window of its own
    clear_factor_stores()
    walked = EvaluationFactor(GlWeight((5, 0)), 0, 2)
    clear_factor_stores()
    stepped = EvaluationFactor(GlWeight((5, 0)), 0, 2)
    assert walked.window.members == []
    for word in ([("f", 1, 1)] * 3, [("e", 1, 1), ("f", 1, 1)], [("f", 1, 1)], []):
        vec = {TableauDelta(): Fraction(1)}
        for gen in reversed(word):
            vec = stepped.ctx.apply(gen, vec, CLIP)
        assert walked.ctx.apply_word(word, TableauDelta(), CLIP) == vec, word
    # the first word reached three lowerings of the row-1 entry, each appended
    assert walked.window.members == [unit((1, 1, 1), -k) for k in range(4)]


def test_shift_keyed_and_walked_reads_share_one_column(monkeypatch):
    l = gl2_tableau(2, -1, 1)
    w = enumerate_basis(standard_gl2(), l, 2)
    ctx = ActionContext(w, generic_instantiate(l.classes(), 3))
    calls = []
    build = ctx._build_column

    def counting_build(gen, pos, policy):
        calls.append((gen, pos, policy))
        return build(gen, pos, policy)

    monkeypatch.setattr(ctx, "_build_column", counting_build)
    gen, d = ("e", 1, 1), TableauDelta()
    # a CLIP read builds its column and keeps nothing
    clipped = ctx.column(gen, d, CLIP)
    assert clipped and not ctx._columns
    calls.clear()
    col = ctx.column(gen, d, STRICT)
    assert col == clipped and ctx.apply_word([gen], d, STRICT) == dict(col)
    assert calls == [(gen, w.position(d), STRICT)]


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
    d0 = w.coords_of(TableauDelta())
    for total in range(1, 5):
        acc = Fraction(0)
        for s in range(total + 1):
            a = Fraction(1) if s == 0 else ctx._diag_coeff("dprime", 2, s, d0)
            b = (Fraction(1) if total - s == 0
                 else ctx._diag_coeff("d", 2, total - s, d0))
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


def _reached_over_all_superscripts(ctx, start, budget, columns=None):
    """The closure of CLIP column supports from start, with every superscript
    below the budget: the reference for cyclicity_probe.  `columns`, when
    given, keeps each column built once across calls on the same context."""
    pyramid = ctx.pyramid
    gens = [
        (fam, i, sup)
        for i in range(1, pyramid.n)
        for fam, lo in (("e", e_generator_min_degree(pyramid, i)), ("f", 1))
        for sup in range(lo, lo + budget)
    ]
    columns = {} if columns is None else columns
    reached, frontier = {start}, [start]
    while frontier:
        nxt = []
        for d in frontier:
            for gen in gens:
                col = columns.get((gen, d))
                if col is None:
                    col = columns[gen, d] = ctx.column(gen, d, CLIP)
                for tgt, _ in col:
                    if tgt not in reached:
                        reached.add(tgt)
                        nxt.append(tgt)
        frontier = nxt
    return reached


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2), (1, 1, 1, 1),
                                  "reducible"],
                         ids=["1x1", "1x2", "2x2", "1x1x1", "1x2x2", "1x1x1x1", "reducible-gl3"])
def test_cyclicity_reached_set_is_the_same_for_budgets_1_to_3(rows):
    if rows == "reducible":
        C, seed = reducible_gl3_pair()
    else:
        C = standard_set(Pyramid(rows))
        seed = spread_seed(C)
    window = enumerate_basis(C, seed, 2)
    # the probe reads supports off the entries, so every instantiation's
    # coefficient closure must give its reached set
    contexts = [
        (ActionContext(window, generic_instantiate(seed.classes(), k)), {})
        for k in (1, 2, 3)
    ]
    # every closure visits every member it reaches, so on the 180-member
    # gl_4 window every 9th start still reads every member's columns
    starts = window.members[::9] if len(window.members) > 100 else window.members
    sizes = set()
    for start in starts:
        want = cyclicity_probe(window, start, 1)
        sizes.add(len(want))
        for budget in (2, 3):
            assert cyclicity_probe(window, start, budget) == want, (rows, start, budget)
        for ctx, columns in contexts:
            assert _reached_over_all_superscripts(ctx, start, 3, columns) == want, (rows, start)
        ctx, columns = contexts[0]
        for budget in (1, 2):
            assert _reached_over_all_superscripts(ctx, start, budget, columns) == want
    # the reducible window has starts that reach only part of it
    assert (len(sizes) > 1) == (rows == "reducible")


def test_cyclicity_on_a_critical_window_raises_the_column_error():
    # row 2 of the seed holds two equal entries; some starts walk a few
    # steps before they meet a member whose row 2 entries coincide
    C = RelationSet(GL3, [rel((1, 3, 1), (1, 2, 1), False),
                          rel((1, 3, 1), (1, 2, 2), False)])
    seed = critical_satisfying_tableau(C)
    window = enumerate_basis(C, seed, 1)
    ctx = ActionContext(window, generic_instantiate(seed.classes(), 1))
    with pytest.raises(CriticalityError, match=re.escape(repr(TableauDelta()))):
        cyclicity_probe(window, TableauDelta(), 1)
    mid_walk = 0
    for start in window.members:
        # the column closure raises at the same member, with the same message
        with pytest.raises(CriticalityError) as ref:
            _reached_over_all_superscripts(ctx, start, 1)
        with pytest.raises(CriticalityError, match=f"^{re.escape(str(ref.value))}$"):
            cyclicity_probe(window, start, 1)
        mid_walk += not str(ref.value).endswith(repr(start))
    assert mid_walk > 0


def _critical_gl3_window():
    """The critical GL3 set of the column-error test, at radius 1: row 2 of
    its seed holds two equal entries."""
    C = RelationSet(GL3, [rel((1, 3, 1), (1, 2, 1), False),
                          rel((1, 3, 1), (1, 2, 2), False)])
    return enumerate_basis(C, critical_satisfying_tableau(C), 1)


def _probe_outcome(probe, window, start, budget):
    """The probe's reached set, or the text of its `CriticalityError`."""
    try:
        return probe(window, start, budget)
    except CriticalityError as exc:
        return str(exc)


def test_cyclicity_probe_equals_the_step_reference():
    """The probe, which looks its targets up by coordinates, reaches the same
    set as `reference_cyclicity`, which places them by `window.step`, and
    raises the same `CriticalityError` text: on the standard sets of GL2,
    P12, (2,2), GL3, (1,2,2) and gl_4 at their spread seeds at radii 1 to 3,
    the reducible GL3 pair and the critical GL3 set, at budgets 0 to 2, from
    every member of a window of at most 60 and about 20 spread starts of a
    larger one."""
    windows = []
    for rows in ((1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2), (1, 1, 1, 1)):
        C = standard_set(Pyramid(rows))
        windows += [enumerate_basis(C, spread_seed(C), radius) for radius in (1, 2, 3)]
    C, seed = reducible_gl3_pair()
    windows += [enumerate_basis(C, seed, 2), _critical_gl3_window()]
    sizes, errors, left = set(), 0, 0
    for window in windows:
        members = window.members
        for start in members[::max(1, len(members) // 20)] if len(members) > 60 else members:
            for budget in (0, 1, 2):
                want = _probe_outcome(reference_cyclicity, window, start, budget)
                assert _probe_outcome(cyclicity_probe, window, start, budget) == want, (
                    window.seed, start, budget)
                if isinstance(want, str):
                    errors += 1
                else:
                    sizes.add(len(want) < len(members))
        # moves that leave the box to a shift that keeps the relations: the
        # targets the probe must drop although they are not gated
        left += sum(
            window.at.get(c) is None and window.satisfied(c)
            for coords in window.coords for k in range(len(coords)) for step in (1, -1)
            for c in [_bumped(coords, k, step)]
        )
    # the reducible pair has starts that reach only part of its window, and
    # the critical set raises
    assert sizes == {False, True} and errors > 0 and left > 0


def test_cyclicity_on_a_free_window_grows_it_as_the_step_reference_does():
    """A `FreeWindow` has no box: its lookup admits every target that
    satisfies the relations, so on the finite-dimensional standard modules
    of GL2, P12 and GL3 at their spread seeds the probe reaches the whole
    module, as `reference_cyclicity` does and as a box past its extent
    lists it."""
    for rows in ((1, 1), (1, 2), (1, 1, 1)):
        C = standard_set(Pyramid(rows))
        seed = spread_seed(C)
        whole = set(enumerate_basis(C, seed, 12).members)
        got = cyclicity_probe(FreeWindow(C, seed), TableauDelta(), 2)
        assert got == reference_cyclicity(FreeWindow(C, seed), TableauDelta(), 2) == whole
        assert len(whole) > 1


def test_cyclicity_at_budget_zero_on_a_critical_window_reaches_only_the_start():
    """Budget 0 walks no row, so no row is checked: from every member of the
    critical GL3 window the probe returns {start} and does not raise, while
    budget 1 raises from every one of them."""
    window = _critical_gl3_window()
    for start in window.members:
        assert cyclicity_probe(window, start, 0) == {start}
        with pytest.raises(CriticalityError):
            cyclicity_probe(window, start, 1)


def test_relax_returns_at_once_where_the_worklist_changes_nothing():
    """`relations._relax` equals `reference_relax`, its worklist alone, in
    verdict and in x.

    On the slot systems that `BasisWindow.points` builds, y over the arcs
    and z over the reversed ones, each slot is re-tightened to every value
    of its interval, with the slot's arcs broken and not broken; on seeded
    random systems, positive cycles among them, every vertex is relaxed
    from zero, as `_least_solution` does."""
    rng = random.Random(5401)
    broken = kept = 0
    for rows in ((1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2), (1, 1, 1, 1)):
        pi = Pyramid(rows)
        sets = [C for C in relation_subsets(pi, 3) if is_satisfiable(C) and is_noncritical_set(C)]
        for C in [standard_set(pi), *rng.sample(sets, min(4, len(sets)))]:
            window = enumerate_basis(C, spread_seed(C), 0)
            n, low, high = len(window.free), -2, 2
            y, z = [0] * n, [0] * n
            for k, f in window.floors.items():
                y[k] = max(0, f - low)
            for k, c in window.ceilings.items():
                z[k] = max(0, high - c)
            systems = [(y, window._up), (z, window._down)]
            for x, out in systems:
                want = x[:]
                assert reference_relax(want, out, range(n))
                assert _relax(x, out, range(n)) and x == want
            for k in range(n):
                for a in range(low + y[k], high - z[k] + 1):
                    for (x, out), value in zip(systems, (a - low, high - a)):
                        x = x[:]
                        x[k] = value
                        if any(value + w > x[v] for v, w in out[k]):
                            broken += 1
                        else:
                            kept += 1
                        want = x[:]
                        verdict = reference_relax(want, out, (k,))
                        assert _relax(x, out, (k,)) == verdict and x == want, (C, k, a)
    assert broken > 0 and kept > 0
    cycles = 0
    for _ in range(400):
        size = rng.randint(2, 6)
        out = {v: [] for v in range(size)}
        for _ in range(rng.randint(1, 2 * size)):
            u, v = rng.sample(range(size), 2)
            out[u].append((v, rng.choice((-1, 0, 0, 1))))
        x, want = dict.fromkeys(out, 0), dict.fromkeys(out, 0)
        verdict = reference_relax(want, out, list(want))
        assert _relax(x, out, list(x)) == verdict and x == want, out
        cycles += not verdict
    assert cycles > 0
    assert _relax([0, 0], [[(1, 1)], [(0, 0)]], (0,)) is False
    assert _least_solution("ab", [("a", "b", 1), ("b", "a", 0)]) is None


def test_cyclicity_probe_builds_no_action_context(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the probe built an instantiated context")

    monkeypatch.setattr(ActionContext, "__init__", refuse)
    monkeypatch.setattr(gt_module, "generic_instantiate", refuse)
    C, seed = reducible_gl3_pair()
    window = enumerate_basis(C, seed, 2)
    assert cyclicity_probe(window, TableauDelta(), 2) == set(window.members)
    start = TableauDelta({TriIndex(1, 1, 1): -2, TriIndex(1, 2, 2): 2})
    assert len(cyclicity_probe(window, start, 1)) < len(window.members)


def _oracle_cases():
    for bad in (bad_pattern_upper(), bad_pattern_lower()):
        yield bad, noncritical_satisfying_tableau(bad), 0
    for rows in ((1, 1), (1, 2), (2, 2), (1, 1, 1)):
        S = standard_set(Pyramid(rows))
        yield S, spread_seed(S), 1


def _reference_residual(ctx, terms, d):
    """lhs - rhs on the basis vector d, one `apply` per generator, TableauDelta keys."""
    acc = {}
    for sign, word in terms:
        vec = {d: Fraction(1)}
        for gen in reversed(word):
            vec = ctx.apply(gen, vec)
        for dd, c in vec.items():
            acc[dd] = acc.get(dd, 0) + sign * c
    return {dd: c for dd, c in acc.items() if c != 0}


@pytest.mark.parametrize("C, seed", [(C, seed) for C, seed, _ in _oracle_cases()],
                         ids=["upper", "lower", "1x1", "1x2", "2x2", "1x1x1"])
def test_indexed_residual_equals_per_word_apply(C, seed):
    """`_residual` over member positions is the residual summed over shifts."""
    radius = 2
    window = enumerate_basis(C, seed, radius)
    members = window.members
    assignment = generic_instantiate(seed.classes(), 1)
    checked = 0
    walked = ActionContext(window, assignment)
    reference = ActionContext(window, assignment)
    for _, _, lhs, rhs in _relation_cases(C.pyramid, 3):
        margins = gt_module._word_row_margins(lhs + rhs)
        terms = lhs + [(-sign, word) for sign, word in rhs]
        for pos, d in enumerate(members):
            if any(abs(d.get(t)) > radius - margins.get(t.i, 0) for t in window.free):
                continue
            got = _image(lambda: gt_module._residual(walked, terms, pos))
            if isinstance(got, dict):
                got = {members[p]: c for p, c in got.items()}
            assert got == _image(lambda: _reference_residual(reference, terms, d)), (terms, d)
            checked += 1
    assert checked > 0


def _wall_corpus():
    """Noncritical satisfiable GL2 and P12 sets with <= 3 edges, all of them,
    and GL3 and (2,2) sets with <= 2 edges, a seeded sample: the
    non-admissible ones, where residuals can be nonzero (all 8 of (2,2), 3
    of GL3's 8), and a few admissible ones."""
    rng = random.Random(2601)
    for pyramid, edges, bad, good in ((GL2, 3, None, None), (P12, 3, None, None),
                                      (GL3, 2, 3, 1), (P22, 2, 8, 4)):
        sets = [
            C for C in relation_subsets(pyramid, edges)
            if is_satisfiable(C) and is_noncritical_set(C)
        ]
        if bad is None:
            yield from sets
            continue
        verdicts = [is_admissible(C)[0] for C in sets]
        yield from rng.sample([C for C, ok in zip(sets, verdicts) if not ok], bad)
        yield from rng.sample([C for C, ok in zip(sets, verdicts) if ok], good)


def test_wall_sets_skip_only_zero_residuals():
    """Every eligible (case, position) outside the case's hit set has an empty
    exact residual in each instantiation, at the canonical and spread seeds.

    With no walls, every check skipped, the corpus's nonzero residuals and the
    upper control's reported position would all lie outside the hit sets.
    """
    radius, budget, count = 2, 2, 3
    skipped = nonzero = 0
    for C in _wall_corpus():
        for seed in (noncritical_satisfying_tableau(C), spread_seed(C)):
            window = enumerate_basis(C, seed, radius)
            walls = _WallSets(window)
            exact = [
                ActionContext(window, generic_instantiate(seed.classes(), 1 + k))
                for k in range(count)
            ]
            for fam, idx, terms, profile, words in gt_module._relation_table(
                C.pyramid, budget
            ):
                margins = dict(profile)
                for pos, d in enumerate(window.members):
                    if any(abs(d.get(t)) > radius - margins.get(t.i, 0) for t in window.free):
                        continue
                    hit = walls.hit(words, pos)
                    skipped += not hit
                    for k, ctx in enumerate(exact):
                        if gt_module._residual(ctx, terms, pos):
                            nonzero += 1
                            assert hit, (C.edges, seed.entries, fam, idx, d, k)
    assert skipped > 0 and nonzero > 0
    # criterion 2's upper control fails at a position of its case's hit set
    C = bad_pattern_upper()
    seed = noncritical_satisfying_tableau(C)
    report = verify_defining_relations(C, seed, radius, 3, instantiations=count)
    violation = report["violations"][0]
    window = enumerate_basis(C, seed, radius)
    words = next(
        case[4] for case in gt_module._relation_table(C.pyramid, 3)
        if case[0] == violation["family"] and dict(case[1]) == violation["indices"]
    )
    pos = window.position(TableauDelta(dict(violation["shift"])))
    assert _WallSets(window).hit(words, pos)


def test_oracle_matches_the_full_scan_reference():
    """The oracle's reports equal those of `reference_verify`, which evaluates
    every eligible position in exact contexts with no hit set, at the
    canonical and spread seeds, stopping at the first violation and not."""
    reports = failing = 0
    for C in _wall_corpus():
        for seed in (noncritical_satisfying_tableau(C), spread_seed(C)):
            want = reference_verify(C, seed, 2, 2, max_violations=0)
            for max_violations in (0, 1):
                # with no violation, max_violations changes nothing
                if max_violations and not report_passes(want):
                    want = reference_verify(C, seed, 2, 2, max_violations=1)
                got = verify_defining_relations(C, seed, 2, 2, max_violations=max_violations)
                assert got == want, (C.edges, seed.entries, max_violations)
                reports += 1
            failing += not report_passes(want)
    assert reports == 168 and failing > 0


def test_wall_orders_equal_the_brute_force_walks():
    """`_WallSets.order` equals `reference_walk_order` for every support word
    of 1, 2 or 3 letters, at every member within radius - 3 of zero, in
    radius-3 windows of the wall corpus at the canonical and spread seeds.

    Two GL3 sets join the corpus.  At the canonical zero shift of
    {(1,2,1) > (1,3,1) >= (1,2,2)}, ((e,1),(e,2),(f,2)) has order 0 only
    through a walk whose first step stays on the members.  The critical set
    {(1,2,1) >= (1,1,1), (1,2,2) >= (1,1,1)} has row-2 entries one apart at
    its canonical zero shift and equal one e_2 step from it, at a member of
    the window, so a step from that member has h = 1 there.  The
    one-letter words have order 1 everywhere: a walk that never left the
    members does not count, even where its one step has z - h <= 0."""
    radius = 3
    pinned = RelationSet(GL3, [rel((1, 2, 1), (1, 3, 1), True),
                               rel((1, 3, 1), (1, 2, 2), False)])
    critical = RelationSet(GL3, [rel((1, 2, 1), (1, 1, 1), False),
                                 rel((1, 2, 2), (1, 1, 1), False)])
    checked = 0
    for C in [*_wall_corpus(), pinned, critical]:
        letters = [(fam, r) for r in range(1, C.pyramid.n) for fam in "ef"]
        words = [w for k in (1, 2, 3) for w in itertools.product(letters, repeat=k)]
        for seed in (noncritical_satisfying_tableau(C), spread_seed(C)):
            window = enumerate_basis(C, seed, radius)
            walls = _WallSets(window)
            for pos, coords in enumerate(window.coords):
                if any(abs(c) > radius - 3 for c in coords):
                    continue
                for word in words:
                    want = reference_walk_order(window, word, pos)
                    assert walls.order(word, pos) == want, (C.edges, seed.entries, word, pos)
                    checked += 1
    assert checked > 0
    window = enumerate_basis(pinned, noncritical_satisfying_tableau(pinned), radius)
    zero = window.position(TableauDelta())
    assert _WallSets(window).order((("e", 1), ("e", 2), ("f", 2)), zero) == 0


def test_support_table_equals_the_entry_list_rule():
    """`_SupportTable`'s z and h for every ladder letter and pivot, and its
    first equal pair over all rows, equal `reference_supports` and
    `reference_critical_pair`, which compare lists of entries, at every
    member of the wall corpus's radius-2 windows and at every target of a
    member's ladder moves, at the canonical and spread seeds.

    The critical GL3 set {(1,2,1) >= (1,1,1), (1,2,2) >= (1,1,1)} joins the
    corpus: its canonical seed has row-2 entries c0 + 0 and c0 + 1, so the
    member one e_2 step from its zero shift, on (1,2,1), has equal row-2
    entries: each row-2 pivot has h = 1 there, and the first equal pair is
    in row 2."""
    critical = RelationSet(GL3, [rel((1, 2, 1), (1, 1, 1), False),
                                 rel((1, 2, 2), (1, 1, 1), False)])
    points = zeros = poles = pairs = 0
    for C in [*_wall_corpus(), critical]:
        rows = range(C.pyramid.n + 1)
        for seed in (noncritical_satisfying_tableau(C), spread_seed(C)):
            window = enumerate_basis(C, seed, 2)
            table = _SupportTable(window.layout)
            seen = set(window.coords)
            for coords in window.coords:
                for letter in table.letters:
                    step = 1 if letter[0] == "e" else -1
                    seen.update(_bumped(coords, k, step) for k, *_ in table.rule(coords, letter))
            for coords in seen:
                for letter in table.letters:
                    got = table.rule(coords, letter)
                    assert got == reference_supports(window, coords, letter), (C, coords, letter)
                    zeros += sum(z for _, z, _ in got)
                    poles += sum(h for _, _, h in got)
                got = table.critical(coords, rows)
                assert got == reference_critical_pair(window, coords, rows), (C, coords)
                pairs += got is not None
                points += 1
    assert points > 0 and zeros > 0 and poles > 0 and pairs > 0
    window = enumerate_basis(critical, noncritical_satisfying_tableau(critical), 2)
    table = _SupportTable(window.layout)
    up = _bumped(window.coords[window.position(TableauDelta())], window.slot[TriIndex(1, 2, 1)], 1)
    assert up in window.at
    assert [h for _, _, h in table.rule(up, ("e", 2))] == [1, 1]
    assert table.critical(up, range(4)) == (2, TriIndex(1, 2, 1), TriIndex(1, 2, 2))


def test_open_slots_read_z_off_the_one_letter_table():
    """`_SupportTable.open_slots`, the z-only reader, names the slots whose
    z is 0 in `rule` and in `reference_supports`, in row order, at every
    member of the wall corpus's radius-2 windows and at every target of
    their ladder moves, at the canonical and spread seeds.  The table holds
    no second per-letter table for it: `letters` and `pairs` only."""
    points = opened = closed = 0
    for C in _wall_corpus():
        for seed in (noncritical_satisfying_tableau(C), spread_seed(C)):
            window = enumerate_basis(C, seed, 2)
            table = _SupportTable(window.layout)
            assert set(vars(table)) == {"letters", "pairs"}
            seen = set(window.coords)
            for coords in window.coords:
                for letter in table.letters:
                    step = 1 if letter[0] == "e" else -1
                    seen.update(_bumped(coords, k, step) for k, *_ in table.rule(coords, letter))
            for coords in seen:
                for letter in table.letters:
                    got = table.open_slots(coords + (0,), letter)
                    assert got == [k for k, z, _ in table.rule(coords, letter) if not z]
                    assert got == [k for k, z, _ in reference_supports(window, coords, letter)
                                   if not z], (C, coords, letter)
                    opened += len(got)
                    closed += len(table.letters[letter]) - len(got)
                points += 1
    assert points > 0 and opened > 0 and closed > 0, (points, opened, closed)


def test_wall_order_refuses_a_word_past_three_letters():
    """The flat walk covers support words of at most 3 letters; a longer one
    raises ValueError naming it instead of returning an order."""
    C = standard_set(GL3)
    walls = _WallSets(enumerate_basis(C, noncritical_satisfying_tableau(C), 2))
    word = (("e", 1), ("e", 2), ("f", 2), ("f", 1))
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        walls.order(word, 0)
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        walls.hit(frozenset([word]), 0)


# Counts the moves the oracle's wall sets build on one GL3 set, with edges
# (1,2,1) > (1,3,3), (1,2,2) > (1,3,1), (1,3,1) >= (1,2,1), (1,3,1) >= (1,3,3).
# When the support words were walked in a frozenset's order, the count
# followed the string hash seed: 53 moves under seed 0, 48 under seed 1.
_MOVE_COUNT = """
from wpimod import gt_module
from wpimod.pyramid import Pyramid
from wpimod.relations import Relation, RelationSet, noncritical_satisfying_tableau
from wpimod.tableau import TriIndex

built = []
class Counted(gt_module._WallSets):
    def __init__(self, window):
        super().__init__(window)
        built.append(self)
gt_module._WallSets = Counted
edges = [((1, 2, 1), (1, 3, 3), True), ((1, 2, 2), (1, 3, 1), True),
         ((1, 3, 1), (1, 2, 1), False), ((1, 3, 1), (1, 3, 3), False)]
C = RelationSet(Pyramid((1, 1, 1)), [Relation(TriIndex(*g), TriIndex(*l), s) for g, l, s in edges])
gt_module.verify_defining_relations(C, noncritical_satisfying_tableau(C), 2, 2)
print(sum(len(walls._moves) for walls in built))
"""


def test_wall_sets_build_the_same_moves_under_any_hash_seed():
    """The oracle's work is a function of its input: two processes with
    different string hash seeds build the same moves on a set whose count
    once differed between them."""
    src = os.path.dirname(os.path.dirname(gt_module.__file__))
    counts = {
        subprocess.run([sys.executable, "-c", _MOVE_COUNT], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                       timeout=60, check=True).stdout
        for seed in ("0", "1")
    }
    assert len(counts) == 1 and int(counts.pop()) > 0


def test_single_ladder_letter_cases_have_empty_hit_sets():
    """A case whose words each hold at most one ladder letter (dd, de, df) has
    an empty hit set at every eligible position: a walk of one letter from a
    member either stays on the members or ends off them, where the relation
    module has no component."""
    radius, budget = 2, 2
    checked = set()
    for C in _wall_corpus():
        for seed in (noncritical_satisfying_tableau(C), spread_seed(C)):
            window = enumerate_basis(C, seed, radius)
            walls, peaks = _WallSets(window), _row_peaks(window)
            for fam, idx, _, profile, words in gt_module._relation_table(C.pyramid, budget):
                if any(len(w) > 1 for w in words):
                    continue
                for pos in _eligible(window, peaks, dict(profile)):
                    assert not walls.hit(words, pos), (C.edges, seed.entries, fam, idx, pos)
                    checked.add(fam)
    assert checked == {"dd", "de", "df"}


def test_a_pass_with_empty_hit_sets_builds_no_context(monkeypatch):
    built = []
    init = ActionContext.__init__
    monkeypatch.setattr(
        ActionContext, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k)
    )
    for C in (standard_gl2(), standard_set(GL3), standard_set(P22)):
        for seed in (noncritical_satisfying_tableau(C), spread_seed(C)):
            assert report_passes(verify_defining_relations(C, seed, 2, 2))
    assert built == []
    # a failing pass builds only the contexts it walks: the upper control
    # fails at its first instantiation, so one of the three is built
    C = bad_pattern_upper()
    assert not report_passes(
        verify_defining_relations(C, noncritical_satisfying_tableau(C), 2, 2, instantiations=3)
    )
    assert len(built) == 1


P = 2**61 - 1


@pytest.mark.parametrize("C, offsets", [
    # a top-row entry and the row-1 entry of one class p apart: mod p the
    # raising coefficient at the seed would vanish and shrink the reached set
    (RelationSet(GL2, [rel((1, 2, 1), (1, 2, 2), False)]),
     {(1, 2, 1): P, (1, 2, 2): P - 1, (1, 1, 1): 0}),
    # two row-2 entries of one class p apart: mod p they would coincide
    (standard_set(GL3),
     {(1, 3, 1): P + 10, (1, 3, 2): 5, (1, 3, 3): -10,
      (1, 2, 1): P, (1, 2, 2): 0, (1, 1, 1): 3}),
], ids=["gl2-rows-p-apart", "gl3-same-row-p-apart"])
def test_offsets_a_prime_apart_are_exact_gaps(C, offsets):
    """Offsets 2^61 - 1 apart are exact gaps like any other: the oracle's
    report is the full-scan reference's, and the probe reaches what the
    exact coefficients reach."""
    seed = Tableau(C.pyramid, {TriIndex(*t): ("a", off) for t, off in offsets.items()})
    window = enumerate_basis(C, seed, 2)
    report = verify_defining_relations(C, seed, 2, 2, instantiations=2)
    assert report == reference_verify(C, seed, 2, 2, instantiations=2)
    ctx = ActionContext(window, generic_instantiate(seed.classes(), 1))
    assert cyclicity_probe(window, TableauDelta(), 2) == _reached_over_all_superscripts(
        ctx, TableauDelta(), 2
    )


@pytest.mark.parametrize("instantiations, budget", [(0, 2), (-2, 2), (3, 0)])
def test_an_oracle_over_nothing_is_value_error(instantiations, budget):
    """No instantiation or no superscript checks nothing, so the
    non-admissible upper control would pass: the library refuses it."""
    C = bad_pattern_upper()
    seed = noncritical_satisfying_tableau(C)
    with pytest.raises(ValueError, match="must be at least 1"):
        verify_defining_relations(C, seed, 2, budget, instantiations=instantiations)


def _box_scan(window, free, ranges, depth=None):
    """Every box point the window accepts: the enumeration `solutions` replaced.

    The reference form of `BasisWindow` (ranges all [-r, r]) and of
    `EvaluationFactor.deltas` (ranges all [-depth, 0], plus -sum <= depth).
    """
    out = []
    for combo in itertools.product(*ranges):
        if depth is not None and -sum(combo) > depth:
            continue
        if window.satisfied(combo):
            out.append(TableauDelta(dict(zip(free, combo))))
    return out


def _integral_seeds(C, rng, count):
    """Single-class integral tableaux satisfying C, as a `--tableau` file gives.

    Small random entries put many relations with a top-row end right at
    their bound, so the window's unary bounds bind.
    """
    found = []
    indices = all_indices(C.pyramid)
    for _ in range(400):
        if len(found) == count:
            break
        values = {t: rng.randrange(4) for t in indices}
        l = tableau_from_values(C.pyramid, values)
        if satisfies(C, l):
            found.append(l)
    return found


def _window_corpus():
    """(relation set, seed, radius) cases: standard and seeded random sets."""
    rng = random.Random(8)
    for rows in [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 1, 1)]:
        pyramid = Pyramid(rows)
        sets = [standard_set(pyramid)]
        rels = all_relations(pyramid)
        while len(sets) < 4:
            C = try_relation_set(pyramid, rng.sample(rels, rng.randint(1, 4)))
            if C is not None and is_satisfiable(C):
                sets.append(C)
        small = len(mutable_indices(pyramid)) <= 4
        for C in sets:
            seeds = _integral_seeds(C, rng, 2)
            if is_noncritical_set(C):
                seeds += [noncritical_satisfying_tableau(C), spread_seed(C)]
            else:
                seeds.append(critical_satisfying_tableau(C))
            for seed in seeds:
                for radius in range(4 if small else 3):
                    yield C, seed, radius
    gl4 = standard_set(Pyramid((1, 1, 1, 1)))
    yield gl4, spread_seed(gl4), 3
    # (2,2,2) lists its free triples out of `TriIndex` order, so a slot is not
    # a key position there
    p222 = standard_set(Pyramid((2, 2, 2)))
    seeds = _integral_seeds(p222, rng, 2) + [noncritical_satisfying_tableau(p222), spread_seed(p222)]
    for seed in seeds:
        yield p222, seed, 1


def test_coordinate_satisfaction_equals_the_tableau_rule():
    """`BasisWindow.satisfied` on a box point's coordinates is
    `relations.satisfies` on the seed shifted by it, at every box point of
    every corpus window."""
    points = kept = 0
    for C, seed, radius in _window_corpus():
        window = enumerate_basis(C, seed, radius)
        for combo in itertools.product(range(-radius, radius + 1), repeat=len(window.free)):
            want = satisfies(C, shift(seed, window.shift(combo)))
            assert window.satisfied(combo) == want, (C, seed, combo)
            points += 1
            kept += want
    assert 0 < kept < points


def test_window_members_match_box_scan():
    cases = tight = 0
    for C, seed, radius in _window_corpus():
        window = enumerate_basis(C, seed, radius)
        box = [range(-radius, radius + 1)] * len(window.free)
        want = sorted(_box_scan(window, window.free, box), key=lambda d: d.key())
        assert [d.key() for d in window.members] == [d.key() for d in want], (C, seed, radius)
        cases += 1
        tight += 0 in window.floors.values() or 0 in window.ceilings.values()
    # 210 cases; in 182 of them a top-row relation sits at its bound
    assert cases >= 200 and tight >= 100


def test_window_points_come_in_key_order():
    """`points` lists a box's members, and a depth's, in key order as it
    finds them: no caller sorts them.  The corpus has (2,2,2), whose slots
    are not key positions, and the gl_4 standard set at radius 3."""
    cases = 0
    for C, seed, radius in _window_corpus():
        window = enumerate_basis(C, seed, radius)
        found = window.points(-radius, radius)
        assert found == sorted(found, key=window.key), (C, seed, radius)
        for depth in range(4):
            found = window.points(-depth, 0, depth=depth)
            assert found == sorted(found, key=window.key), (C, seed, depth)
        cases += 1
    assert cases >= 200


def test_coordinate_eligibility_equals_the_shift_rule(monkeypatch):
    # the oracle's eligible positions, read off the coordinates, are the
    # members whose every offset on row i is within radius - margin(i); no
    # shift is built for a window or for its eligibility scan
    built = []
    to_shift = gt_module.BasisWindow.shift
    monkeypatch.setattr(
        gt_module.BasisWindow, "shift", lambda self, c: built.append(c) or to_shift(self, c)
    )
    cases = kept = 0
    for C, seed, radius in _window_corpus():
        profiles = {profile for *_, profile, _ in gt_module._relation_table(C.pyramid, 2)}
        built.clear()
        window = enumerate_basis(C, seed, radius)
        peaks = _row_peaks(window)
        got = [_eligible(window, peaks, dict(p)) for p in sorted(profiles)]
        assert built == [], (C, seed, radius)
        for profile, eligible in zip(sorted(profiles), got):
            margins = dict(profile)
            want = [
                k for k, d in enumerate(window.members)
                if all(abs(d.get(t)) <= radius - margins.get(t.i, 0) for t in window.free)
            ]
            assert eligible == want, (C, seed, radius, profile)
            kept += len(want)
        cases += 1
    assert cases >= 200 and kept > 0


def test_window_step_matches_gating_box_and_index():
    cases = overflows = 0
    for C, seed, radius in itertools.islice(_window_corpus(), 0, None, 10):
        window = enumerate_basis(C, seed, radius)
        for pos, d in enumerate(window.members):
            for t in window.free:
                for amount in (1, -1):
                    move = unit(t, amount)
                    tgt = d + move
                    if not window.satisfied(window.coords_of(tgt)):
                        want = None
                    elif max(map(abs, tgt.offsets.values()), default=0) > radius:
                        want = -1
                    else:
                        want = window.position(tgt)
                    got = window.step(pos, window.slot[t], amount)
                    assert got == want, (C, seed, radius, d, move)
                    overflows += want == -1
        cases += 1
    assert cases >= 20 and overflows > 0


def test_step_checks_only_targets_that_are_not_members(monkeypatch):
    satisfied = gt_module.BasisWindow.satisfied
    calls = []

    def counting(window, d):
        calls.append(d)
        return satisfied(window, d)

    monkeypatch.setattr(gt_module.BasisWindow, "satisfied", counting)
    l = gl2_tableau(3, -1, 1)  # l_21 >= l_11 > l_22 holds for l_11 in 0..3
    w = enumerate_basis(standard_gl2(), l, 1)
    up, down = unit((1, 1, 1), 1), unit((1, 1, 1), -1)
    # a member target is placed with no relation check
    # (1,1,1) is the only free triple, at slot 0
    assert up in w and w.step(w.position(TableauDelta()), 0, 1) == w.position(up)
    assert calls == []
    # the raise from +1 keeps the relations but leaves the box: -1
    assert w.step(w.position(up), 0, 1) == -1 and calls == [w.coords_of(up + up)]
    # the lowering from -1 breaks l_11 > l_22: gated
    assert w.step(w.position(down), 0, -1) is None
    # a free window appends each new target that keeps the relations
    f = FreeWindow(standard_gl2(), l)
    assert f.position(TableauDelta()) == 0
    assert f.step(0, 0, 1) == 1 and f.step(1, 0, 1) == 2
    assert f.step(2, 0, 1) is None  # l_11 = 4 breaks l_21 >= l_11
    assert f.members == [unit((1, 1, 1), k) for k in range(3)]
    calls.clear()
    assert f.step(0, 0, 1) == 1 and calls == []


def _step_windows():
    """Seeded windows on gl_3, gl_4, (2,2) and (1,2,2): the standard set at
    its spread seed, and three random satisfiable sets each at a satisfying
    seed (critical where the set is), radius 1 or 2."""
    rng = random.Random(25)
    for rows in [(1, 1, 1), (1, 1, 1, 1), (2, 2), (1, 2, 2)]:
        pyramid = Pyramid(rows)
        standard = standard_set(pyramid)
        yield standard, spread_seed(standard), 2
        rels = all_relations(pyramid)
        found = 0
        while found < 3:
            C = try_relation_set(pyramid, rng.sample(rels, rng.randint(1, 4)))
            if C is None or not is_satisfiable(C):
                continue
            found += 1
            if is_noncritical_set(C):
                yield C, noncritical_satisfying_tableau(C), rng.randint(1, 2)
            else:
                yield C, critical_satisfying_tableau(C), rng.randint(1, 2)


def test_coordinate_step_equals_the_shift_reference():
    seen = set()
    for C, seed, radius in _step_windows():
        window = enumerate_basis(C, seed, radius)
        assert [window.shift(c) for c in window.coords] == window.members
        for pos, d in enumerate(window.members):
            for t in window.free:
                for amount in (1, -1):
                    move = unit(t, amount)
                    tgt = d + move
                    want = window.position(tgt) if tgt in window else None
                    if want is None:
                        want = -1 if window.satisfied(window.coords_of(tgt)) else None
                    got = window.step(pos, window.slot[t], amount)
                    assert got == want, (C, seed, radius, d, move)
                    seen.add(want if want in (-1, None) else "member")
    assert seen == {-1, None, "member"}


def _fraction_ratio(ctx, r, other_row, pivot, d):
    """One pivot's ratio of `ActionContext._ratios` in `Fraction` arithmetic
    on `_row_values`."""
    pv = dict(_row_values(ctx, r, d))[pivot]
    num = Fraction(1)
    for _, v in _row_values(ctx, other_row, d):
        num *= v - pv
    den = Fraction(1)
    for t, v in _row_values(ctx, r, d):
        if t != pivot:
            if v == pv:
                raise CriticalityError(f"coincident entries in row {r} at shift {d!r}")
            den *= v - pv
    return num / den


def _fraction_diag(ctx, fam, r, sup, d):
    """`ActionContext._diag_coeff`: the u^-sup coefficient of prod(1 + a x) /
    prod(1 + b x), in `Fraction` arithmetic on `_row_values`."""
    a = [v + r - 1 for _, v in _row_values(ctx, r, d)]
    b = [v + r - 1 for _, v in _row_values(ctx, r - 1, d)]
    if fam == "dprime":
        a, b = b, a
    c = [Fraction(1)] + [Fraction(0)] * sup
    for x in a:
        for t in range(sup, 0, -1):
            c[t] += x * c[t - 1]
    for x in b:
        for t in range(1, sup + 1):
            c[t] -= x * c[t - 1]
    return c[sup]


def _mixed_assignment(classes):
    """Each class at a value over its own denominator, so the least common
    denominator of a window's entries is a product of several."""
    dens = (3, 5, 7, 1, 11, 2, 13)
    return GenericAssignment({
        cls: Fraction(3 * k - 7, dens[k % len(dens)])
        for k, cls in enumerate(sorted(classes, key=repr))
    })


def test_integer_rows_give_the_fraction_ratios_and_diagonals():
    """The exact context runs on entries times their common denominator;
    its ratios, errors and diagonal coefficients are the `Fraction` ones."""
    outcomes = set()
    for C, seed, radius in _step_windows():
        window = enumerate_basis(C, seed, radius)
        classes = seed.classes()
        for assignment in (generic_instantiate(classes, 1), _mixed_assignment(classes)):
            ctx = ActionContext(window, assignment)
            assert all(
                v == assignment.value(*seed.entry(t))
                for r in range(ctx.n + 1) for t, v in _row_values(ctx, r, TableauDelta())
            )
            for d in window.members[:40]:
                for r in range(1, ctx.n + 1):
                    for other in (r - 1, r + 1):
                        got = _outcome(lambda: _int_ratios(ctx, r, other, d))
                        want = _outcome(lambda: [
                            _fraction_ratio(ctx, r, other, pivot, d)
                            for pivot, _ in _row_values(ctx, r, d)
                        ])
                        assert got == want, (C, seed, d, r, other)
                        assert isinstance(got, tuple) or all(
                            isinstance(x, Fraction) for x in got
                        )
                        outcomes.add(type(got))
                    for fam in ("d", "dprime"):
                        for sup in (1, 2, 5):
                            got = ctx._diag_coeff(fam, r, sup, window.coords_of(d))
                            assert got == _fraction_diag(ctx, fam, r, sup, d), (C, d, fam, r, sup)
                            assert isinstance(got, Fraction)
    assert outcomes == {list, tuple}  # both ratios and coincident entries


def test_free_window_keeps_members_index_and_coordinates_aligned():
    C = standard_set(Pyramid((1, 1, 1)))
    w = FreeWindow(C, spread_seed(C))
    assert w.position(TableauDelta()) == 0
    rng = random.Random(5)
    for _ in range(300):  # growth through step
        w.step(rng.randrange(len(w.members)), rng.randrange(len(w.free)), rng.choice((1, -1)))
    grown = len(w.members)
    for d in map(w.shift, w.points(-3, 3)):  # growth through position
        w.position(d)
    assert 1 < grown < len(w.members)
    assert [w.member(p) for p in range(len(w.coords))] == w.members
    assert len(w.members) == len(w.coords) == len(w.at)
    for p, (d, c) in enumerate(zip(w.members, w.coords)):
        assert w.position(d) == w.at[c] == p
        assert w.coords_of(d) == c and w.shift(c) == d


@pytest.mark.parametrize("weight", [
    (1, 0), (Fraction(1, 3), Fraction(1, 7)), (2, 1, 0), (Fraction(1, 3), Fraction(1, 7), 0),
    (3, 1), (4, 2, 0), (3, 1, 0, 0), (2,),
], ids=str)
def test_depth_bounded_deltas_match_box_scan(weight):
    f = EvaluationFactor(GlWeight(weight), depth=2)
    for k in range(5):
        free = f.window.free
        want = _box_scan(f.window, free, [range(-k, 1)] * len(free), depth=k)
        want.sort(key=lambda d: (f.depth_of(d), d.key()))
        assert f.deltas(k) == want, (weight, k)


def test_tight_window_cost_follows_members_not_box():
    # standard gl_4 set at a spread seed: the window stops growing at radius
    # 9, with every member's offsets inside [-9, 9]; radius 40 spans a box of
    # 81^6 (about 2.8e11) points, which no scan could visit
    S = standard_set(Pyramid((1, 1, 1, 1)))
    seed = spread_seed(S)
    full = enumerate_basis(S, seed, 9)
    assert len(full.members) == 4096
    assert len(enumerate_basis(S, seed, 8).members) < 4096
    assert enumerate_basis(S, seed, 40).members == full.members


@pytest.mark.parametrize("radius", [2.5, Fraction(5, 2), "5/2"], ids=str)
def test_a_non_integral_radius_is_value_error(radius):
    """A radius of 5/2 is not truncated to 2; an integral Fraction is taken
    as its integer."""
    S = standard_set(Pyramid((1, 1, 1)))
    seed = spread_seed(S)
    with pytest.raises(ValueError, match=r"^radius must be an integer, got (5/2|2\.5)$"):
        enumerate_basis(S, seed, radius)
    window = enumerate_basis(S, seed, Fraction(2))
    assert window.radius == 2 and window.coords == enumerate_basis(S, seed, 2).coords


def test_member_cap_counts_members(monkeypatch):
    S = standard_set(Pyramid((1, 1, 1, 1)))
    seed = spread_seed(S)
    assert len(enumerate_basis(S, seed, 3).members) == 800
    monkeypatch.setattr(gt_module, "MAX_WINDOW_MEMBERS", 800)
    assert len(enumerate_basis(S, seed, 3).members) == 800
    monkeypatch.setattr(gt_module, "MAX_WINDOW_MEMBERS", 799)
    with pytest.raises(ValueError, match="basis window has more than 799 members"):
        enumerate_basis(S, seed, 3)


# The oracle's relation tables at budgets 1, 2 and 3, as recorded before the
# f families were built as mirrors of the e families (`relation_table_digest`).
RELATION_TABLE_DIGESTS = {
    (1, 1): "7a9fa7cbea030db35a8ba1390f7246a427bb07313c3dc648cbf0f48b51fb1e21",
    (1, 2): "2e0d1ab9c6401dd32390404cad2f8336b685e2305e03cf061728b49321ee0b66",
    (2, 2): "7a9fa7cbea030db35a8ba1390f7246a427bb07313c3dc648cbf0f48b51fb1e21",
    (1, 1, 1): "1abd12eaf1f1534680fe2592cf46b57830f2948c517a7700014757708fc85241",
    (1, 1, 2): "b893ccd66a13796ded8d8eeb819f2a27ba0b6103f6d3f6618d51708d7def236f",
    (1, 2, 2): "88883119c39abd8d80612ace62aca65a83cf870b97462fb1937a8b7b9e47df47",
    (2, 2, 2): "1abd12eaf1f1534680fe2592cf46b57830f2948c517a7700014757708fc85241",
    (1, 1, 3): "dd424e80bf15912543b0cfabcfa99c0714ed18aac813c3de2a4711abdee80e5b",
    (1, 1, 1, 1): "a161643799c80f9243918e6173361f6716bf01208c574edee4ffc40dc70b9a37",
    (1, 2, 2, 3): "dec39f145cc591611df8e33ec82e087bea60bfbedc6314e40f1bcbc53e6fbd52",
    (1, 1, 1, 1, 1): "f1bd70c37c96ee60acb1b4742c39e6f3156216fda95f41a6db1e081254107e88",
    (1,) * 6: "1815883f7eac919ad68aefae0418e9e16f6de77932292e526a358bd50f117ab4",
}


@pytest.mark.parametrize("rows", RELATION_TABLE_DIGESTS,
                         ids=lambda rows: "x".join(map(str, rows)))
def test_relation_tables_match_the_recorded_digests(rows):
    """Every case's family, indices, signed terms, margins and support words,
    in table order, at budgets 1, 2 and 3."""
    assert relation_table_digest(Pyramid(rows), (1, 2, 3)) == RELATION_TABLE_DIGESTS[rows]


@pytest.mark.parametrize("rows", RELATION_TABLE_DIGESTS,
                         ids=lambda rows: "x".join(map(str, rows)))
def test_support_words_have_at_most_three_letters(rows):
    """`_WallSets.order` walks support words of at most 3 letters: every case
    of the relation tables at budgets 1, 2, 3 and 16 keeps to that."""
    for budget in (1, 2, 3, 16):
        for case in gt_module._relation_table(Pyramid(rows), budget):
            assert all(len(w) <= 3 for w in case[4]), (budget, case[0], case[4])
