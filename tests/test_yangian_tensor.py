"""Evaluation modules, coproduct, quantum minors, singular-vector probes."""

import functools
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from wpimod import (
    EvaluationFactor,
    GlWeight,
    TensorModule,
    find_singular_vectors,
    integral_condition,
    interval_sets,
    is_generic,
    only_top_singular,
    quantum_minor,
    singular_dimensions,
    weyl_dimension,
)
import wpimod.yangian_tensor as yt
from wpimod import gt_module
from wpimod.exact_arith import InvSeries
from wpimod.gt_module import CLIP
from wpimod.gt_module import MAX_WINDOW_MEMBERS
from wpimod.tableau import TableauDelta, TriIndex
from wpimod.yangian_tensor import t_coefficient

from helpers import add_into, clear_factor_stores, drinfeld_b, gl_relations_hold


@pytest.fixture(autouse=True)
def _empty_factor_store():
    """Each test starts on empty factor-core and shape stores, as in a fresh
    process: factors of one weight share their columns, and factors of one
    seed shape their window, across tests otherwise."""
    clear_factor_stores()


def test_weyl_dimension():
    assert weyl_dimension(GlWeight((2, 0))) == 3
    assert weyl_dimension(GlWeight((1, 0))) == 2
    assert weyl_dimension(GlWeight((1, 1, 0))) == 3
    assert weyl_dimension(GlWeight((2, 1, 0))) == 8
    with pytest.raises(ValueError):
        weyl_dimension(GlWeight((0, 1)))


def test_is_generic():
    assert is_generic([GlWeight((1, 0))])
    assert is_generic([GlWeight((Fraction(1, 2), 0)),
                       GlWeight((Fraction(1, 3), Fraction(1, 5)))])
    assert not is_generic([GlWeight((1, 0)), GlWeight((0, 0))])


def test_is_good():
    # only index pairs within 1..n-1 matter, so any gl_2 weight is good
    assert GlWeight((0, 5)).is_good()
    assert GlWeight((2, 1, 0)).is_good()
    assert not GlWeight((0, 1, 0)).is_good()  # difference equals the index gap
    assert GlWeight((Fraction(1, 2), 0, 7)).is_good()


def test_a_factor_is_a_gl_module_or_refused():
    # a weight that is not good, such as (-2, 0, -1), gives a carrier whose
    # E_32 kills the top vector v, so [E_23, E_32] v = 0, not v: it is refused
    halves = [Fraction(k, 2) for k in range(-4, 5)]
    built = 0
    for w in itertools.chain(itertools.product(halves, repeat=2),
                             itertools.product(range(-2, 3), repeat=3)):
        try:
            f = EvaluationFactor(GlWeight(w))
        except ValueError as exc:
            assert GlWeight(w).is_good() or "is not good" in str(exc), w
            continue
        assert gl_relations_hold(f, 3), w
        built += 1
    assert built == 65 + 35
    with pytest.raises(ValueError, match=re.escape("weight ['-2', '0', '-1'] is not good")):
        EvaluationFactor(GlWeight((-2, 0, -1)))


def _members(s, lo=-6, hi=6):
    """The halves in [lo, hi] that belong to an interval set."""
    return [x for x in (Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)) if x in s]


def test_interval_sets_single_chain():
    minus, plus = interval_sets((3, 0), 1, 2)
    assert not minus.rays and not plus.rays
    assert _members(minus) == [1, 2]
    assert _members(plus) == [1, 2]
    minus, plus = interval_sets((1, -1), 1, 2)
    assert not minus.rays and not plus.rays
    assert _members(minus) == [0]
    assert _members(plus) == [0]


def test_interval_sets_unlinked_pair():
    minus, plus = interval_sets((Fraction(1, 2), 0), 1, 2)
    # two singleton chains: the l_2 chain contributes nothing bounded and the
    # l_1 chain only rays that exclude their own anchors
    assert Fraction(1, 4) not in minus and Fraction(1, 4) not in plus
    assert Fraction(1, 2) not in minus and 0 not in plus


def test_integral_condition():
    assert integral_condition(GlWeight((1, 0)), GlWeight((1, 0)))
    assert integral_condition(GlWeight((Fraction(1, 2), 0)),
                              GlWeight((Fraction(1, 3), Fraction(1, 5))))
    assert not integral_condition(GlWeight((1, 0)), GlWeight((3, 1)))
    with pytest.raises(ValueError):
        integral_condition(GlWeight((0, 1, 0)), GlWeight((0, 1, 0)))


@functools.lru_cache(maxsize=None)
def _listed_interval_sets(l_values, i, j):
    """The (minus, plus) sets with every bounded integer listed: the reference."""
    chains = []
    for idx in range(j, i - 1, -1):
        v = Fraction(l_values[idx - 1])
        for chain in chains:
            if (v - chain[0][1]).denominator == 1:
                chain.append((idx, v))
                break
        else:
            chains.append([(idx, v)])
    minus, plus = (set(), []), (set(), [])
    for chain in chains:
        members = {v for _, v in chain}
        (first_idx, first), (last_idx, last) = chain[0], chain[-1]
        filled = set()
        v = first
        while v <= last:
            filled.add(v)
            v += 1
        if first_idx == j:
            minus[0].update(filled - members)
        else:
            minus[1].append((first, -1, members))
        if last_idx == i:
            plus[0].update(filled - members)
        else:
            plus[1].append((last, +1, members))
    return minus, plus


def _listed_contains(part, x):
    listed, rays = part
    return x in listed or any(
        ((x - a) * d).denominator == 1 and (x - a) * d >= 0 and x not in ex
        for a, d, ex in rays
    )


def _listed_integral_condition(lam, mu):
    ls, ms = lam.l_values(), mu.l_values()
    for i in range(1, lam.n + 1):
        for j in range(i + 1, lam.n + 1):
            lminus, lplus = _listed_interval_sets(ls, i, j)
            if not _listed_contains(lminus, ms[j - 1]) and not _listed_contains(lplus, ms[i - 1]):
                continue
            mminus, mplus = _listed_interval_sets(ms, i, j)
            if _listed_contains(mminus, ls[j - 1]) or _listed_contains(mplus, ls[i - 1]):
                return False
    return True


def test_integral_condition_matches_listed_intervals():
    halves = [Fraction(k, 2) for k in range(-8, 9)]
    gl2 = [GlWeight(w) for w in itertools.product(halves, repeat=2)]
    verdicts = set()
    for lam in gl2:
        for mu in gl2:
            got = integral_condition(lam, mu)
            assert got == _listed_integral_condition(lam, mu), (lam, mu)
            verdicts.add(got)
    assert verdicts == {True, False}
    rng = random.Random(20261018)
    entries = halves + [Fraction(k, 3) for k in range(-12, 13, 4)]
    checked = 0
    while checked < 400:
        lam, mu = (GlWeight([rng.choice(entries) for _ in range(3)]) for _ in range(2))
        if lam.is_good() and mu.is_good():
            assert integral_condition(lam, mu) == _listed_integral_condition(lam, mu), (lam, mu)
            checked += 1


def test_integral_condition_cost_does_not_grow_with_the_gap():
    # the same chain shapes as gap 20, whose verdict the listed reference gives
    assert _listed_integral_condition(GlWeight((20, 0)), GlWeight((1, 0))) is True
    assert _listed_integral_condition(GlWeight((20, 0)), GlWeight((1, -1))) is False
    start = time.perf_counter()
    assert integral_condition(GlWeight((10**12, 0)), GlWeight((1, 0))) is True
    assert not integral_condition(GlWeight((10**12, 0)), GlWeight((1, -1)))
    assert time.perf_counter() - start < 1.0


def _product_scan_basis(M, depth):
    """TensorModule.basis as a scan of every product of factor shifts: the reference."""
    keys = [k for k in itertools.product(*(f.deltas(depth) for f in M.factors))
            if M.depth_of(k) <= depth]
    keys.sort(key=lambda k: (M.depth_of(k), tuple(d.key() for d in k)))
    return keys


@pytest.mark.parametrize("weights", [
    [(1, 0)],
    [(1, 0), (3, 1)],
    [(Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 5))],
    [(2, 1, 0), (Fraction(1, 3), Fraction(1, 7), 0)],
    [(1, 0), (Fraction(1, 2), 0), (2, 0)],
    [(2, 2, 0, -1), (1, 0, 0, 0)],
], ids=lambda ws: "-".join("x".join(str(v) for v in w) for w in ws))
def test_basis_walk_matches_product_scan(weights):
    M = TensorModule([EvaluationFactor(GlWeight(w), depth=4) for w in weights], depth=4)
    for depth in range(5):
        assert M.basis(depth) == _product_scan_basis(M, depth), depth


def test_basis_past_member_cap_is_value_error_quickly():
    # four generic gl_2 factors have 81 shifts each at depth 80: C(84, 4) keys,
    # and 81^4 = 43M products for a scan
    ws = [(Fraction(1, 3), Fraction(1, 7)), (Fraction(1, 5), Fraction(1, 2)),
          (Fraction(2, 9), 0), (Fraction(1, 11), Fraction(3, 4))]
    M = TensorModule([EvaluationFactor(GlWeight(w), depth=80) for w in ws], depth=80)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {MAX_WINDOW_MEMBERS} members"):
        M.basis()
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_singular_dimensions_lists_offsets_in_product_order(n):
    for depth in range(-1, 6):
        want = [c for c in itertools.product(range(depth + 1), repeat=n - 1)
                if sum(c) <= depth]
        assert list(yt._offsets(n - 1, depth)) == want, (n, depth)
    # singular_dimensions probes exactly those offsets, in that order
    M = TensorModule([EvaluationFactor(GlWeight((1,) + (0,) * (n - 1)), depth=2)], depth=2)
    assert list(singular_dimensions(M)) == list(yt._offsets(n - 1, 2))


def test_weight_spaces_past_the_cap_are_refused_before_any_probe(monkeypatch):
    # a finite-dimensional gl_3 product: no member cap bounds the depth
    M = TensorModule([EvaluationFactor(GlWeight((1, 0, 0)), depth=3) for _ in range(2)], depth=3)
    assert len(singular_dimensions(M)) == math.comb(3 + 2, 2) == 10
    monkeypatch.setattr(yt, "MAX_WEIGHT_SPACES", 9)
    monkeypatch.setattr(yt, "find_singular_vectors", None)  # never reached
    with pytest.raises(ValueError, match="depth 3 has more than 9 root offsets for gl_3"):
        singular_dimensions(M)


def test_evaluation_action_r1_matrix():
    M = TensorModule([EvaluationFactor(GlWeight((1, 0)), point=0, depth=2)], depth=2)
    top = M.highest()
    (lowered,) = [k for k in M.basis(1) if k != top]
    assert set(t_coefficient(M, 2, 1, 1, {top: Fraction(1)})) == {lowered}
    # point 0 kills every higher coefficient
    assert all(t_coefficient(M, 2, 1, 2, {k: Fraction(1)}) == {} for k in M.basis(2))


def test_evaluation_action_scales_by_powers_of_the_point():
    # t_ij(u) = delta_ij + E_ij / (u - a), so t_ij^(r) = a^(r-1) E_ij on one factor
    a = Fraction(3, 2)
    M = TensorModule([EvaluationFactor(GlWeight((2, 1, 0)), point=a, depth=2)], depth=2)
    (f,) = M.factors
    for key in M.basis(2):
        for i in range(1, 4):
            for j in range(1, 4):
                first = t_coefficient(M, i, j, 1, {key: Fraction(1)})
                image = f.E(i, j, {key[0]: Fraction(1)})
                assert first == {(d,): c for d, c in image.items()}
                for r in (2, 3):
                    scaled = {k: c * a ** (r - 1) for k, c in first.items()}
                    assert t_coefficient(M, i, j, r, {key: Fraction(1)}) == scaled


def test_evaluation_action_diagonal_on_highest():
    f = EvaluationFactor(GlWeight((1, 0)), point=0, depth=1)
    M = TensorModule([f], depth=1)
    top = M.highest()
    for i, lam in enumerate(f.weight.values, start=1):
        img = t_coefficient(M, i, i, 1, {top: Fraction(1)})
        assert img.get(top, Fraction(0)) == lam


def test_coproduct_top_vector():
    lam, mu = GlWeight((1, 0)), GlWeight((Fraction(1, 3), Fraction(1, 7)))
    M = TensorModule([EvaluationFactor(lam, depth=1),
                      EvaluationFactor(mu, depth=1)], depth=1)
    top = M.highest()
    img = t_coefficient(M, 1, 1, 1, {top: Fraction(1)})
    assert img[top] == lam.values[0] + mu.values[0]
    # t_11^(1) is primitive, so it acts on every basis vector by the summed E_11 weight
    for key in M.basis():
        expected = sum(f.gl_weight(d)[0] for f, d in zip(M.factors, key))
        assert t_coefficient(M, 1, 1, 1, {key: Fraction(1)}) == (
            {key: expected} if expected != 0 else {}
        )


def test_coproduct_weight_additivity():
    M = TensorModule([EvaluationFactor(GlWeight((1, 0)), depth=2),
                      EvaluationFactor(GlWeight((Fraction(1, 3), 0)), depth=2)],
                     depth=2)
    for src in M.basis():
        for tgt in t_coefficient(M, 2, 1, 1, {src: Fraction(1)}):
            assert M.depth_of(tgt) == M.depth_of(src) + 1


def test_quantum_minor_one_by_one():
    M = TensorModule([EvaluationFactor(GlWeight((1, 0)), depth=2)], depth=2)
    top = M.highest()
    s = quantum_minor(M, [1], [1], 3).apply({top: Fraction(1)})[top]
    assert s.constant == 1 and s.coeff(1) == 1  # 1 + lambda_1 u^{-1}


def test_quantum_minor_repeated_index_vanishes():
    M = TensorModule([EvaluationFactor(GlWeight((1, 0)), depth=2)], depth=2)
    m = quantum_minor(M, [1, 1], [1, 2], 3)
    assert m.repeated
    assert m.apply({M.highest(): Fraction(1)}) == {}


def test_quantum_minor_antisymmetry():
    M = TensorModule([EvaluationFactor(GlWeight((Fraction(1, 2), 0)), depth=2),
                      EvaluationFactor(GlWeight((Fraction(1, 5), 0)), depth=2)],
                     depth=2)
    for key in M.basis(2):
        a = quantum_minor(M, [1, 2], [1, 2], 3).apply({key: Fraction(1)})
        b = quantum_minor(M, [2, 1], [1, 2], 3).apply({key: Fraction(1)})
        c = quantum_minor(M, [1, 2], [2, 1], 3).apply({key: Fraction(1)})
        assert set(a) == set(b) == set(c)
        for k in a:
            assert (a[k] + b[k]).constant == 0
            assert all(x == 0 for x in (a[k] + b[k]).coeffs)
            assert all(x == 0 for x in (a[k] + c[k]).coeffs)


def test_drinfeld_a_on_highest():
    lam = GlWeight((2, -1))
    M = TensorModule([EvaluationFactor(lam, depth=1)], depth=1)
    top = M.highest()
    s = quantum_minor(M, [1, 2], [1, 2], 3).apply({top: Fraction(1)})[top]
    assert s.constant == 1
    assert s.coeff(1) == lam.values[0] + lam.values[1]


def test_singular_top_line():
    M = TensorModule([EvaluationFactor(GlWeight((1, 0)), depth=2),
                      EvaluationFactor(GlWeight((1, 0)), depth=2)], depth=2)
    vecs = find_singular_vectors(M, (0,))
    assert len(vecs) == 1
    assert set(vecs[0]) == {M.highest()}


def test_equal_point_integral_pair_only_top():
    M = TensorModule([EvaluationFactor(GlWeight((1, 0)), depth=2),
                      EvaluationFactor(GlWeight((1, 0)), depth=2)], depth=2)
    dims = singular_dimensions(M, 2)
    assert dims == {(0,): 1, (1,): 0, (2,): 0}
    assert only_top_singular(M, 2)


def test_generic_pair_only_top():
    M = TensorModule(
        [EvaluationFactor(GlWeight((Fraction(1, 2), 0)), depth=2),
         EvaluationFactor(GlWeight((Fraction(1, 3), Fraction(1, 5))), depth=2)],
        depth=2,
    )
    assert only_top_singular(M, 2)


def test_violating_pair_gains_singular_vector():
    lam, mu = GlWeight((1, 0)), GlWeight((3, 1))
    assert not integral_condition(lam, mu)
    M = TensorModule([EvaluationFactor(lam, depth=2),
                      EvaluationFactor(mu, depth=2)], depth=2)
    assert len(find_singular_vectors(M, (1,))) >= 1
    assert not only_top_singular(M, 2)


def _tensor(weights, points, depth):
    return TensorModule(
        [EvaluationFactor(GlWeight(w), p, depth) for w, p in zip(weights, points)], depth
    )


@pytest.mark.parametrize("call", [
    lambda M: TensorModule(M.factors, -2),
    lambda M: M.basis(-1),
    lambda M: singular_dimensions(M, -1),
    lambda M: only_top_singular(M, -1),
    lambda M: M.factors[0].deltas(-1),
], ids=["module", "basis", "singular-dimensions", "only-top-singular", "factor-deltas"])
def test_a_negative_depth_is_value_error(call):
    """A negative depth holds no key and no offset, so a report over it would
    be vacuous: every entry point refuses it."""
    M = _tensor([("1/3", 0), ("1/5", "1/7")], [0, 1], 2)
    with pytest.raises(ValueError, match="depth must be >= 0, got -"):
        call(M)


@pytest.mark.parametrize("call, value", [
    (lambda M: TensorModule(M.factors, 2.9), "depth must be an integer, got 2.9"),
    (lambda M: M.basis(Fraction(3, 2)), "depth must be an integer, got 3/2"),
    (lambda M: singular_dimensions(M, 2.5), "depth must be an integer, got 2.5"),
    (lambda M: M.factors[0].deltas(2.5), "depth must be an integer, got 2.5"),
    (lambda M: M.weight_space((Fraction(3, 2),)), "offset entry must be an integer, got 3/2"),
    (lambda M: find_singular_vectors(M, (Fraction(3, 2),)),
     "offset entry must be an integer, got 3/2"),
    (lambda M: quantum_minor(M, (1.5,), (2,), 2), "row index must be an integer, got 1.5"),
    (lambda M: quantum_minor(M, (1,), (2.9,), 2), "column index must be an integer, got 2.9"),
    (lambda M: quantum_minor(M, (1,), (2,), 2.5), "truncation order must be an integer, got 2.5"),
    (lambda M: quantum_minor(M, (1,), (2,), 2, Fraction(1, 2)), "lo must be an integer, got 1/2"),
    (lambda M: quantum_minor(M, (1,), (2,), 2, 0, 1.5), "hi must be an integer, got 1.5"),
    (lambda M: t_coefficient(M, 1.5, 2, 2, {M.highest(): Fraction(1)}),
     "row index must be an integer, got 1.5"),
    (lambda M: t_coefficient(M, 2, Fraction(3, 2), 2, {M.highest(): Fraction(1)}),
     "column index must be an integer, got 3/2"),
    (lambda M: t_coefficient(M, 2, 1, 2.5, {M.highest(): Fraction(1)}),
     "coefficient index r must be an integer, got 2.5"),
], ids=["module", "basis", "singular-dimensions", "factor-deltas", "weight-space",
        "singular-vectors", "minor-row", "minor-column", "minor-order", "minor-lo", "minor-hi",
        "t-row", "t-column", "t-r"])
def test_a_non_integral_depth_or_offset_is_value_error(call, value):
    """A depth of 2.9 or an offset of 3/2 is not truncated to 2 or 1: every
    entry point refuses it, and takes an integral Fraction as its integer."""
    M = _tensor([("1/3", 0), ("1/5", "1/7")], [0, 1], 2)
    with pytest.raises(ValueError, match=f"^{re.escape(value)}$"):
        call(M)
    assert TensorModule(M.factors, Fraction(2)).depth == 2
    assert M.basis(Fraction(1)) == M.basis(1)
    assert M.weight_space((Fraction(1),)) == M.weight_space((1,))
    assert find_singular_vectors(M, (Fraction(1),)) == find_singular_vectors(M, (1,))
    top = {M.highest(): Fraction(1)}
    assert t_coefficient(M, Fraction(2), Fraction(1), Fraction(2), top) == (
        t_coefficient(M, 2, 1, 2, top)) != {}
    whole = quantum_minor(M, (Fraction(2),), (Fraction(1),), Fraction(2), Fraction(0),
                          Fraction(2)).apply(top)
    assert whole == quantum_minor(M, (2,), (1,), 2).apply(top) != {}


@pytest.mark.parametrize("lo, hi", [(-1, 2), (0, 3), (2, 1), (3, None)])
def test_factor_slots_out_of_range_is_value_error(lo, hi):
    """Slot -1 does not wrap to the last factor, and slot 3 of two factors is
    refused before any image is built."""
    M = _tensor([("1/3", 0), ("1/5", "1/7")], [0, 1], 2)
    with pytest.raises(ValueError, match="^factor slots need 0 <= lo <= hi <= 2, got lo "):
        quantum_minor(M, (1,), (2,), 2, lo, hi)


def _count_eliminations(monkeypatch):
    """Record the number of keys for each `_dependencies` run."""
    calls = []
    dependencies = yt._dependencies

    def counting_dependencies(M, offset, order):
        calls.append(len(M._space(offset)))
        return dependencies(M, offset, order)

    monkeypatch.setattr(yt, "_dependencies", counting_dependencies)
    return calls


def _order(M, offset):
    return M.n * max(sum(offset), 1) + M.n


def test_weight_space_groups_the_basis_once_per_depth(monkeypatch):
    M = _tensor([(2, 1, 0), (Fraction(1, 3), Fraction(1, 7), 0)], [0, Fraction(1, 2)], 3)
    ref = _tensor([(2, 1, 0), (Fraction(1, 3), Fraction(1, 7), 0)], [0, Fraction(1, 2)], 3)
    calls = []
    walk = TensorModule._walk
    monkeypatch.setattr(TensorModule, "_walk", lambda self, depth: (
        calls.append(depth) if self is M else None) or walk(self, depth))
    offsets = [c for c in itertools.product(range(4), repeat=2) if sum(c) <= 3]
    for offset in offsets * 2:
        space = M.weight_space(offset)
        assert space == [k for k in ref.basis(sum(offset)) if ref.root_offset(k) == offset]
        space.clear()  # the caller's copy; the module keeps its own
    assert sorted(calls) == [0, 1, 2, 3]


def test_singular_dimensions_groups_one_basis_for_every_depth(monkeypatch):
    # a finite-dimensional pair whose points differ by 1, with a singular
    # vector at offset 1; every weight space past depth 2 is empty
    M = _tensor([(1, 0), (1, 0)], [0, -1], 40)
    ref = _tensor([(1, 0), (1, 0)], [0, -1], 40)
    calls = []
    walk = TensorModule._walk
    monkeypatch.setattr(TensorModule, "_walk", lambda self, depth: (
        calls.append(depth) if self is M else None) or walk(self, depth))
    dims = singular_dimensions(M)
    assert calls == [40]
    # the reference groups each depth's basis as its offset is probed
    assert dims == {(h,): len(find_singular_vectors(ref, (h,))) for h in range(41)}
    assert dims[(0,)] == dims[(1,)] == 1 and sum(dims.values()) == 2


@pytest.mark.parametrize("layer, error", [
    (yt, "tensor basis"),
    (gt_module, "basis window"),
], ids=["tensor-basis", "basis-window"])
def test_singular_dimensions_past_a_member_cap_is_refused_before_any_probe(
        monkeypatch, layer, error):
    # two generic gl_2 factors at depth 30: each factor has 31 shifts and the
    # product C(32, 2) = 496 keys, so lowering the tensor basis's cap to 20
    # names the tensor basis, and lowering the windows' cap names a factor's
    # window; either is raised by the whole depth's grouping, before any
    # weight space is probed
    calls = _count_eliminations(monkeypatch)
    monkeypatch.setattr(layer, "MAX_WINDOW_MEMBERS", 20)
    M = _tensor([("1/3", "1/7"), ("1/5", "1/2")], [0, 0], 30)
    with pytest.raises(ValueError, match=f"^{error} has more than 20 members$"):
        singular_dimensions(M)
    assert calls == []


def test_each_weight_space_past_the_top_runs_one_elimination(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    M = _tensor([("1/3", 0), ("1/5", "1/7")], [0, 1], 3)
    assert singular_dimensions(M) == {(0,): 1, (1,): 0, (2,): 0, (3,): 0}
    # offset 0 is the highest vector alone, a one-key elimination with no rows
    assert calls == [len(M.weight_space((h,))) for h in (0, 1, 2, 3)] == [1, 2, 3, 4]


@pytest.mark.parametrize("weights, points", [
    ([("1/3",)], [0]),
    ([(2,), ("-1/2",)], [0, "1/3"]),
    ([(1, 0)], [0]),
    ([("1/3", 0), ("1/5", "1/7")], [0, 1]),
    ([(2, 1, 0), ("1/3", "1/7", 0)], [0, 0]),
    ([("1/2", "-1/2", 1), (-1, -1, "3/2")], [0, 0]),
], ids=["gl1", "gl1-pair", "gl2", "gl2-pair", "gl3-pair", "gl3-half-integral"])
def test_top_space_is_its_own_kernel(weights, points):
    """At offset 0 the elimination applies no raising row, so its one key,
    the highest vector, is the whole kernel."""
    M = _tensor(weights, points, 2)
    top = (0,) * (M.n - 1)
    assert M.weight_space(top) == [M.highest()]
    assert find_singular_vectors(M, top) == [{M.highest(): Fraction(1)}]


P = 2**61 - 1


@pytest.mark.parametrize("modulus, weights", [
    (3, [("1/3", 0), ("1/5", "1/7")]),
    (P, [(Fraction(1, P), 0), ("1/3", "1/5")]),
])
def test_denominator_divisible_by_a_prime_is_decided_exactly(
        monkeypatch, modulus, weights):
    """No elimination reduces mod a prime: a weight denominator that the
    prime divides (3, or the Mersenne prime 2^61 - 1) is decided by
    the same exact integer elimination, one run per space."""
    assert any(Fraction(x).denominator % modulus == 0 for x in weights[0])
    calls = _count_eliminations(monkeypatch)
    M = _tensor(weights, [0, 1], 3)
    # the exact result: only the top line is singular
    assert singular_dimensions(M) == {(0,): 1, (1,): 0, (2,): 0, (3,): 0}
    assert len(calls) == 4


def test_rank_drop_mod_p_is_decided_in_fraction():
    """The two keys' raising images are dependent mod 3 but not over the
    rationals; the exact elimination finds no singular vector."""
    M = _tensor([("2", "0"), ("1", "0")], [0, 1], 3)
    assert len(M._space((1,))) == 2
    rows = _raising_rows(M, (1,), _order(M, (1,)))
    minors = [u[0] * v[1] - u[1] * v[0] for u, v in itertools.combinations(rows, 2)]
    assert all(m.denominator % 3 for m in minors)
    assert all(m.numerator % 3 == 0 for m in minors)  # rank 1 mod 3
    assert any(minors)  # rank 2 over the rationals
    assert find_singular_vectors(M, (1,)) == []


def _corpus_pairs(n, count, rng):
    """Generic, integral-true and integral-violated pairs of gl_n weights."""
    pairs = {"generic": [], "integral-true": [], "integral-violated": []}
    while any(len(v) < count for v in pairs.values()):
        lam = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
        mu = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
        kind = "integral-true" if integral_condition(GlWeight(lam), GlWeight(mu)) \
            else "integral-violated"
        if len(pairs[kind]) < count:
            pairs[kind].append((lam, mu))
        if len(pairs["generic"]) < count:
            pairs["generic"].append(([Fraction(x, 1) + Fraction(1, 2) for x in lam],
                                     [Fraction(x, 1) + Fraction(1, 3) for x in mu]))
    return pairs


def _raising_rows(M, offset, order):
    """The raising coefficients on the weight space at `offset` as a dense
    `Fraction` matrix: one row per (i, target key, t) coefficient of
    t_{i,i+1}(u), one column per key of member positions, each key's image
    taken on its own."""
    rows = [i for i, c in enumerate(offset, 1) if c]
    images = []
    for key in M._space(offset):
        start = yt._as_series_vec({key: 1}, order, M.scale)
        images.append({
            (i, ok, t): c
            for i in rows
            for ok, s in yt._tensor_t(M, i, i + 1, 0, start, order, 0, len(M.factors)).items()
            for t, c in enumerate(yt._fractions(s, M.scale))
        })
    coords = sorted({coord for image in images for coord in image})
    return [[image.get(coord, Fraction(0)) for image in images] for coord in coords]


def test_integer_elimination_matches_the_fraction_kernel_on_a_seeded_corpus():
    """`_dependencies` scales by integers where Gauss-Jordan divides; its
    vectors are the dense `Fraction` kernel's, entry for entry."""
    rng = random.Random(20261020)
    modules = [(kind, _tensor([lam, mu], [0, 0], depth))
               for n, depth, count in ((2, 4, 6), (3, 3, 3))
               for kind, pairs in _corpus_pairs(n, count, rng).items()
               for lam, mu in pairs]
    modules += [("half-integral", _tensor(pair, [0, 0], 2))
                for lam, mu in _HALF_INTEGRAL_PAIRS for pair in ((lam, mu), (mu, lam))]
    seen = set()
    for kind, M in modules:
        order = len(M.factors)
        for offset in itertools.product(range(M.depth + 1), repeat=M.n - 1):
            keys = M._space(offset)
            if sum(offset) > M.depth or not keys:
                continue
            got = list(yt._dependencies(M, offset, order))
            ref = [{k: c for k, c in zip(keys, v) if c != 0}
                   for v in _rational_kernel(_raising_rows(M, offset, order), len(keys))]
            assert [list(v.items()) for v in got] == [list(v.items()) for v in ref], \
                (kind, [f.weight for f in M.factors], offset)
            assert all(type(c) is Fraction for v in got for c in v.values())
            seen.add((kind, bool(got) and any(offset)))
    # the corpus has extra singular vectors, and pairs without them
    assert {("integral-violated", True), ("half-integral", True)} <= seen
    assert {("generic", False), ("integral-true", False)} <= seen


def _rational_kernel(rows, ncols):
    """Basis of the null space of an exact rational matrix, by dense Gauss-Jordan."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


def _dense_singular_vectors(M, offset):
    """find_singular_vectors from a dense Fraction matrix: one row per nonzero
    (B index, target key, t) coefficient, one column per weight-space key."""
    keys = M.weight_space(offset)
    order = _order(M, offset)
    images = [[drinfeld_b(M, b, order).apply({key: Fraction(1)}) for b in range(1, M.n)]
              for key in keys]
    targets = sorted({ok for per_b in images for img in per_b for ok in img},
                     key=lambda k: tuple(d.key() for d in k))
    rows = []
    for b_idx in range(M.n - 1):
        for ok in targets:
            for t in range(order + 1):
                row = [per_b[b_idx][ok].coeff(t) if ok in per_b[b_idx] else Fraction(0)
                       for per_b in images]
                if any(row):
                    rows.append(row)
    return [{k: c for k, c in zip(keys, v) if c != 0}
            for v in _rational_kernel(rows, len(keys))]


def _corpus_spaces():
    rng = random.Random(20261020)
    for n, depth, count in ((2, 4, 6), (3, 3, 3)):
        for pairs in _corpus_pairs(n, count, rng).values():
            for lam, mu in pairs:
                M = _tensor([lam, mu], [0, 0], depth)
                for offset in itertools.product(range(depth + 1), repeat=n - 1):
                    if sum(offset) <= depth and M.weight_space(offset):
                        yield M, offset


def test_singular_vectors_equal_the_dense_reduced_echelon_basis():
    # (1,0)^{(x)3} at points 0, -1, -2 has two singular vectors at offset (1,)
    nullity_two = _tensor([(1, 0)] * 3, [0, -1, -2], 3)
    combined = 0
    for M, offset in [*_corpus_spaces(), (nullity_two, (1,))]:
        got = find_singular_vectors(M, offset)
        ref = _dense_singular_vectors(M, offset)
        # same keys, same Fractions, same order
        assert [list(v.items()) for v in got] == [list(v.items()) for v in ref], offset
        assert all(type(c) is Fraction for v in got for c in v.values())
        combined += sum(len(v) > 1 for v in ref)
    assert len(_dense_singular_vectors(nullity_two, (1,))) == 2
    assert combined > 2  # vectors that combine several keys, past the nullity-2 case


def test_points_move_no_singular_vector():
    """The twist t(u) -> u/(u - a) t(u) takes the factor of weight lambda at
    point a to the factor of weight lambda - a at point 0 and moves no
    submodule.  So at fractional points, where the module's scale is above
    1, the singular vectors are those of the shifted weights at points 0,
    key for key, on every offset up to the depth."""
    rng = random.Random(20261021)
    points = [Fraction(p, q) for q in (2, 3, 5, 7) for p in (-3, -1, 1, 2) if p % q]
    cases = [([lam, mu], depth) for n, depth, count in ((2, 4, 6), (3, 3, 3))
             for pairs in _corpus_pairs(n, count, rng).values() for lam, mu in pairs]
    # (1,0)^{(x)3} at points 0, -1, -2, two singular vectors at offset (1,),
    # and a singular vector at offset (1,) from the outer factors
    cases += [([(1, 0), (2, 1), (3, 2)], 3), ([(2, 0), ("1/6", "-5/6"), (3, 2)], 3)]
    compared = nonzero = 0
    for weights, depth in cases:
        at = [rng.choice(points) for _ in weights]
        moved = _tensor([[Fraction(v) + a for v in w] for w, a in zip(weights, at)], at, depth)
        still = _tensor(weights, [0] * len(weights), depth)
        assert moved.scale > 1 and still.scale == 1
        for offset in itertools.product(range(depth + 1), repeat=moved.n - 1):
            if sum(offset) <= depth:
                got = find_singular_vectors(moved, offset)
                want = find_singular_vectors(still, offset)
                assert [list(v.items()) for v in got] == [list(v.items()) for v in want], \
                    (weights, at, offset)
                compared += 1
                nonzero += any(offset) and bool(got)
    assert compared > 150 and nonzero > 5


def test_negative_orders_are_value_errors():
    M = _tensor([(1, 0), (1, 0)], [0, 0], 1)
    vec = {M.highest(): Fraction(1)}
    with pytest.raises(ValueError, match="got -1"):
        t_coefficient(M, 1, 2, -1, vec)
    with pytest.raises(ValueError, match="got -1"):
        quantum_minor(M, (1, 2), (1, 2), -1).apply(vec)


def test_malformed_offsets_are_value_errors():
    M = _tensor([("1/3", "1/7", "2/5"), ("1/5", "1/2", "3/11")], [0, 0], 2)
    # too short, too long (both read as the top offset before), and negative
    for offset in ((0,), (0, 0, 0), (2, -1)):
        with pytest.raises(ValueError, match=r"^offset must be 2 nonnegative integers for gl_3, "
                                             + re.escape(f"got {offset}") + "$"):
            find_singular_vectors(M, offset)
    assert find_singular_vectors(M, (0, 0)) == [{M.highest(): Fraction(1)}]


def _recursive_E(f, a, b, vec):
    """E_ab as the nested commutator, recomputed on every call."""
    if a == b:
        out = {}
        for d, c in vec.items():
            val = c * f.gl_weight(d)[a - 1]
            if val != 0:
                out[d] = out.get(d, Fraction(0)) + val
        return out
    if b == a + 1:
        return f.ctx.apply(("e", a, 1), vec, policy=CLIP)
    if a == b + 1:
        return f.ctx.apply(("f", b, 1), vec, policy=CLIP)
    mid = b - 1 if a < b else b + 1
    out = dict(_recursive_E(f, a, mid, _recursive_E(f, mid, b, vec)))
    for d, c in _recursive_E(f, mid, b, _recursive_E(f, a, mid, vec)).items():
        out[d] = out.get(d, Fraction(0)) - c
    return {d: c for d, c in out.items() if c != 0}


@pytest.mark.parametrize("point", [0, Fraction(-2, 5)])
@pytest.mark.parametrize("weight", [
    (1, 0),
    (2, 1, 0),
    (Fraction(1, 3), Fraction(1, 7), 0),
    (2, 2, 0, -1),
    (5, 3, 2, 1, 0),
])
def test_cached_columns_match_recursive_commutators(weight, point):
    depth = 3 if len(weight) <= 3 else 2
    f = EvaluationFactor(GlWeight(weight), point, depth)
    clear_factor_stores()  # the reference gets a core and shape of its own
    ref = EvaluationFactor(GlWeight(weight), point, depth)
    shifts = f.deltas(depth)
    mixed = {d: Fraction(k + 1, 3) for k, d in enumerate(shifts)}
    for a in range(1, f.n + 1):
        for b in range(1, f.n + 1):
            for d in shifts:
                assert f.E(a, b, {d: Fraction(1)}) == _recursive_E(ref, a, b, {d: Fraction(1)})
            assert f.E(a, b, mixed) == _recursive_E(ref, a, b, mixed)


def test_each_column_is_built_once(monkeypatch):
    f = EvaluationFactor(GlWeight((3, Fraction(1, 2), 0, -1)), Fraction(1, 3), depth=2)
    calls = []
    build = f._build_column

    def counting_build(a, b, pos):
        calls.append((a, b, pos))
        return build(a, b, pos)

    monkeypatch.setattr(f, "_build_column", counting_build)
    shifts = f.deltas(2)
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    first = [f.E(a, b, {d: Fraction(1)}) for a, b in pairs for d in shifts]
    assert calls and len(calls) == len(set(calls))
    built = len(calls)
    second = [f.E(a, b, {d: Fraction(1)}) for a, b in pairs for d in shifts]
    assert len(calls) == built
    assert second == first


def test_a_shift_that_breaks_the_relations_is_not_a_factor_member():
    # the (5, 0) pattern keeps its row-1 entry in [0, 5]; three raises leave it
    f = EvaluationFactor(GlWeight((5, 0)), 0, 2)
    M = TensorModule([f], 2)
    outside = TableauDelta({TriIndex(1, 1, 1): 3})
    before = list(f.window.members)
    for call in (
        lambda: f.E(1, 1, {outside: 1}),
        lambda: f.ctx.apply(("f", 1, 1), {outside: Fraction(1)}, CLIP),
        lambda: t_coefficient(M, 1, 2, 1, {(outside,): 1}),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(outside))):
            call()
        assert f.window.members == before


def test_free_window_checks_each_new_member_once(monkeypatch):
    f = EvaluationFactor(GlWeight((3, Fraction(1, 2), 0)), Fraction(1, 3), depth=2)
    window = f.window
    satisfied = window.satisfied
    checked = []

    def counting(coords):
        checked.append(coords)
        return satisfied(coords)

    monkeypatch.setattr(window, "satisfied", counting)
    # the members of depth at most 2 come from `points`, admitted unchecked;
    # each member that a column reaches first is checked once
    listed = {window.coords_of(d) for d in f.deltas(2)}
    for d in f.deltas(2):
        for a in range(1, 4):
            for b in range(1, 4):
                f.E(a, b, {d: Fraction(1)})
    members = [window.coords_of(d) for d in f.window.members]
    assert len(members) > len(listed)
    assert all(checked.count(d) == (d not in listed) for d in members)
    assert all(satisfied(d) for d in members)


def test_out_of_range_indices_raise():
    f = EvaluationFactor(GlWeight((1, 0)), depth=1)
    M = TensorModule([f, EvaluationFactor(GlWeight((2, 0)), depth=1)], depth=1)
    for a, b in ((0, 0), (0, 1), (3, 3), (1, 3)):
        with pytest.raises(IndexError):
            f.E(a, b, {})
        with pytest.raises(IndexError):
            f.column(a, b, f.highest())
        with pytest.raises(IndexError):
            quantum_minor(M, [a], [b], 2).apply({M.highest(): Fraction(1)})
    # no shortcut skips the check: t^(0), the empty vector, repeated rows
    v = {M.highest(): Fraction(1)}
    for call in (lambda: t_coefficient(M, 9, 9, 0, v), lambda: t_coefficient(M, 3, 1, 1, {}),
                 lambda: quantum_minor(M, (3, 3), (1, 2), 2).apply(v)):
        with pytest.raises(IndexError, match="index out of range for gl_2"):
            call()


# -- reference: the full truncated product with the geometric series ---------


def _ref_scale(s, c):
    return InvSeries(s.constant * c, [x * c for x in s.coeffs])


def _ref_accum(out, key, s):
    out[key] = out[key] + s if key in out else s


def _ref_slot_t(M, slot, a, b, arg_shift, vec, order):
    """t_ab(u - arg_shift) on one factor as ser * (sum_m pole^(m-1) u^-m)."""
    f = M.factors[slot]
    pole = Fraction(arg_shift) + f.point
    geom = InvSeries(0, [pole ** (m - 1) for m in range(1, order + 1)])
    out = {}
    for key, ser in vec.items():
        if a == b:
            _ref_accum(out, key, ser)
        col = f.column(a, b, key[slot])
        if not col:
            continue
        prod = ser * geom
        for d2, coeff in col:
            _ref_accum(out, key[:slot] + (d2,) + key[slot + 1:], _ref_scale(prod, coeff))
    return out


def _ref_tensor_t(M, a, b, arg_shift, vec, order, lo, hi, memo=None):
    """t_ab(u - arg_shift) on slots lo..hi-1: sum over mid of t_a,mid on slot
    lo after t_mid,b on the rest.  Within one top-level call only a and lo
    vary, so `memo` keeps each (index, slot) image once."""
    if memo is None:
        memo = {}
    out = memo.get((a, lo))
    if out is not None:
        return out
    if hi - lo == 1:
        out = _ref_slot_t(M, lo, a, b, arg_shift, vec, order)
    else:
        out = {}
        for mid in range(1, M.n + 1):
            inner = _ref_tensor_t(M, mid, b, arg_shift, vec, order, lo + 1, hi, memo)
            if inner:
                for key, ser in _ref_slot_t(M, lo, a, mid, arg_shift, inner, order).items():
                    _ref_accum(out, key, ser)
    memo[a, lo] = out
    return out


def _ref_series_vec(vec, order):
    return {k: c if isinstance(c, InvSeries) else InvSeries(c, [0] * order)
            for k, c in vec.items()}


def _ref_t_coefficient(M, i, j, r, vec):
    out = _ref_tensor_t(M, i, j, 0, _ref_series_vec(vec, r), r, 0, len(M.factors))
    return {k: s.coeff(r) for k, s in out.items() if s.coeff(r) != 0}


def _ref_minor_apply(M, rows, cols, order, vec):
    """The signed sum over permutations; all-zero series are dropped."""
    vec = _ref_series_vec(vec, order)
    out = {}
    for sigma in itertools.permutations(range(len(rows))):
        sgn = 1
        for x, y in itertools.combinations(sigma, 2):
            sgn = -sgn if x > y else sgn
        cur = vec
        for pos in range(len(rows) - 1, -1, -1):
            cur = _ref_tensor_t(M, rows[sigma[pos]], cols[pos], pos, cur, order, 0,
                                len(M.factors))
        for key, s in cur.items():
            _ref_accum(out, key, _ref_scale(s, sgn))
    return {k: s for k, s in out.items()
            if s.constant != 0 or any(c != 0 for c in s.coeffs)}


_POLE_MODULES = {
    # every perfbench job sits at point 0; these put the pole elsewhere too
    "gl2-two": ([((1, 0), 0), ((Fraction(1, 3), Fraction(1, 7)), Fraction(-2, 5))], 2),
    "gl2-three": ([((1, 0), Fraction(3, 2)), ((Fraction(2, 3), -1), 0),
                   ((Fraction(1, 2), Fraction(1, 5)), Fraction(-2, 5))], 2),
    "gl3-two": ([((2, 1, 0), Fraction(3, 2)), ((Fraction(1, 3), Fraction(1, 7), 0),
                                               Fraction(-2, 5))], 1),
    # five factors: three middle slots, where each image is built once for
    # all outer indices
    "gl2-five": ([((1, 0), 0), ((Fraction(1, 3), Fraction(1, 7)), Fraction(-2, 5)),
                  ((Fraction(2, 3), -1), Fraction(3, 2)), ((2, 0), 1),
                  ((Fraction(1, 2), Fraction(1, 5)), Fraction(1, 3))], 1),
}


def _pole_module(name):
    factors, depth = _POLE_MODULES[name]
    return TensorModule([EvaluationFactor(GlWeight(w), p, depth) for w, p in factors], depth)


def _random_series(rng, order):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return InvSeries(frac(), [frac() for _ in range(order)])


@pytest.mark.parametrize("name", sorted(_POLE_MODULES))
def test_t_coefficient_matches_geometric_series_product(name):
    M = _pole_module(name)
    rng = random.Random(20261018)
    keys = M.basis()
    mixed = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in keys}
    for i in range(1, M.n + 1):
        for j in range(1, M.n + 1):
            for r in range(1, 7):
                for key in keys:
                    vec = {key: Fraction(1)}
                    assert t_coefficient(M, i, j, r, vec) == _ref_t_coefficient(M, i, j, r, vec)
                assert t_coefficient(M, i, j, r, mixed) == _ref_t_coefficient(M, i, j, r, mixed)
                # series-valued input of mixed orders, none shorter than r
                series = {k: _random_series(rng, r + rng.randint(0, 2)) for k in keys[:4]}
                assert t_coefficient(M, i, j, r, series) == _ref_t_coefficient(M, i, j, r, series)


@pytest.mark.parametrize("name", sorted(_POLE_MODULES))
def test_quantum_minor_matches_geometric_series_product(name):
    M = _pole_module(name)
    rng = random.Random(20261019)
    keys = M.basis()
    minors = [((a,), (b,)) for a in range(1, M.n + 1) for b in range(1, M.n + 1)]
    minors += [((1, 2), (1, 2)), ((2, 1), (1, 2)), ((1, 2), (2, M.n))]
    for order in range(1, 7):
        inputs = [{k: Fraction(1)} for k in keys[:5]]
        # series values shorter than, equal to and longer than the truncation
        # order, alone and mixed in one vector
        for delta in (-1, 0, 2):
            inputs.append({k: _random_series(rng, max(order + delta, 0)) for k in keys[:3]})
        inputs.append({k: _random_series(rng, order + rng.randint(-1, 2)) for k in keys[:6]})
        for rows, cols in minors:
            op = quantum_minor(M, rows, cols, order)
            for vec in inputs:
                got = op.apply(vec)
                assert got == _ref_minor_apply(M, rows, cols, order, vec)
                assert all(isinstance(s, InvSeries) for s in got.values())


@pytest.mark.parametrize("n, k", [(2, 6), (2, 12), (3, 5)])
def test_coproduct_builds_each_slot_image_once(monkeypatch, n, k):
    """One `_tensor_t` over k factors of gl_n makes at most (k - 2) n^2 + 2n
    `_slot_t` calls, whatever the vector: each (slot, index) image once."""
    M = TensorModule(
        [EvaluationFactor(GlWeight([Fraction(1, 7 * s + t + 2) for t in range(n)]), 0, 1)
         for s in range(k)], 1)
    calls = []
    slot_t = yt._slot_t

    def counted(*args):
        calls.append(args[1])
        return slot_t(*args)

    monkeypatch.setattr(yt, "_slot_t", counted)
    keys = M.basis()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for vec in ({keys[0]: Fraction(1)}, {key: Fraction(1) for key in keys}):
                calls.clear()
                t_coefficient(M, i, j, k, vec)
                assert len(calls) <= (k - 2) * n * n + 2 * n, (i, j)
                assert calls.count(0) <= n and calls.count(k - 1) <= n


def test_factors_are_bounded():
    factors = [EvaluationFactor(GlWeight((Fraction(1, 3), Fraction(1, 5))), 0, 0)]
    assert len(TensorModule(factors * yt.MAX_FACTORS, 0).factors) == yt.MAX_FACTORS
    with pytest.raises(ValueError, match=f"more than {yt.MAX_FACTORS} factors"):
        TensorModule(factors * (yt.MAX_FACTORS + 1), 0)


def test_scaled_series_sums_equal_fraction_sums():
    """`_add_scaled` on integers over one denominator is `add_into` on
    `Fraction` lists, truncation to the shorter series included."""
    rng = random.Random(20261019)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(400):
        fractions, scaled = {}, {}
        for _ in range(rng.randint(1, 5)):
            key = rng.choice("ab")
            ser = [frac() for _ in range(rng.randint(1, 5))]
            c = rng.choice([None, frac()])
            add_into(fractions, key, ser, c)
            s = yt._as_series_vec({0: InvSeries(ser[0], ser[1:])}, 0, 1)[0]
            if c is None:
                yt._add_scaled(scaled, key, s)
            else:
                yt._add_scaled(scaled, key, s, c.numerator, c.denominator)
        assert {k: yt._fractions(s, 1) for k, s in scaled.items()} == fractions
        assert all(s[0] > 0 for s in scaled.values())


# -- truncation order k -------------------------------------------------------


_GENERIC_GL2 = [("1/3", "1/7"), ("2/5", "1/11"), ("1/13", "3/7"), ("5/3", "2/9"),
                ("1/17", "4/5"), ("1/19", "2/23"), ("3/29", "1/31"), ("5/37", "2/41")]


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_many_generic_gl2_factors_have_only_the_top_line(k):
    weights = _GENERIC_GL2[:k]
    assert is_generic([GlWeight(w) for w in weights])
    M = _tensor(weights, [0] * k, 1)
    assert singular_dimensions(M) == {(0,): 1, (1,): 0}


def _seeded_weights(rng, n, kind):
    """A gl_n weight: dominant integral, or generic, with each entry off the integers
    by a fraction over its own prime."""
    if kind == "integral":
        return sorted((rng.randint(0, 2) for _ in range(n)), reverse=True)
    return [rng.randint(-3, 3) + Fraction(rng.randint(1, q - 1), q)
            for q in rng.sample((3, 5, 7, 11, 13), n)]


def test_default_order_kernel_equals_the_kernel_five_orders_past_it():
    rng = random.Random(20261022)
    nonzero = 0
    for n, max_k, depth in ((2, 6, 2), (3, 4, 1), (4, 3, 1)):
        for k in range(2, max_k + 1):
            for kind in ("generic", "integral"):
                weights = [_seeded_weights(rng, n, kind) for _ in range(k)]
                points = [0] * k if kind == "integral" else \
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
                M = _tensor(weights, points, depth)
                for offset in itertools.product(range(depth + 1), repeat=n - 1):
                    if sum(offset) > depth:
                        continue
                    got = find_singular_vectors(M, offset)
                    assert [list(v.items()) for v in got] == [
                        list(zip(M._shift_keys(v), v.values()))
                        for v in yt._dependencies(M, offset, k + 5)
                    ], (weights, points, offset)
                    nonzero += bool(got) and any(offset)
    assert nonzero  # the corpus has singular vectors past the top line


# -- position columns and member positions ------------------------------------


def _seeded_factors(rng):
    """gl_2, gl_3 and gl_4 weights, generic and dominant integral, at nonzero points."""
    return [(_seeded_weights(rng, n, kind),
             rng.choice((-1, 1)) * Fraction(rng.randint(1, 9), rng.randint(2, 5)))
            for n in (2, 3, 4) for kind in ("generic", "generic", "integral")]


# an entry near 2^60, past the faithfulness bound of a window mod 2^61 - 1;
# the exact columns run the same integer code at any size
_LARGE_WEIGHT = (2**60 - 1, 0)


def _fractions(col):
    """A position column's (target, num, den) triples as (target, `Fraction`) pairs."""
    return tuple((p, Fraction(num, den)) for p, num, den in col)


def test_position_columns_equal_recursive_commutators_on_seeded_factors():
    rng = random.Random(20261021)
    for weight, point in _seeded_factors(rng) + [(_LARGE_WEIGHT, Fraction(1, 3))]:
        f = EvaluationFactor(GlWeight(weight), point, 3)
        clear_factor_stores()  # the reference gets a core and shape of its own
        ref = EvaluationFactor(GlWeight(weight), point, 3)
        for d in f.deltas(3):
            pos = f.window.position(d)
            for a in range(1, f.n + 1):
                for b in range(1, f.n + 1):
                    got = {f.window.members[p]: c for p, c in _fractions(f._column(a, b, pos))}
                    assert got == _recursive_E(ref, a, b, {d: Fraction(1)}), (weight, point, a, b, d)


def _row_sum_weight(f, d):
    """The gl_n weight of shift d summed over the tableau rows, row i being
    l_1, ..., l_i at the seed: entry k is sum(row k) - sum(row k - 1) + k - 1."""
    ls = f.weight.l_values()
    rows = [0] + [sum(ls[j - 1] + d.get(TriIndex(1, i, j)) for j in range(1, i + 1))
                  for i in range(1, f.n + 1)]
    return [rows[k] - rows[k - 1] + k - 1 for k in range(1, f.n + 1)]


def test_diagonal_columns_are_the_row_sum_weight():
    rng = random.Random(20261021)
    for weight, point in _seeded_factors(rng) + [(_LARGE_WEIGHT, Fraction(1, 3))]:
        f = EvaluationFactor(GlWeight(weight), point, 3)
        for d in f.deltas(3):
            pos = f.window.position(d)
            for a, w in enumerate(_row_sum_weight(f, d), start=1):
                assert _fractions(f._column(a, a, pos)) == (((pos, w),) if w else ()), (weight, d, a)


def test_weight_gate_columns_equal_the_gelfand_tsetlin_columns():
    """E_aa read off the root offset c is the d_a^(1) column of the action
    context, and a raising E_ab (a < b) that the weight gate skips, some
    c_r = 0 with a <= r < b, is empty when built by the Gelfand-Tsetlin
    formula.  Every other raising column equals the formula's too, and some
    of them would be skipped by a gate one row wider on either side."""
    rng = random.Random(20261043)
    factors = _seeded_factors(rng) + [((2, 2, 0), Fraction(1, 2)), ((3, 1, 0, -2), -1)]
    skipped = widened = 0
    for weight, point in factors:
        f = EvaluationFactor(GlWeight(weight), point, 3)
        clear_factor_stores()  # the reference gets a core and shape of its own
        ref = EvaluationFactor(GlWeight(weight), point, 3)
        for d in f.deltas(3):
            pos, c = f.window.position(d), f.root_offset(d)
            coords = f.window.coords[pos]
            for a in range(1, f.n + 1):
                w = f.ctx._diag_coeff("d", a, 1, coords)
                assert _fractions(f._column(a, a, pos)) == (((pos, w),) if w else ()), (weight, d, a)
            for a, b in itertools.combinations(range(1, f.n + 1), 2):
                want = _recursive_E(ref, a, b, {d: Fraction(1)})
                got = {f.window.members[p]: x for p, x in _fractions(f._column(a, b, pos))}
                assert got == want, (weight, d, a, b)
                if 0 in c[a - 1:b - 1]:
                    assert want == {}, (weight, d, a, b)
                    skipped += 1
                elif want and 0 in c[max(a - 2, 0):b]:
                    widened += 1
    assert skipped and widened


# l = (p - 1, -1, -2) with p = 2^61 - 1: the row-2 entries differ by p
_P_APART = [(P - 1, 0, 0), ("1/3", "1/5", "1/7")]


def test_same_row_difference_divisible_by_a_prime_is_decided_exactly():
    """Row-2 entries a prime apart put that prime in a column denominator;
    the exact columns keep it, and only the top line is singular."""
    M = _tensor(_P_APART, [0, 0], 2)
    f = M.factors[0]
    col = _fractions(f._column(3, 1, f.window.position(f.highest())))
    assert any(c.denominator % P == 0 for _, c in col)
    dims = singular_dimensions(M)
    assert dims == {(0, 0): 1, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 0, (2, 0): 0}


def test_position_columns_are_reduced_integer_triples():
    """Every column of the seeded factors, the large weight and the two
    weights of _P_APART, on each member of depth <= 3, is a tuple of (target,
    num, den) triples in lowest terms with den > 0, and equals the `Fraction`
    reference: the row-sum weight on the diagonal, the recursive commutator
    off it."""
    rng = random.Random(20261052)
    corpus = _seeded_factors(rng) + [(_LARGE_WEIGHT, Fraction(1, 3))] + [(w, 0) for w in _P_APART]
    checked = 0
    for weight, point in corpus:
        f = EvaluationFactor(GlWeight(weight), point, 3)
        clear_factor_stores()  # the reference gets a core and shape of its own
        ref = EvaluationFactor(GlWeight(weight), point, 3)
        for d in f.deltas(3):
            pos = f.window.position(d)
            diagonal = _row_sum_weight(f, d)
            for a in range(1, f.n + 1):
                for b in range(1, f.n + 1):
                    col = f._column(a, b, pos)
                    for _, num, den in col:
                        assert type(num) is int and type(den) is int, (weight, a, b, d)
                        assert num and den > 0 and math.gcd(num, den) == 1, (weight, a, b, d)
                        checked += 1
                    if a == b:
                        w = diagonal[a - 1]
                        assert _fractions(col) == (((pos, w),) if w else ()), (weight, d, a)
                    else:
                        got = {f.window.members[p]: c for p, c in _fractions(col)}
                        assert got == _recursive_E(ref, a, b, {d: Fraction(1)}), (weight, a, b, d)
    assert checked


def _shift_column(f, a, b, d, cache):
    """E_ab on shift d keyed by shifts: the reference for the position-keyed columns."""
    key = (a, b, d)
    if key not in cache:
        if a == b:
            val = f.gl_weight(d)[a - 1]
            col = ((d, val),) if val != 0 else ()
        elif abs(a - b) == 1:
            col = f.ctx.column(("e", a, 1) if b == a + 1 else ("f", b, 1), d, CLIP)
        else:
            mid = b - 1 if a < b else b + 1
            out = {}
            for inner, outer, sign in (((mid, b), (a, mid), 1), ((a, mid), (mid, b), -1)):
                for d1, c1 in _shift_column(f, *inner, d, cache):
                    for d2, c2 in _shift_column(f, *outer, d1, cache):
                        out[d2] = out.get(d2, 0) + sign * c1 * c2
            col = tuple((t, c) for t, c in out.items() if c != 0)
        cache[key] = col
    return cache[key]


def _shift_slot_t(M, slot, a, b, arg_shift, vec, order, caches):
    f = M.factors[slot]
    pole = arg_shift + f.point
    out = {}
    for key, ser in vec.items():
        if a == b:
            add_into(out, key, ser)
        col = _shift_column(f, a, b, key[slot], caches[slot])
        if col:
            p = [0] * min(len(ser), order + 1)
            for t in range(1, len(p)):
                p[t] = ser[t - 1] + pole * p[t - 1]
            for d2, c in col:
                add_into(out, key[:slot] + (d2,) + key[slot + 1:], p, c)
    return out


def _shift_tensor_t(M, a, b, arg_shift, vec, order, lo, caches):
    if lo == len(M.factors) - 1:
        return _shift_slot_t(M, lo, a, b, arg_shift, vec, order, caches)
    out = {}
    for mid in range(1, M.n + 1):
        inner = _shift_tensor_t(M, mid, b, arg_shift, vec, order, lo + 1, caches)
        if inner:
            for key, ser in _shift_slot_t(M, lo, a, mid, arg_shift, inner, order, caches).items():
                add_into(out, key, ser)
    return out


def _shift_series(M, rows, cols, order, vec, caches):
    """A quantum minor on {shift key: scalar}, as coefficient lists, all-zero ones left out."""
    out = {}
    for sigma in itertools.permutations(range(len(rows))):
        sgn = 1
        for x, y in itertools.combinations(sigma, 2):
            sgn = -sgn if x > y else sgn
        cur = {k: [Fraction(c)] + [0] * order for k, c in vec.items()}
        for pos in range(len(rows) - 1, -1, -1):
            cur = _shift_tensor_t(M, rows[sigma[pos]], cols[pos], pos, cur, order, 0, caches)
            if not cur:
                break
        for key, s in cur.items():
            add_into(out, key, s if sgn > 0 else [-x for x in s])
    return {k: s for k, s in out.items() if any(s)}


def _shift_kernel(M, offset, order, caches):
    """The reduced-echelon kernel basis of the B-series coefficients, over shift keys."""
    keys = M.weight_space(offset)
    echelon, kernel = [], []
    for i, key in enumerate(keys):
        vec = {}
        for m in range(1, M.n):
            image = _shift_series(M, range(1, m + 1), [*range(1, m), m + 1], order,
                                  {key: 1}, caches)
            for ok, s in image.items():
                vec.update({(m, ok, t): c for t, c in enumerate(s) if c})
        combo = {i: Fraction(1)}
        for pivot, e, e_combo in echelon:
            c = vec.get(pivot)
            if c:
                for part, src in ((vec, e), (combo, e_combo)):
                    for coord, x in src.items():
                        part[coord] = part.get(coord, 0) - c * x
        vec = {coord: x for coord, x in vec.items() if x}
        if not vec:
            kernel.append({keys[j]: c for j, c in sorted(combo.items()) if c})
            continue
        pivot, c = next(iter(vec.items()))
        vec = {coord: x / c for coord, x in vec.items()}
        echelon.append((pivot, vec, {j: x / c for j, x in combo.items()}))
    return kernel


_KEYED_MODULES = {
    **_POLE_MODULES,
    # extra singular vectors: a violating pair, and nullity two at offset (1,)
    "gl2-violating": ([((1, 0), 0), ((3, 1), 0)], 2),
    "gl2-nullity-two": ([((1, 0), 0), ((1, 0), -1), ((1, 0), -2)], 2),
}


@pytest.mark.parametrize("name", sorted(_KEYED_MODULES))
def test_position_keys_match_a_shift_keyed_reference(name):
    factors, depth = _KEYED_MODULES[name]
    M = TensorModule([EvaluationFactor(GlWeight(w), p, depth) for w, p in factors], depth)
    caches = [{} for _ in M.factors]
    keys = M.basis()
    pairs = [(i, j) for i in range(1, M.n + 1) for j in range(1, M.n + 1)]
    for i, j in pairs:
        for r in (1, 2, 3):
            for key in keys:
                got = t_coefficient(M, i, j, r, {key: Fraction(1)})
                ref = _shift_series(M, (i,), (j,), r, {key: 1}, caches)
                assert list(got.items()) == [(k, s[r]) for k, s in ref.items() if s[r]]
    for rows, cols in [((a,), (b,)) for a, b in pairs] + [((1, 2), (1, 2)), ((2, 1), (1, M.n))]:
        for order in (1, 3):
            op = quantum_minor(M, rows, cols, order)
            for key in keys:
                got = op.apply({key: Fraction(1)})
                ref = _shift_series(M, rows, cols, order, {key: 1}, caches)
                assert list(got.items()) == [(k, InvSeries(s[0], s[1:])) for k, s in ref.items()]
    kernels = 0
    for offset in itertools.product(range(depth + 1), repeat=M.n - 1):
        if sum(offset) <= depth:
            got = find_singular_vectors(M, offset)
            ref = _shift_kernel(M, offset, (M.n - 1) * len(M.factors), caches)
            assert [list(v.items()) for v in got] == [list(v.items()) for v in ref], offset
            kernels += len(got)
    assert kernels >= 1


def test_free_window_members_are_built_once_per_position():
    """`FreeWindow.member(pos)` is one object per position, equal to the shift
    at its coordinates and shared by every factor of the shape; the keys of
    `t_coefficient` and quantum-minor images are those objects, and the
    images equal the shift-keyed reference (`_shift_slot_t`) on the seeded
    factors, paired by rank."""
    rng = random.Random(20261053)
    factors = _seeded_factors(rng)
    for n in (2, 3, 4):
        pair = [(w, p) for w, p in factors if len(w) == n][:2]
        M = TensorModule([EvaluationFactor(GlWeight(w), p, 2) for w, p in pair], 2)
        keys = M.basis()
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        caches = [{} for _ in M.factors]
        images = []
        for i, j in pairs:
            for r in (1, 2):
                for key in keys:
                    got = t_coefficient(M, i, j, r, {key: Fraction(1)})
                    ref = _shift_series(M, (i,), (j,), r, {key: 1}, caches)
                    assert list(got.items()) == [(k, s[r]) for k, s in ref.items() if s[r]]
                    images.append(got)
        for rows, cols in (((1, 2), (1, 2)), ((2, 1), (1, n))):
            op = quantum_minor(M, rows, cols, 2)
            for key in keys:
                got = op.apply({key: Fraction(1)})
                ref = _shift_series(M, rows, cols, 2, {key: 1}, caches)
                assert list(got.items()) == [(k, InvSeries(s[0], s[1:])) for k, s in ref.items()]
                images.append(got)
        for f in M.factors:
            window = f.window
            for pos, coords in enumerate(window.coords):
                assert window.member(pos) is window.member(pos)
                assert window.member(pos) == window.shift(coords)
        for key in [*keys, *(k for image in images for k in image)]:
            for f, d in zip(M.factors, key):
                assert d is f.window.member(f.window.position(d))
    # two generic gl_3 weights have one shape: one window, one shift per member
    f, g = (EvaluationFactor(GlWeight(w)) for w in (("1/3", "1/7", "2/5"), ("1/5", "1/2", "3/11")))
    assert f.window is g.window
    assert all(x is y for x, y in zip(f.deltas(3), g.deltas(3)))


# -- adjacent raising rows ----------------------------------------------------


# half-integral, non-dominant gl_3 pairs: the integral condition holds, and
# one order has a singular vector at offset (1,1)
_HALF_INTEGRAL_PAIRS = [(("1/2", "-1/2", "1"), ("-1", "-1", "3/2")),
                        (("-1", "1/2", "-1"), ("-1/2", "1", "0"))]


def _raising_reference_modules():
    """Seeded gl_3 and gl_4 pairs, the half-integral pairs in both orders, and
    one 3-factor gl_2 product, each with the depth to probe."""
    rng = random.Random(20261027)
    for n, depth, count in ((3, 3, 3), (4, 3, 2)):
        for pairs in _corpus_pairs(n, count, rng).values():
            for lam, mu in pairs:
                yield _tensor([lam, mu], [0, 0], depth), depth
    yield _tensor([_seeded_weights(rng, 4, "generic") for _ in range(2)], [0, 0], 2), 2
    for lam, mu in _HALF_INTEGRAL_PAIRS:
        for pair in ((lam, mu), (mu, lam)):
            yield _tensor(pair, [0, 0], 2), 2
    # a singular vector at offset (1,) from the outer factors, points 0 and -2
    yield _tensor([(2, 0), ("1/2", "-1/2"), (1, 0)], [0, Fraction(1, 3), -2], 3), 3


def test_raising_kernel_equals_the_drinfeld_minor_kernel():
    """The kernel of the t_{i,i+1}(u) is, vector for vector, the kernel of the
    B-series minors B_1, ..., B_{n-1}."""
    extra = set()
    for M, depth in _raising_reference_modules():
        caches = [{} for _ in M.factors]
        for offset in itertools.product(range(depth + 1), repeat=M.n - 1):
            if sum(offset) > depth or not M.weight_space(offset):
                continue
            got = [list(v.items()) for v in find_singular_vectors(M, offset)]
            assert got == [list(v.items()) for v in _dense_singular_vectors(M, offset)], offset
            if M.n == 3 or len(M.factors) == 3:
                ref = _shift_kernel(M, offset, (M.n - 1) * len(M.factors), caches)
                assert got == [list(v.items()) for v in ref], offset
            if got and any(offset):
                extra.add((tuple(f.weight for f in M.factors), offset))
    # the half-integral pairs carry a vector at (1,1) in one order only
    for lam, mu in _HALF_INTEGRAL_PAIRS:
        lam, mu = GlWeight(lam), GlWeight(mu)
        assert [((lam, mu), (1, 1)) in extra, ((mu, lam), (1, 1)) in extra].count(True) == 1
    assert {len(weights) for weights, _ in extra} == {2, 3}  # more extra vectors, k = 2 and 3
    assert any(len(offset) == 3 for _, offset in extra)  # on gl_4 too


def test_raising_rows_off_the_offset_are_empty():
    """Where c_i = 0, t_{i,i+1}(u) is zero on the weight space at offset c, so
    `_dependencies` may skip that row."""
    applied = 0
    for M, depth in _raising_reference_modules():
        order = len(M.factors)
        for offset in itertools.product(range(depth + 1), repeat=M.n - 1):
            keys = M._space(offset)
            if sum(offset) > depth or not keys:
                continue
            for i, c in enumerate(offset, 1):
                for key in keys:
                    start = yt._as_series_vec({key: 1}, order, M.scale)
                    image = yt._tensor_t(M, i, i + 1, 0, start, order, 0, len(M.factors))
                    if c == 0:
                        assert image == {}, (offset, i, key)
                    applied += c > 0 and bool(image)
    assert applied  # the rows with c_i > 0 do act


@pytest.mark.parametrize("spaces", ["corpus", "fractional-points"])
def test_batched_raising_images_equal_the_per_key_images(spaces):
    """`_raising_images` takes a weight space's keys through the coproduct
    together; split by source, each row's image is, series for series and in
    the same order, the key's own `_tensor_t` image.  Off point 0 the
    module's scale is above 1, and the series run in v = scale*u."""
    if spaces == "corpus":
        cases = [(M, offset, len(M.factors)) for M, offset in _corpus_spaces()]
    else:
        modules = [
            _tensor([("1/3", "1/7", "2/5"), ("1/5", "1/2", "3/11")], ["1/2", "-2/3"], 3),
            _tensor([("1/3", "1/7"), ("2/5", "1/11"), ("1/13", "3/7")], ["1/3", 0, "-3/4"], 3),
            _tensor([(1, 0), (1, 0)], ["1/2", "-1/2"], 4),
            _tensor([(2, 1, 0), ("1/2", "-1/2", 1)], ["-5/3", "1/4"], 3),
            _tensor([(2, 2, 0, -1), ("1/3", "1/5", "1/7", "1/11")], ["2/7", "-1/2"], 2),
        ]
        cases = [(M, offset, len(M.factors) + extra)
                 for M in modules for extra in (0, 2)
                 for offset in itertools.product(range(M.depth + 1), repeat=M.n - 1)
                 if sum(offset) <= M.depth and M._space(offset)]
    one = [1, 1]
    compared = 0
    for M, offset, order in cases:
        keys = M._space(offset)
        rows = range(1, M.n)
        batched = yt._raising_images(M, keys, rows, order)
        for key, images in zip(keys, batched):
            assert [i for i, _ in images] == list(rows)
            for i, image in images:
                alone = yt._tensor_t(M, i, i + 1, 0, {key: one + [0] * order}, order,
                                     0, len(M.factors))
                assert list(image.items()) == list(alone.items()), (offset, key, i)
                compared += bool(alone)
    assert compared


# -- the factor-core store ----------------------------------------------------


def _observed(weights, points, depth):
    """What a product shows outside: its singular dimensions, t_ij^(r) for
    r <= k on every basis vector, and every 2x2 quantum minor's images."""
    M = _tensor(weights, points, depth)
    k, keys = len(M.factors), M.basis(depth)
    pairs = list(itertools.combinations(range(1, M.n + 1), 2))
    return (
        singular_dimensions(M, depth),
        [t_coefficient(M, i, j, r, {key: Fraction(1)})
         for i in range(1, M.n + 1) for j in range(1, M.n + 1)
         for r in range(1, k + 1) for key in keys],
        [quantum_minor(M, rows, cols, k).apply({key: Fraction(1)})
         for rows in pairs for cols in pairs for key in keys],
    )


def test_a_warm_factor_store_gives_what_a_cold_one_gives():
    rng = random.Random(20261031)
    corpus = [(depth, [_seeded_weights(rng, n, kind) for _ in range(2)],
               [0, 0] if kind == "integral" else
               [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)])
              for n, depth in ((2, 3), (3, 2)) for kind in ("generic", "integral", "integral")]
    extra = 0
    for depth, weights, points in corpus:
        for ws, ps in ((weights, points), (weights[::-1], points[::-1])):
            clear_factor_stores()
            cold = _observed(ws, ps, depth)
            extra += any(dim for offset, dim in cold[0].items() if any(offset))
            for warm in (
                lambda: _observed(ws[::-1], ps[::-1], depth),  # the other order
                lambda: _observed(ws, [p + Fraction(1, 2) for p in ps], depth),  # other points
                lambda: singular_dimensions(_tensor(ws, ps, depth + 2)),  # a deeper product
            ):
                clear_factor_stores()
                warm()
                assert yt._factor_core.cache_info().currsize == len(set(map(tuple, ws)))
                assert _observed(ws, ps, depth) == cold, (ws, ps)
    assert extra  # the corpus has singular vectors past the top line


def test_one_weight_at_two_points_shares_one_core():
    weight = GlWeight((2, Fraction(1, 2), 0))
    M = TensorModule([EvaluationFactor(weight, 0), EvaluationFactor(weight, Fraction(1, 3))], 2)
    f, g = M.factors
    assert f.window is g.window and f._columns is g._columns
    assert (f.point, g.point) == (0, Fraction(1, 3))
    # past r = 1 the coefficients carry each slot's own pole
    for i in range(1, 4):
        for j in range(1, 4):
            for r in range(1, 4):
                for key in M.basis():
                    vec = {key: Fraction(1)}
                    assert t_coefficient(M, i, j, r, vec) == _ref_t_coefficient(M, i, j, r, vec)


def test_factors_of_one_seed_shape_share_their_window_and_nothing_of_their_values():
    """Generic weights of one rank have seeds of one shape: one relation set,
    window and member lists, built over a seed with no values, and an action
    context and column store per weight.  Seeds that differ in an offset
    alone are two shapes, with two bases."""
    for a, b in ((("1/3", "1/7"), ("2/5", "-1/2")),
                 (("1/3", "1/7", "2/5"), ("1/5", "1/2", "3/11"))):
        f, g = (EvaluationFactor(GlWeight(w)) for w in (a, b))
        assert f.relations is g.relations and f.window is g.window
        assert f._member_lists is g._member_lists
        assert f.ctx is not g.ctx and f._columns is not g._columns
        assert f.seed.value(TriIndex(1, 1, 1)) == Fraction(a[0])
        with pytest.raises(ValueError, match="not instantiated"):
            f.window.seed.value(TriIndex(1, 1, 1))
    # the seeds of (0, 0) and (0, -1) have entries (0, 0), (0, 0) and (0, -1)
    # against (0, -2): one class each, one offset apart
    f, g = EvaluationFactor(GlWeight((0, 0))), EvaluationFactor(GlWeight((0, -1)))
    assert f.seed.entries != g.seed.entries
    assert {cls for cls, _ in f.seed.entries.values()} == {cls for cls, _ in g.seed.entries.values()}
    assert f.window is not g.window and f._member_lists is not g._member_lists
    assert (len(f.deltas(2)), len(g.deltas(2))) == (1, 2)  # the gl_2 dimensions


def test_warm_shared_shapes_in_any_order_give_what_cold_stores_give():
    """Each product's singular dimensions, t_ij^(r) images and quantum-minor
    images are the same when every store is emptied before it as when the
    products run shuffled on warm shapes that other weights built."""
    rng = random.Random(20261049)
    corpus = [
        ([_seeded_weights(rng, n, kind) for _ in range(2)],
         [0, 0] if at_zero else [Fraction(rng.randint(-4, 4), rng.randint(2, 5)) for _ in range(2)],
         depth)
        for n, depth in ((2, 3), (3, 2)) for kind in ("generic", "integral")
        for at_zero in (True, False) for _ in range(2)
    ]
    cold = []
    for ws, ps, depth in corpus:
        clear_factor_stores()
        cold.append(_observed(ws, ps, depth))
    clear_factor_stores()
    order = list(range(len(corpus)))
    rng.shuffle(order)
    for idx in order:
        assert _observed(*corpus[idx]) == cold[idx], corpus[idx]
    weights = {tuple(w) for ws, _, _ in corpus for w in ws}
    assert yt._factor_shape.cache_info().currsize < len(weights)  # some shapes were shared
    assert any(any(dim for offset, dim in dims.items() if any(offset)) for dims, _, _ in cold)


def test_the_factor_store_stays_bounded():
    bound = yt.FACTOR_MEMO_SIZE
    first = EvaluationFactor(GlWeight((0, 0)))
    for k in range(1, 2 * bound):
        EvaluationFactor(GlWeight((k, 0)))
        assert yt._factor_core.cache_info().currsize == min(k + 1, bound)
    # the least recently used core went first: (0, 0) is built afresh
    assert EvaluationFactor(GlWeight((0, 0))).window is not first.window
    last = GlWeight((2 * bound - 1, 0))
    assert EvaluationFactor(last).window is EvaluationFactor(last).window


def test_a_weight_whose_factor_fails_is_never_stored():
    errors = []
    for _ in range(3):
        with pytest.raises(ValueError) as info:
            EvaluationFactor(GlWeight((0, 1)))
        errors.append(str(info.value))
    assert errors == ["weight ['0', '1'] has no factor: tableau is critical"] * 3
    info = yt._factor_core.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 3)
