"""Library checks that the CLI never runs, one function each.

`python ci/programs.py NAME` prints what NAME returns; `test_checks.py` runs
each one in a child process, killed at its time bound, and pins its bytes.
The library is read from `src` and the test helpers from `tests`.
"""

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import (  # noqa: E402
    _reference_is_admissible, gl_relations_hold, reference_walk_order, relation_subsets,
    relation_table_digest, spread_seed,
)
from wpimod import (  # noqa: E402
    CriticalityError, EvaluationFactor, GlWeight, Pyramid, RelationSet, TensorModule,
    cyclicity_probe, enumerate_basis, generic_instantiate, is_admissible,
    noncritical_satisfying_tableau, singular_dimensions, standard_set,
)
from wpimod.gt_module import (  # noqa: E402
    CLIP, STRICT, ActionContext, WindowOverflowError, _relation_table,
)
from wpimod.supports import _WallSets  # noqa: E402
from wpimod.yangian_tensor import quantum_minor, t_coefficient  # noqa: E402


def keys(vec):
    """A sparse image as sorted (key, value) pairs."""
    return sorted((k.key(), str(c)) for k, c in vec.items())


def gl3_box():
    """The 55 pairs of dominant gl_3 weights with entries in [0, 2], in both
    orders at depth 3, in one process, where factors of one weight share one
    stored core."""
    box = [w for w in itertools.product(range(3), repeat=3) if w[0] >= w[1] >= w[2]]
    lines = []
    for pair in itertools.combinations_with_replacement(box, 2):
        for weights in (pair, pair[::-1]):
            M = TensorModule([EvaluationFactor(GlWeight(w), 0) for w in weights], 3)
            dims = {",".join(map(str, k)): v for k, v in singular_dimensions(M, 3).items()}
            lines.append(json.dumps({"weights": weights, "singular_dimensions": dims},
                                    sort_keys=True))
    return "\n".join(sorted(lines))


def library_paths():
    """cyclicity_probe from every 5th member of the (1,2,2) and (2,2,2)
    standard windows at radius 1 at their spread seeds, and t_coefficient on
    every basis key of the generic gl_3 pair at depth 4, which grows a free
    window."""
    lines = []
    for rows in ((1, 2, 2), (2, 2, 2)):
        C = standard_set(Pyramid(rows))
        window = enumerate_basis(C, spread_seed(C), 1)
        for start in window.members[::5]:
            try:
                reached = sorted(d.key() for d in cyclicity_probe(window, start, 2))
            except CriticalityError as exc:
                reached = str(exc)
            lines.append(json.dumps({"rows": rows, "start": start.key(), "reached": reached}))
    weights = [["1/3", "1/7", "2/5"], ["1/5", "1/2", "3/11"]]
    M = TensorModule([EvaluationFactor(GlWeight(w), 0) for w in weights], 4)
    for key in M.basis(4):
        for i, j, r in ((1, 2, 2), (2, 1, 1), (1, 3, 2), (3, 3, 2)):
            out = sorted(([d.key() for d in k], str(c))
                         for k, c in t_coefficient(M, i, j, r, {key: 1}).items())
            lines.append(json.dumps({"ijr": [i, j, r], "key": [d.key() for d in key],
                                     "image": out}))
    return "\n".join(sorted(lines))


def gl4_probe():
    """cyclicity_probe at budget 2 from every 20th member of the gl_4
    standard window at radius 3 at its spread seed (800 members)."""
    C = standard_set(Pyramid((1, 1, 1, 1)))
    window = enumerate_basis(C, spread_seed(C), 3)
    lines = []
    for start in window.members[::20]:
        try:
            reached = sorted(d.key() for d in cyclicity_probe(window, start, 2))
        except CriticalityError as exc:
            reached = str(exc)
        lines.append(json.dumps({"start": start.key(), "reached": reached}))
    return "\n".join(sorted(lines))


def t_matrices():
    """t_ij^(r) for every i, j and r <= 2, and the 2x2 quantum minor of rows
    (1, 2) and columns (2, 3) at order 2, on every basis key of depth <= 3
    of the generic gl_3 pair at points 0 and 1/2."""
    weights = [["1/3", "1/7", "2/5"], ["1/5", "1/2", "3/11"]]
    M = TensorModule([EvaluationFactor(GlWeight(w), p) for w, p in zip(weights, (0, "1/2"))], 3)
    minor = quantum_minor(M, (1, 2), (2, 3), 2)
    lines = []
    for key in M.basis(3):
        name = [d.key() for d in key]
        for i, j, r in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
            image = sorted(([d.key() for d in k], str(c))
                           for k, c in t_coefficient(M, i, j, r, {key: 1}).items())
            lines.append(json.dumps({"ijr": [i, j, r], "key": name, "image": image}))
        image = sorted(([d.key() for d in k], repr(s)) for k, s in minor.apply({key: 1}).items())
        lines.append(json.dumps({"minor": name, "image": image}))
    return "\n".join(sorted(lines))


def sparse_sums():
    """EvaluationFactor.E for every (a, b) of a gl_4 factor at point 1/3 on
    every shift of depth <= 3 (E_14 and E_41 are nested commutators of cached
    columns), ActionContext.apply (one member and a spread vector) and
    apply_word under CLIP and STRICT on the gl_3 standard window at radius 2,
    and one quantum determinant on a three-factor gl_2 product."""
    lines = []
    f = EvaluationFactor(GlWeight(["1/2", "-3/5", "2/7", "1/11"]), "1/3")
    for d in f.deltas(3):
        for a, b in itertools.product(range(1, 5), repeat=2):
            image = keys(f.E(a, b, {d: Fraction(1, 2)}))
            lines.append(json.dumps({"E": [a, b], "shift": d.key(), "image": image}))
    C = standard_set(Pyramid((1, 1, 1)))
    seed = spread_seed(C)
    window = enumerate_basis(C, seed, 2)
    ctx = ActionContext(window, generic_instantiate(seed.classes(), 1))
    gens = [("d", 2, 2), ("dprime", 3, 2), ("e", 1, 1), ("e", 2, 2), ("f", 1, 2), ("f", 2, 1)]
    words = [[x, y] for x in gens for y in gens] + [[("e", 1, 1), ("f", 2, 1), ("e", 2, 1)]]
    spread = {d: Fraction(k + 1, 3) for k, d in enumerate(window.members)}

    def applied(act, *args):
        try:
            return keys(act(*args))
        except WindowOverflowError:
            return "overflow"

    for policy in (CLIP, STRICT):
        for gen in gens:
            for name, vec in [*((d.key(), {d: 1}) for d in window.members), ("spread", spread)]:
                lines.append(json.dumps({"apply": gen, "policy": policy, "vec": name,
                                         "image": applied(ctx.apply, gen, vec, policy)}))
        for word in words:
            for d in window.members:
                lines.append(json.dumps({"word": word, "policy": policy, "shift": d.key(),
                                         "image": applied(ctx.apply_word, word, d, policy)}))
    M = TensorModule([EvaluationFactor(GlWeight(w), p) for w, p in
                      ((["1/3", "1/7"], 0), (["1/5", "-2/9"], "1/2"), ([2, 0], "-1/4"))], 2)
    qdet = quantum_minor(M, (1, 2), (1, 2), 4)
    for key in M.basis(2):
        image = sorted(([d.key() for d in k], repr(s)) for k, s in qdet.apply({key: 1}).items())
        lines.append(json.dumps({"qdet": [d.key() for d in key], "image": image}))
    return "\n".join(sorted(lines))


def wall_orders():
    """`_WallSets.order` equals the brute-force `reference_walk_order` for
    every support word of 2 or 3 letters of the (2,2,2), gl_4 and (1,2,2)
    relation tables, at 20 seeded positions of each radius-3 window of the
    empty set and three seeded one-edge sets; the 3 windows past
    MAX_WINDOW_MEMBERS are skipped."""
    rng, radius, checked, skipped = random.Random(3801), 3, 0, 0
    for rows in ((2, 2, 2), (1, 1, 1, 1), (1, 2, 2)):
        pi = Pyramid(rows)
        one_edge = [C for C in relation_subsets(pi, 1) if len(C.edges) == 1]
        words = sorted({w for case in _relation_table(pi, 2) for w in case[4] if len(w) > 1})
        for C in [RelationSet(pi, []), *rng.sample(one_edge, 3)]:
            try:
                window = enumerate_basis(C, noncritical_satisfying_tableau(C), radius)
            except ValueError:
                skipped += 1
                continue
            walls = _WallSets(window)
            for word in words:
                inner = [p for p, c in enumerate(window.coords)
                         if max(map(abs, c)) <= radius - len(word)]
                for pos in rng.sample(inner, min(20, len(inner))):
                    want = reference_walk_order(window, word, pos)
                    assert walls.order(word, pos) == want, (rows, C.edges, word, pos)
                    checked += 1
    assert (checked, skipped) == (4224, 3), (checked, skipped)
    return f"{checked} wall orders equal the brute-force walks, {skipped} windows skipped"


def relabeling():
    """`is_admissible`, certificate included, equals `_reference_is_admissible`,
    which tries every within-row relabeling in turn, on every set of five
    corpora, with each corpus's set count and relabeled count pinned."""
    corpora = [((1, 1, 1, 1), 2, 1373, 18), ((1, 1, 2), 3, 4377, 118),
               ((2, 2), 4, 11939, 118), ((1, 2, 2), 2, 1371, 30), ((1, 1, 1), 4, 8445, 135)]
    for rows, edges, want_sets, want_relabeled in corpora:
        sets = relabeled = 0
        for C in relation_subsets(Pyramid(rows), edges):
            got = is_admissible(C)
            assert got == _reference_is_admissible(C), (rows, sorted(C.edges))
            sets += 1
            relabeled += "relabeling" in got[1]
        assert (sets, relabeled) == (want_sets, want_relabeled), (rows, sets, relabeled)
    return "every relabeling certificate equals the full product's"


def tables_16():
    """The oracle's case tables at budget 16 on twelve pyramids."""
    return "\n".join(
        f"{rows} {relation_table_digest(Pyramid(rows), (16,))}"
        for rows in ((1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2),
                     (1, 1, 3), (1, 1, 1, 1), (1, 2, 2, 3), (1, 1, 1, 1, 1), (1,) * 6))


def good_weights():
    """Every weight of the half-integral gl_3 box and the integral gl_4 box,
    entries in [-2, 2], is refused or has a carrier that satisfies the gl_n
    relations on every member of depth <= 2."""
    halves = [Fraction(k, 2) for k in range(-4, 5)]
    built = 0
    for box in (itertools.product(halves, repeat=3), itertools.product(range(-2, 3), repeat=4)):
        for w in box:
            try:
                f = EvaluationFactor(GlWeight(w))
            except ValueError:
                continue
            assert gl_relations_hold(f, 2), w
            built += 1
    assert built == 416 + 70, built
    return f"{built} factors satisfy the gl_n relations"


if __name__ == "__main__":
    print(globals()[sys.argv[1]]())
