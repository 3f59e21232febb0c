"""Build the job pools and record their reference verdicts.

    python3 perfbench/record.py [workload ...]

writes ``perfbench/data/<workload>.json``.  Inputs come from a fixed
generator seed, so the pools do not depend on the seed a run is given.
Every job is executed once through the benchmark's own runner to record its
exit code, a digest of its verdict fields and its cost; each verdict is then
confirmed a second way where one exists (the ``PoolBuilder.check`` calls).  A
failed confirmation is kept in the pool and listed under ``confirmations``:
the reference records what the program does, and the list shows where that
disagrees with the second method.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from wpimod import (  # noqa: E402
    GlWeight,
    Pyramid,
    RelationSet,
    Tableau,
    TriIndex,
    all_indices,
    all_relations,
    critical_satisfying_tableau,
    enumerate_basis,
    integral_condition,
    is_admissible,
    is_generic,
    is_noncritical_set,
    is_satisfiable,
    maximal_set,
    noncritical_satisfying_tableau,
    permute,
    report_passes,
    satisfies,
    standard_set,
    tableau_from_values,
    verify_defining_relations,
    weyl_dimension,
)
from wpimod.relations import Relation, vertices  # noqa: E402

F = Fraction
GEN_SEED = 20260917

GL2 = Pyramid((1, 1))
GL3 = Pyramid((1, 1, 1))
GL4 = Pyramid((1, 1, 1, 1))
GL5 = Pyramid((1, 1, 1, 1, 1))
P12 = Pyramid((1, 2))
P22 = Pyramid((2, 2))
P122 = Pyramid((1, 2, 2))
P123 = Pyramid((1, 2, 3))
P222 = Pyramid((2, 2, 2))


def pname(pi: Pyramid) -> str:
    return "x".join(str(p) for p in pi.rows)


def relabelings(pi: Pyramid) -> int:
    """Number of within-row relabelings the admissibility loop enumerates."""
    out = 1
    for i in range(1, pi.n + 1):
        out *= math.factorial(sum(1 for t in all_indices(pi) if t.i == i))
    return out


def compact_relations(C: RelationSet) -> dict:
    return {
        "rows": list(C.pyramid.rows),
        "edges": [[list(e.greater), list(e.lesser), e.strict] for e in C.sorted_edges()],
    }


def compact_tableau(l: Tableau) -> dict:
    return {
        "rows": list(l.pyramid.rows),
        "entries": [[t.k, t.i, t.j, str(l.entry(t)[0]), l.entry(t)[1]]
                    for t in all_indices(l.pyramid)],
    }


def set_key(C: RelationSet) -> str:
    return pname(C.pyramid) + ":" + json.dumps(compact_relations(C)["edges"])


def rel(g, l, strict) -> Relation:
    return Relation(TriIndex(*g), TriIndex(*l), bool(strict))


def spread_seed(C: RelationSet, gap: int) -> Tableau:
    """Canonical noncritical seed with offsets scaled by gap, opening the window."""
    seed = noncritical_satisfying_tableau(C)
    return Tableau(C.pyramid, {t: (c, off * gap) for t, (c, off) in seed.entries.items()})


def random_sets(pi, rng, max_edges, seen):
    """Stream of new satisfiable sets with 1..max_edges edges, until they run out."""
    rels = all_relations(pi)
    misses = 0
    while misses < 5000:
        misses += 1
        combo = rng.sample(rels, rng.randint(1, max_edges))
        try:
            C = RelationSet(pi, combo)
        except ValueError:
            continue
        if C in seen or not is_satisfiable(C):
            continue
        seen.add(C)
        misses = 0
        yield C


def take(stream, want, count, limit=4000):
    out = []
    for _, C in zip(range(limit), stream):
        if want(C):
            out.append(C)
            if len(out) == count:
                break
    return out


def random_relabeling_image(C: RelationSet, rng):
    """A within-row relabeled image of C that differs from C, or None."""
    pi = C.pyramid
    rows = sorted({t.i for t in vertices(C)})
    for _ in range(50):
        row = rng.choice(rows)
        pairs = sorted((t.k, t.j) for t in all_indices(pi) if t.i == row)
        if len(pairs) < 2:
            continue
        perm = pairs[:]
        rng.shuffle(perm)
        try:
            img = permute(C, row, dict(zip(pairs, perm)))
        except ValueError:
            continue
        if img != C:
            return img
    return None


# -- pool assembly ------------------------------------------------------------


class PoolBuilder:
    def __init__(self, workload: str):
        self.workload = workload
        self.jobs: dict[str, dict] = {}
        self.classes: list[tuple[str, int, list]] = []  # (name, per pass, units)
        self.confirm: dict[str, dict] = {}
        self.workdir = os.path.join(ROOT, ".perfbench_work", "record-" + workload)
        os.makedirs(self.workdir, exist_ok=True)
        self.runner = jobs.Runner({"jobs": self.jobs}, self.workdir)

    def add(self, jid: str, job: dict) -> dict:
        """Execute a job once and record its reference verdict and cost."""
        assert jid not in self.jobs, jid
        self.jobs[jid] = job
        thunk, finish = self.runner.prepare(jid)
        t0 = time.perf_counter()
        raw = thunk()
        job["cost_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        code, verdict = finish(raw)
        if code not in (0, 3):
            raise RuntimeError(f"{jid}: exit {code}: {verdict}")
        job["ref"] = {"exit": code, "digest": jobs.digest(verdict)}
        job["_verdict"] = verdict
        return job

    def cls(self, name: str, per_pass: int, units: list):
        """A class of units; split by cost into per_pass buckets."""
        if len(units) < per_pass:
            raise RuntimeError(f"{name}: {len(units)} units for {per_pass} per pass")
        self.classes.append((name, per_pass, units))

    def check(self, rule: str, jid: str, ok):
        entry = self.confirm.setdefault(rule, {"checked": 0, "agree": 0, "disagree": []})
        entry["checked"] += 1
        if ok:
            entry["agree"] += 1
        else:
            entry["disagree"].append(jid)

    def save(self):
        buckets = []
        for name, per_pass, units in self.classes:
            units = sorted(units, key=lambda u: sum(self.jobs[j]["cost_ms"] for j in u))
            for b in range(per_pass):
                lo = len(units) * b // per_pass
                hi = len(units) * (b + 1) // per_pass
                buckets.append({"class": name, "units": units[lo:hi]})
        used = {j for b in buckets for u in b["units"] for j in u}
        for job in self.jobs.values():
            job.pop("_verdict", None)
        pool = {
            "workload": self.workload,
            "generator_seed": GEN_SEED,
            "buckets": buckets,
            "confirmations": self.confirm,
            "jobs": {j: self.jobs[j] for j in sorted(used)},
        }
        path = os.path.join(jobs.DATA_DIR, self.workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n")
            head = {k: v for k, v in pool.items() if k != "jobs"}
            for k, v in head.items():
                fh.write(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))},\n")
            fh.write('"jobs": {\n')
            items = list(pool["jobs"].items())
            for n, (jid, job) in enumerate(items):
                sep = "," if n + 1 < len(items) else ""
                fh.write(f"{json.dumps(jid)}: "
                         f"{json.dumps(job, sort_keys=True, separators=(',', ':'))}{sep}\n")
            fh.write("}\n}\n")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.report(buckets)

    def report(self, buckets):
        """Print the expected per-pass cost profile and the confirmation summary."""
        profile = []
        for b in buckets:
            units = b["units"]
            for pos in range(len(units[0])):
                profile.append(sum(self.jobs[u[pos]]["cost_ms"] for u in units) / len(units))
        profile.sort()
        n = len(profile)
        print(f"{self.workload}: {len(self.jobs)} jobs, {len(buckets)} buckets, "
              f"{n} jobs/pass, ~{sum(profile) / 1000:.2f} s/pass; "
              f"p50 {profile[n // 2]:.2f} ms, p90 {profile[int(n * 0.9)]:.2f} ms; "
              f"around p90: {[round(c, 1) for c in profile[int(n * 0.9) - 3:int(n * 0.9) + 4]]}",
              file=sys.stderr)
        for rule, entry in self.confirm.items():
            print(f"  confirm {rule}: {entry['agree']}/{entry['checked']} agree; "
                  f"disagree {entry['disagree'][:10]}", file=sys.stderr)


def cli_job(argv, files, props) -> dict:
    return {"kind": "cli", "argv": argv, "files": files, "props": props}


# -- admissibility ------------------------------------------------------------

ADM_PYRAMIDS = (GL3, GL4, P22, P122, P123)


def build_admissibility():
    rng = random.Random(GEN_SEED)
    B = PoolBuilder("admissibility")
    seen: set = set()
    K = 4

    def check_job(jid, C, orbit=None):
        job = B.add(jid, cli_job(
            ["check-admissible", "--relations", "{relations}"],
            {"relations": compact_relations(C)},
            {"pyramid": pname(C.pyramid), "relabelings": relabelings(C.pyramid),
             "orbit": "check:" + (orbit or set_key(C))},
        ))
        job["props"]["admissible"] = job["_verdict"]["admissible"]
        return job

    adm_count = {GL3: 30, GL4: 20, P22: 20, P122: 20, P123: 20}
    # 40 gl_4 non-admissible checks (~50 ms each) put the p90 job time
    # inside one class rather than at a boundary between classes
    nonadm_count = {GL3: 15, GL4: 40, P22: 10, P122: 3, P123: 1}
    reduce_count = {GL3: 15, GL4: 15, P22: 15, P122: 15, P123: 15}
    rr_count = {GL3: 8, GL4: 8, P22: 8, P122: 8, P123: 8}
    orbit_count = {GL3: 9, P22: 6}
    for pi in ADM_PYRAMIDS:
        name = pname(pi)
        stream = random_sets(pi, rng, 5, seen)
        verdict = {}

        def admissible(C):
            if C not in verdict:
                verdict[C] = is_admissible(C)[0]
            return verdict[C]

        for want, label, count in ((True, "adm", adm_count), (False, "nonadm", nonadm_count)):
            sets = take(stream, lambda C: admissible(C) == want, count[pi] * K)
            units = []
            for n, C in enumerate(sets):
                jid = f"{label}-{name}-{n}"
                check_job(jid, C)
                units.append([jid])
            B.cls(f"check-admissible {label} {name}", count[pi], units)
        sets = take(random_sets(pi, rng, 6, seen), is_noncritical_set, reduce_count[pi] * K)
        units = []
        for n, C in enumerate(sets):
            jid = f"reduce-{name}-{n}"
            B.add(jid, cli_job(["reduce", "--relations", "{relations}"],
                               {"relations": compact_relations(C)},
                               {"pyramid": name, "relabelings": relabelings(pi),
                                "orbit": "reduce:" + set_key(C)}))
            units.append([jid])
        B.cls(f"reduce {name}", reduce_count[pi], units)
        units = []
        for n, C in enumerate(take(random_sets(pi, rng, 5, seen), lambda C: True,
                                   rr_count[pi] * K)):
            vs = sorted(vertices(C))
            extremal = [t for t in vs
                        if all(e.lesser != t for e in C.edges)
                        or all(e.greater != t for e in C.edges)]
            t = rng.choice(extremal)
            jid = f"rr-{name}-{n}"
            B.add(jid, cli_job(["rr-remove", "--relations", "{relations}",
                                "--triple", f"{t.k},{t.i},{t.j}"],
                               {"relations": compact_relations(C)},
                               {"pyramid": name, "relabelings": relabelings(pi),
                                "orbit": f"rr:{t.k},{t.i},{t.j}:" + set_key(C)}))
            units.append([jid])
        B.cls(f"rr-remove {name}", rr_count[pi], units)
        if pi in orbit_count:
            # a set, a within-row relabeled image of it, and the set again
            units = []
            stream = random_sets(pi, rng, 4, seen)
            while len(units) < orbit_count[pi] * K:
                C = next(stream)
                img = random_relabeling_image(C, rng)
                if img is None:
                    continue
                n = len(units)
                base = check_job(f"orbit-{name}-{n}", C)
                image = check_job(f"orbit-{name}-{n}-image", img, orbit=set_key(C))
                B.check("relabeling invariance (criterion 7)", f"orbit-{name}-{n}-image",
                        base["props"]["admissible"] == image["props"]["admissible"])
                units.append([f"orbit-{name}-{n}", f"orbit-{name}-{n}-image", f"orbit-{name}-{n}"])
            B.cls(f"orbit {name}", orbit_count[pi], units)

    # two-edge non-admissible patterns on the 34,560-relabeling pyramids
    for pi, layers in ((GL5, (1,)), (P222, (1, 2))):
        name = pname(pi)
        cands = []
        for k in layers:
            for i in range(2, pi.n):
                for j in range(1, i):
                    cands.append([rel((k, i, j), (k, i + 1, j + 1), True),
                                  rel((k, i + 1, j + 1), (k, i, j + 1), False)])
                    cands.append([rel((k, i, j), (k, i - 1, j), False),
                                  rel((k, i - 1, j), (k, i, j + 1), True)])
        rng.shuffle(cands)
        units = []
        for edges in cands:
            try:
                C = RelationSet(pi, edges)
            except ValueError:
                continue
            n = len(units)
            jid = f"heavy-{name}-{n}"
            job = check_job(jid, C)
            # the minimal unbridged pattern: the combinatorial test must reject it
            B.check("two-edge unbridged pattern is not admissible", jid,
                    job["props"]["admissible"] is False)
            units.append([jid])
            if len(units) == K:
                break
        B.cls(f"check-admissible heavy {name}", 1, units)
    B.save()


# -- oracle -------------------------------------------------------------------


def build_oracle():
    rng = random.Random(GEN_SEED + 1)
    B = PoolBuilder("oracle")
    K = 12  # a run makes about 10 passes; smaller classes repeat sooner
    # pyramid: (passing, failing, critical) per pass.  Every noncritical set
    # on GL2 and P12 is admissible (both non-admissible patterns need three
    # rows), and those pyramids have only 8 and 16 noncritical sets; a
    # noncritical (2,2) set that fails at its canonical seed is rare.  GL3
    # sets have a radius-2 window of at most 30 members; oracle time grows
    # with the window, so the cap keeps each bucket's members close in cost.
    # The median job then falls inside the (2,2)-pass and GL3-fail group and
    # the p90 job inside the GL3-pass group, not at a boundary between groups.
    plan = {
        GL2: (1, 0, 1),
        P12: (2, 0, 1),
        P22: (3, 0, 1),
        GL3: (4, 4, 1),
    }
    max_edges = {GL2: 6, P12: 6, P22: 4, GL3: 4}
    for pi, (n_pass, n_fail, n_crit) in plan.items():
        name = pname(pi)
        stream = [C for C in _all_sets(pi, max_edges[pi]) if is_satisfiable(C)]
        rng.shuffle(stream)
        want = {"pass": n_pass * K, "fail": n_fail * K, "crit": n_crit * K}
        units = {"pass": [], "fail": [], "crit": []}
        def full(label):
            return len(units[label]) >= want[label]

        tried = 0
        for C in stream:
            if all(full(c) for c in want):
                break
            critical = not is_noncritical_set(C)
            if (critical and full("crit")) or (not critical and full("pass") and full("fail")):
                continue
            if not critical and full("pass") and is_admissible(C)[0]:
                continue  # an admissible set passes; look for failing ones
            members = _members(C, critical)
            if pi == GL3 and members > 30:
                continue
            files = {"relations": compact_relations(C)}
            argv = ["verify-relations", "--relations", "{relations}"]
            if critical:
                files["tableau"] = compact_tableau(critical_satisfying_tableau(C))
                argv += ["--tableau", "{tableau}"]
            tried += 1  # ids are never reused: the runner caches input files by id
            jid = f"oracle-{name}-{tried}"
            job = B.add(jid, cli_job(argv, files, {"pyramid": name, "critical": critical}))
            passes = job["_verdict"]["passes"]
            label = "crit" if critical else ("pass" if passes else "fail")
            if full(label):
                del B.jobs[jid]
                continue
            free = sum(1 for t in all_indices(pi) if t.i < pi.n)
            job["props"].update(passes=passes, box_points=5 ** free, members=members)
            # an admissible set satisfies every defining relation, so the
            # oracle may fail only on a non-admissible set
            admissible = is_admissible(C)[0]
            B.check("oracle fails only on non-admissible sets", jid, passes or not admissible)
            if pi in (GL2, P12, GL3) and not critical:
                # criterion 3's method: canonical and spread seeds together
                spread = verify_defining_relations(C, spread_seed(C, 4), 2, 2, 3)
                B.check("is_admissible equals the oracle at canonical and spread seeds", jid,
                        admissible == (passes and report_passes(spread)))
            units[label].append([jid])
        for label, count in zip(("pass", "fail", "crit"), (n_pass, n_fail, n_crit)):
            have = units[label]
            if not count:
                continue
            if len(have) < count:
                raise RuntimeError(f"oracle {name} {label}: only {len(have)} sets")
            B.cls(f"verify-relations {label} {name}", count, have)
    B.save()


def _all_sets(pi, max_edges):
    rels = all_relations(pi)
    for r in range(1, max_edges + 1):
        for combo in itertools.combinations(rels, r):
            try:
                yield RelationSet(pi, combo)
            except ValueError:
                continue


def _members(C, critical):
    seed = critical_satisfying_tableau(C) if critical else noncritical_satisfying_tableau(C)
    return len(enumerate_basis(C, seed, 2).members)


# -- module -------------------------------------------------------------------


def _window_props(C, l, radius):
    w = enumerate_basis(C, l, radius)
    return {"box_points": (2 * radius + 1) ** len(w.free), "members": len(w.members)}


def _random_maximal_pair(pi, rng):
    """(maximal_set(l), l) for a random tableau l with one class per layer, or None."""
    values = {t: rng.randint(-5, 5) + F(t.k - 1, 3) for t in all_indices(pi)}
    for i in range(1, pi.n + 1):
        row = [values[t] for t in all_indices(pi) if t.i == i]
        if len(set(row)) < len(row):
            return None
    l = tableau_from_values(pi, values)
    try:
        M = maximal_set(l)
    except ValueError:
        return None
    return (M, l) if M.edges else None


def _copy_down_seed(lam):
    n = len(lam)
    pi = Pyramid((1,) * n)
    ls = [lam[j] - j for j in range(n)]
    values = {TriIndex(1, i, j): ls[j - 1] for i in range(1, n + 1) for j in range(1, i + 1)}
    return pi, tableau_from_values(pi, values)


def _reducible_gl3_pairs():
    out = []
    for top, row2, low in (((7, 4, F(1, 3)), (6, 2), 5),
                           ((9, 6, F(1, 7)), (8, 4), 7),
                           ((7, 3, F(1, 3)), (6, 2), 4),
                           ((8, 5, F(2, 5)), (7, 3), 6)):
        l = tableau_from_values(GL3, {
            TriIndex(1, 3, 1): top[0], TriIndex(1, 3, 2): top[1],
            TriIndex(1, 3, 3): top[2], TriIndex(1, 2, 1): row2[0],
            TriIndex(1, 2, 2): row2[1], TriIndex(1, 1, 1): low,
        })
        C = RelationSet(GL3, [rel((1, 3, 1), (1, 2, 1), False),
                              rel((1, 2, 1), (1, 3, 2), True),
                              rel((1, 3, 2), (1, 2, 2), False),
                              rel((1, 2, 1), (1, 1, 1), False)])
        out.append((C, l))
    return out


def _fully_cyclic(C, l, radius):
    """Every window member generates the whole window (the cyclicity_probe
    generators, budget 2, under CLIP): the generator graph is strongly connected."""
    from wpimod.exact_arith import generic_instantiate
    from wpimod.gt_module import CLIP, ActionContext
    from wpimod.pyramid import e_generator_min_degree

    w = enumerate_basis(C, l, radius)
    ctx = ActionContext(w, generic_instantiate(l.classes(), 1))
    pi = l.pyramid
    gens = [("e", i, s) for i in range(1, pi.n)
            for s in range(e_generator_min_degree(pi, i), e_generator_min_degree(pi, i) + 2)]
    gens += [("f", i, s) for i in range(1, pi.n) for s in (1, 2)]
    succ = {d: set() for d in w.members}
    pred = {d: set() for d in w.members}
    for d in w.members:
        for g in gens:
            for tgt in ctx.apply(g, {d: F(1)}, policy=CLIP):
                succ[d].add(tgt)
                pred[tgt].add(d)

    def reach(adj):
        seen, todo = {w.members[0]}, [w.members[0]]
        while todo:
            for nxt in adj[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return len(seen) == len(w.members)

    return reach(succ) and reach(pred)


def _module_pairs(pi, rng, count, radius=2, maximal=True):
    """(set, seed) pairs: the standard set at spread seeds, then maximal sets.

    A maximal set is kept only when its window at `radius` has at most four
    times the members of the standard set's window, so that jobs of one
    class stay close in cost.
    """
    S = standard_set(pi)
    out = [(S, spread_seed(S, gap)) for gap in range(3, 3 + (4 if maximal else count))]
    cap = 4 * len(enumerate_basis(S, out[0][1], radius).members)
    seen = set()
    for _ in range(20000):
        if len(out) >= count:
            return out[:count]
        pair = _random_maximal_pair(pi, rng)
        if pair is None or pair in seen:
            continue
        seen.add(pair)
        if len(enumerate_basis(*pair, radius).members) <= cap:
            out.append(pair)
    raise RuntimeError(f"too few maximal sets with small windows on {pi}")


def build_module():
    rng = random.Random(GEN_SEED + 2)
    B = PoolBuilder("module")
    K = 10  # a run makes up to about 9 passes; buckets this size repeat no input

    def enum_job(jid, C, l, radius, extra=None):
        job = B.add(jid, cli_job(
            ["enumerate-basis", "--relations", "{relations}", "--tableau", "{tableau}",
             "--radius", str(radius)],
            {"relations": compact_relations(C), "tableau": compact_tableau(l)},
            {"pyramid": pname(C.pyramid), "radius": radius, **(extra or {})},
        ))
        job["props"].update(_window_props(C, l, radius))
        return job

    enum_plan = [(GL4, 3, 1), (GL4, 2, 6), (GL3, 2, 4), (GL3, 3, 4), (P22, 2, 4),
                 (P22, 3, 4), (P122, 2, 4), (P122, 3, 4)]
    for pi, radius, per_pass in enum_plan:
        name = pname(pi)
        units = []
        # gl_4 at radius 3 uses the standard set only: it is the box-scan
        # job, and it sets the workload's peak memory
        pairs = _module_pairs(pi, rng, per_pass * K, radius, maximal=radius < 3 or pi != GL4)
        for n, (C, l) in enumerate(pairs):
            jid = f"enum-{name}-r{radius}-{n}"
            enum_job(jid, C, l, radius)
            units.append([jid])
        B.cls(f"enumerate-basis {name} r{radius}", per_pass, units)

    # copy-down seeds of dominant integral weights: window count = Weyl dimension
    weights = [(a, b, c) for a in range(0, 5) for b in range(0, a + 1)
               for c in range(0, b + 1)][: 4 * K]
    units = []
    for n, lam in enumerate(weights):
        pi, seed = _copy_down_seed(lam)
        spread = max(lam) - min(lam) + len(lam) - 1
        jid = f"weyl-{n}"
        job = enum_job(jid, standard_set(pi), seed, spread, {"weight": list(lam)})
        B.check("copy-down window count equals weyl_dimension", jid,
                len(job["_verdict"]["members"]) == weyl_dimension(GlWeight(lam)))
        units.append([jid])
    B.cls("enumerate-basis weyl gl_3", 4, units)

    def irreducible_job(jid, C, l, radius=2):
        job = B.add(jid, cli_job(
            ["irreducible", "--relations", "{relations}", "--tableau", "{tableau}"],
            {"relations": compact_relations(C), "tableau": compact_tableau(l)},
            {"pyramid": pname(C.pyramid)},
        ))
        verdict = job["_verdict"]["irreducible"]
        job["props"]["irreducible"] = verdict
        free = sum(1 for t in all_indices(C.pyramid) if t.i < C.pyramid.n)
        if satisfies(C, l) and (2 * radius + 1) ** free <= 20000:
            B.check("irreducible equals brute-force cyclicity on a window reaching the "
                    "nearest wall", jid, verdict == _fully_cyclic(C, l, radius))
        return job

    for pi, per_pass in ((GL3, 6), (P22, 4), (P122, 4), (GL4, 3)):
        name = pname(pi)
        units = []
        for n, (C, l) in enumerate(_module_pairs(pi, rng, per_pass * K)):
            dropped, *rest = sorted(C.edges)
            weaker = RelationSet(pi, rest)
            radius = 2
            if n % 2 and weaker.edges and is_noncritical_set(weaker):
                # one edge dropped: the module over the same seed is reducible
                # when the dropped relation is not implied by the rest; the
                # window must reach the wall that relation put in the lattice
                C = weaker
                gap = l.entry(dropped.greater)[1] - l.entry(dropped.lesser)[1]
                radius = max(2, gap - (1 if dropped.strict else 0) + 1)
            jid = f"irr-{name}-{n}"
            irreducible_job(jid, C, l, radius)
            units.append([jid])
        B.cls(f"irreducible {name}", per_pass, units)
    units = []
    for n, (C, l) in enumerate(_reducible_gl3_pairs()):
        jid = f"irr-reducible-gl3-{n}"
        irreducible_job(jid, C, l)
        units.append([jid])
    B.cls("irreducible reducible gl_3", 1, units)

    for pi, per_pass in ((GL3, 6), (P22, 4), (P122, 4)):
        name = pname(pi)
        units = []
        for n, (C, l) in enumerate(_module_pairs(pi, rng, per_pass * K)):
            w = enumerate_basis(C, l, 2)
            start = rng.choice(w.members)
            jid = f"cyc-{name}-{n}"
            job = B.add(jid, {
                "kind": "cyclicity",
                "args": {"relations": compact_relations(C), "tableau": compact_tableau(l),
                         "radius": 2, "budget": 2,
                         "start": [[t.k, t.i, t.j, v] for t, v in start.key()]},
                "props": {"pyramid": name, "radius": 2,
                          "box_points": 5 ** len(w.free), "members": len(w.members)},
            })
            job["props"]["cyclic"] = job["_verdict"]["cyclic"]
            units.append([jid])
        B.cls(f"cyclicity_probe {name}", per_pass, units)
    B.save()


# -- tensor -------------------------------------------------------------------


def _generic_weights(rng, n, factors):
    dens = (2, 3, 5, 7, 11, 13)
    while True:
        ws = [[F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)]
              for _ in range(factors)]
        # integer gaps inside one weight can make its copy-down tableau critical
        inner = all((a - b).denominator != 1
                    for w in ws for a, b in itertools.combinations(w, 2))
        if inner and is_generic([GlWeight(w) for w in ws]):
            return ws


def _weights_obj(ws):
    return {"weights": [[str(x) for x in w] for w in ws], "points": ["0"] * len(ws)}


VIOLATING_PAIRS = [((1, 0), (3, 1)), ((2, 0), (4, 2)), ((2, 1), (4, 2)),
                   ((0, -1), (2, 0)), ((3, 1), (5, 3))]


def build_tensor():
    rng = random.Random(GEN_SEED + 3)
    B = PoolBuilder("tensor")
    K = 14  # a run makes up to about 12 passes; buckets this size repeat no input

    def tensor_job(jid, ws, depth, mode="generic"):
        job = B.add(jid, cli_job(
            ["tensor-check", "--weights", "{weights}", "--depth", str(depth), "--mode", mode],
            {"weights": _weights_obj(ws)},
            {"rank": len(ws[0]), "factors": len(ws), "depth": depth, "mode": mode},
        ))
        v = job["_verdict"]
        job["props"]["only_top_line"] = v["only_top_line"]
        if v["conditions"]["generic"]:
            B.check("generic tensor products have only the top singular line", jid,
                    v["only_top_line"])
        if v["conditions"].get("integral"):
            B.check("integral condition implies only the top singular line", jid,
                    v["only_top_line"])
        return job

    generic_plan = [(4, 2, 2, 1), (3, 2, 3, 1), (3, 2, 2, 3), (2, 3, 4, 1), (2, 3, 3, 3),
                    (2, 2, 4, 6), (2, 2, 3, 6)]
    for n, factors, depth, per_pass in generic_plan:
        units = []
        count = per_pass * K
        for m in range(count):
            jid = f"tc-gl{n}-f{factors}-d{depth}-{m}"
            tensor_job(jid, _generic_weights(rng, n, factors), depth)
            units.append([jid])
        B.cls(f"tensor-check generic gl_{n} x{factors} depth {depth}", per_pass, units)

    true_pairs, violating = [], []
    known = {tuple(map(tuple, p)) for p in VIOLATING_PAIRS}
    for a in range(-1, 6):
        for b in range(-1, a + 1):
            for c in range(-1, 6):
                for d in range(-1, c + 1):
                    pair = ((a, b), (c, d))
                    if integral_condition(GlWeight(pair[0]), GlWeight(pair[1])):
                        true_pairs.append(pair)
                    elif pair not in known:
                        violating.append(pair)
    rng.shuffle(true_pairs)
    rng.shuffle(violating)
    for label, pairs, per_pass in (("true", true_pairs[: 4 * K], 4),
                                   ("violated", VIOLATING_PAIRS + violating[: 4 * K - 5], 4)):
        units = []
        for m, pair in enumerate(pairs):
            jid = f"tc-integral-{label}-{m}"
            job = tensor_job(jid, [list(pair[0]), list(pair[1])], 3, "integral")
            if pair in known:
                # observed extra singular vector on the violating family
                B.check("known violating pairs have an extra singular vector", jid,
                        not job["_verdict"]["only_top_line"])
            units.append([jid])
        B.cls(f"tensor-check integral {label} gl_2 depth 3", per_pass, units)

    for n, per_pass, npairs in ((2, 8, 12), (3, 8, 5)):
        units = []
        pairs = [_generic_weights(rng, n, 2) for _ in range(npairs)]
        combos = [(p, i, j, r) for p in range(len(pairs)) for i in range(1, n + 1)
                  for j in range(1, n + 1) for r in (1, 2, 3)]
        rng.shuffle(combos)
        for m, (p, i, j, r) in enumerate(combos[: per_pass * K]):
            jid = f"tmat-gl{n}-{m}"
            B.add(jid, {"kind": "t_matrix",
                        "args": {**_weights_obj(pairs[p]), "depth": 2, "i": i, "j": j, "r": r},
                        "props": {"rank": n, "factors": 2, "depth": 2}})
            units.append([jid])
        B.cls(f"t_coefficient gl_{n} depth 2", per_pass, units)
        units = []
        subsets = list(itertools.permutations(range(1, n + 1), 2))
        combos = [(p, a, b) for p in range(len(pairs)) for a in subsets for b in subsets]
        rng.shuffle(combos)
        for m, (p, a, b) in enumerate(combos[: 3 * K]):
            jid = f"minor-gl{n}-{m}"
            B.add(jid, {"kind": "minor",
                        "args": {**_weights_obj(pairs[p]), "depth": 2, "rows": list(a),
                                 "cols": list(b), "order": 3},
                        "props": {"rank": n, "factors": 2, "depth": 2}})
            units.append([jid])
        B.cls(f"quantum_minor gl_{n} depth 2", 3, units)
    B.save()


BUILDERS = {
    "admissibility": build_admissibility,
    "oracle": build_oracle,
    "module": build_module,
    "tensor": build_tensor,
}


if __name__ == "__main__":
    for name in sys.argv[1:] or list(BUILDERS):
        t0 = time.perf_counter()
        BUILDERS[name]()
        print(f"{name}: recorded in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
