"""Job pools, seeded plans, job execution and the verdict check.

A pool file (``data/<workload>.json``) holds every job a run can draw, each
with its recorded reference verdict.  Jobs are grouped into buckets of
inputs with similar cost; a pass takes one unit (one job, or a short fixed
sequence of jobs) from every bucket, so every pass has the same input mix
while the seed decides which members are drawn and in which order.

A job is one ``wpimod`` CLI command driven in-process through
``wpimod.cli.run(argv)`` with stdout captured, or one public library call
where the CLI has no command for it.  Library functions are looked up on
their module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, "data")
WORKLOADS = ("admissibility", "oracle", "module", "tensor")

# Report fields that carry a verdict, per CLI command.  Everything else
# (the schema version, echoed options, `threads`) is ignored.
VERDICT_FIELDS = {
    "check-admissible": ("admissible", "certificate"),
    "reduce": ("edges",),
    "rr-remove": ("edges",),
    "enumerate-basis": ("members",),
    "verify-relations": ("passes", "violations"),
    "irreducible": ("irreducible",),
    "tensor-check": ("conditions", "singular_dimensions", "only_top_line"),
}


def load_pool(workload: str) -> dict:
    with open(os.path.join(DATA_DIR, workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def plan(pool: dict, seed: int):
    """Endless sequence of passes (lists of job ids) for a seed.

    Each bucket's units are shuffled once and then taken in turn, so a bucket
    of K units repeats no input for K passes.
    """
    rng = random.Random(seed)
    orders = []
    for bucket in pool["buckets"]:
        units = [list(u) for u in bucket["units"]]
        rng.shuffle(units)
        orders.append(units)
    p = 0
    while True:
        picked = [order[p % len(order)] for order in orders]
        rng.shuffle(picked)
        yield [jid for unit in picked for jid in unit]
        p += 1


def digest(verdict) -> str:
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


# -- input files ------------------------------------------------------------


def relations_file(obj: dict) -> dict:
    """CLI relation-set document from the compact {rows, edges} form."""

    def tri(t):
        return {"k": t[0], "i": t[1], "j": t[2]}

    return {
        "v": 1,
        "pyramid": {"rows": list(obj["rows"])},
        "edges": [
            {"greater": tri(g), "lesser": tri(l), "strict": bool(s)}
            for g, l, s in obj["edges"]
        ],
    }


def tableau_file(obj: dict) -> dict:
    """CLI tableau document from the compact {rows, entries} form."""
    return {
        "v": 1,
        "pyramid": {"rows": list(obj["rows"])},
        "entries": [
            {"k": k, "i": i, "j": j, "class": str(c), "offset": off}
            for k, i, j, c, off in obj["entries"]
        ],
    }


def weights_file(obj: dict) -> dict:
    return {"v": 1, "weights": obj["weights"], "points": obj["points"]}


FILE_RENDER = {
    "relations": relations_file,
    "tableau": tableau_file,
    "weights": weights_file,
}


# -- execution ----------------------------------------------------------------


class Runner:
    """Prepares, runs and checks jobs of one pool; input files go to workdir."""

    def __init__(self, pool: dict, workdir: str):
        self.pool = pool
        self.workdir = workdir
        self._paths: dict[str, dict[str, str]] = {}

    def _files(self, jid: str, job: dict) -> dict[str, str]:
        paths = self._paths.get(jid)
        if paths is None:
            paths = {}
            for name, obj in job.get("files", {}).items():
                path = os.path.join(self.workdir, f"{jid}.{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(FILE_RENDER[name](obj), fh)
                paths[name] = path
            self._paths[jid] = paths
        return paths

    def prepare(self, jid: str):
        """(thunk, finish): the thunk is the timed work, finish -> (exit, verdict)."""
        job = self.pool["jobs"][jid]
        kind = job["kind"]
        if kind == "cli":
            paths = self._files(jid, job)
            argv = [a.format(**paths) if a.startswith("{") else a for a in job["argv"]]
            return (lambda: _run_cli(argv)), (lambda raw: _cli_verdict(argv[0], raw))
        return LIBRARY_JOBS[kind](job["args"])

    def check(self, jid: str, exit_code: int, verdict) -> bool:
        ref = self.pool["jobs"][jid]["ref"]
        return exit_code == ref["exit"] and digest(verdict) == ref["digest"]

    def run(self, jid: str, clock, wrap=None):
        """Run one job; returns (start, seconds, ok).  A job that raises is not ok.

        wrap(jid, thunk), when given, runs the thunk (the tracer's job span).
        """
        thunk, finish = self.prepare(jid)
        t0 = clock()
        try:
            raw = wrap(jid, thunk) if wrap else thunk()
        except Exception:  # a job that raises counts as failed, the run goes on
            import traceback

            traceback.print_exc()
            return t0, clock() - t0, False
        t1 = clock()
        exit_code, verdict = finish(raw)
        return t0, t1 - t0, self.check(jid, exit_code, verdict)


def _run_cli(argv):
    import wpimod.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wpimod.cli.run(argv)
    return code, buf.getvalue()


def _cli_verdict(command: str, raw):
    code, out = raw
    report = json.loads(out)
    if "error" in report or "overflow" in report:
        return code, {k: report[k] for k in ("error", "overflow") if k in report}
    return code, {k: report.get(k) for k in VERDICT_FIELDS[command]}


# -- library-call jobs --------------------------------------------------------


def _frac(x) -> Fraction:
    return Fraction(str(x))


def _parse_window_inputs(args):
    from wpimod.pyramid import Pyramid
    from wpimod.relations import RelationSet
    from wpimod.tableau import TableauDelta, TriIndex, tableau_from_json

    rel = relations_file(args["relations"])
    C = RelationSet.from_json(Pyramid.from_json(rel["pyramid"]), rel)
    l = tableau_from_json(tableau_file(args["tableau"]))
    start = TableauDelta({TriIndex(k, i, j): v for k, i, j, v in args["start"]})
    return C, l, start


def _cyclicity(args):
    """cyclicity_probe from a window member; verdict is the reached set."""
    import wpimod.gt_module as gm

    C, l, start = _parse_window_inputs(args)
    radius, budget = args["radius"], args["budget"]

    def thunk():
        window = gm.enumerate_basis(C, l, radius)
        return window, gm.cyclicity_probe(window, start, budget)

    def finish(raw):
        window, reached = raw
        return 0, {
            "reached": sorted(d.key() for d in reached),
            "cyclic": reached == set(window.members),
        }

    return thunk, finish


def tensor_module(weights, points, depth):
    import wpimod.yangian_tensor as yt

    factors = [
        yt.EvaluationFactor(yt.GlWeight([_frac(x) for x in w]), _frac(p), depth)
        for w, p in zip(weights, points)
    ]
    return yt.TensorModule(factors, depth)


def _key(key):
    return [d.key() for d in key]


def _t_matrix(args):
    """t_coefficient t_ij^(r) on every basis vector of the depth-bounded module."""
    import wpimod.yangian_tensor as yt

    i, j, r, depth = args["i"], args["j"], args["r"], args["depth"]

    def thunk():
        M = tensor_module(args["weights"], args["points"], depth)
        return [
            (key, yt.t_coefficient(M, i, j, r, {key: Fraction(1)}))
            for key in M.basis(depth)
        ]

    def finish(raw):
        return 0, [
            [_key(key), sorted([_key(k2), str(c)] for k2, c in img.items())]
            for key, img in raw
        ]

    return thunk, finish


def _minor(args):
    """A quantum minor applied to every basis vector of the depth-bounded module."""
    import wpimod.yangian_tensor as yt

    depth = args["depth"]

    def thunk():
        M = tensor_module(args["weights"], args["points"], depth)
        op = yt.quantum_minor(M, args["rows"], args["cols"], args["order"])
        return [(key, op.apply({key: Fraction(1)})) for key in M.basis(depth)]

    def finish(raw):
        return 0, [
            [
                _key(key),
                sorted(
                    [_key(k2), str(s.constant), [str(c) for c in s.coeffs]]
                    for k2, s in img.items()
                ),
            ]
            for key, img in raw
        ]

    return thunk, finish


LIBRARY_JOBS = {"cyclicity": _cyclicity, "t_matrix": _t_matrix, "minor": _minor}
