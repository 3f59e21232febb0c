"""Layer tracing from outside the program.

The tracer wraps public entry points of ``wpimod`` at the attribute their
callers look up: a module global (patched in every ``wpimod`` module that
imported it by name) or a class attribute.  Internal calls are therefore
seen too.  Three kinds of wrapper:

* ``span``  -- records a span (id, name, start, end, parent id, job id) in
  memory, and adds to the layer's call count, busy and self time;
* ``timed`` -- the same sums, without keeping the span (hot calls);
* ``count`` -- only a call count (hot small functions).

A layer's self time is its busy time minus the time of its direct child
spans.  Nothing under ``src/`` is changed; ``uninstall`` restores every
patched attribute.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, metric name, wrapper kind)
TARGETS = (
    ("wpimod.cli", "run", "cli.run", "span"),
    ("wpimod.relations", "is_admissible", "relations.is_admissible", "span"),
    ("wpimod.relations", "permute", "relations.permute", "count"),
    ("wpimod.relations", "ClosureOrder.__init__", "relations.ClosureOrder", "timed"),
    ("wpimod.relations", "reduce_set", "relations.reduce_set", "span"),
    ("wpimod.relations", "rr_remove", "relations.rr_remove", "span"),
    ("wpimod.relations", "maximal_set", "relations.maximal_set", "span"),
    ("wpimod.relations", "noncritical_satisfying_tableau",
     "relations.noncritical_satisfying_tableau", "span"),
    ("wpimod.relations", "is_noncritical_set", "relations.is_noncritical_set", "timed"),
    ("wpimod.relations", "is_satisfiable", "relations.is_satisfiable", "count"),
    ("wpimod.gt_module", "BasisWindow.__init__", "gt_module.BasisWindow", "span"),
    ("wpimod.gt_module", "verify_defining_relations",
     "gt_module.verify_defining_relations", "span"),
    ("wpimod.gt_module", "ActionContext.apply", "gt_module.ActionContext.apply", "timed"),
    ("wpimod.gt_module", "cyclicity_probe", "gt_module.cyclicity_probe", "span"),
    ("wpimod.gt_module", "is_irreducible", "gt_module.is_irreducible", "span"),
    ("wpimod.tableau", "TableauDelta.__init__", "tableau.TableauDelta.init", "count"),
    ("wpimod.tableau", "TableauDelta.__hash__", "tableau.TableauDelta.hash", "count"),
    ("wpimod.tableau", "shift", "tableau.shift", "count"),
    ("wpimod.exact_arith", "poly_series_quotient", "exact_arith.poly_series_quotient",
     "timed"),
    ("wpimod.exact_arith", "UniPoly.__mul__", "exact_arith.UniPoly.mul", "count"),
    ("wpimod.exact_arith", "InvSeries.__mul__", "exact_arith.InvSeries.mul", "count"),
    ("wpimod.exact_arith", "InvSeries.inverse", "exact_arith.InvSeries.inverse", "count"),
    ("wpimod.yangian_tensor", "EvaluationFactor.E", "yangian_tensor.EvaluationFactor.E",
     "count"),
    ("wpimod.yangian_tensor", "t_coefficient", "yangian_tensor.t_coefficient", "span"),
    ("wpimod.yangian_tensor", "OperatorSeries.apply", "yangian_tensor.OperatorSeries.apply",
     "timed"),
    ("wpimod.yangian_tensor", "find_singular_vectors",
     "yangian_tensor.find_singular_vectors", "span"),
    ("wpimod.yangian_tensor", "singular_dimensions", "yangian_tensor.singular_dimensions",
     "timed"),
    ("wpimod.yangian_tensor", "TensorModule.basis", "yangian_tensor.TensorModule.basis",
     "span"),
    ("wpimod.yangian_tensor", "TensorModule.weight_space", "yangian_tensor.weight_space",
     "count"),
)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [child seconds, span id]
        self.job = None
        self.window_box_points = 0
        self.window_members = 0
        self.weight_space_cols = 0
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _timed(self, name, fn, keep):
        calls, busy, self_s, stack, spans = (
            self.calls, self.busy, self.self_s, self.stack, self.spans)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if keep else None]
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                busy[name] += dur
                self_s[name] += dur - frame[0]
                if keep:
                    spans[frame[1]] = (frame[1], name, t0, t1, parent, tracer.job)

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def job_span(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job = job_id
        try:
            return self._timed("job", fn, True)()
        finally:
            self.job = None

    # -- installation --------------------------------------------------------

    def _wrap(self, name, kind, fn):
        if kind == "count":
            return self._counted(name, fn)
        return self._timed(name, fn, kind == "span")

    def install(self):
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                wrapped = self._extra(name, self._wrap(name, kind, vars(owner)[meth]))
                self._patch(owner, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._extra(name, self._wrap(name, kind, original))
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "wpimod" or mod_name.startswith("wpimod.")) and \
                        getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def _extra(self, name, wrapped):
        """Window and weight-space sizes, counted at the same boundaries."""
        tracer = self
        if name == "gt_module.BasisWindow":
            def window_init(window, *args, **kwargs):
                wrapped(window, *args, **kwargs)
                tracer.window_box_points += (2 * window.radius + 1) ** len(window.free)
                tracer.window_members += len(window.members)
            return window_init
        if name == "yangian_tensor.weight_space":
            def weight_space(*args, **kwargs):
                keys = wrapped(*args, **kwargs)
                tracer.weight_space_cols += len(keys)
                return keys
            return weight_space
        return wrapped

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")

    def metrics(self) -> dict:
        """Per-layer metric values (name -> value) from everything recorded."""
        c, b, s = self.calls, self.busy, self.self_s
        adm = c["relations.is_admissible"]
        box = self.window_box_points
        return {
            "cli.run.calls": c["cli.run"],
            "cli.self_s": s["cli.run"],
            "relations.is_admissible.calls": adm,
            "relations.is_admissible.busy_s": b["relations.is_admissible"],
            "relations.permute.calls": c["relations.permute"],
            "relations.permute_per_verdict": c["relations.permute"] / adm if adm else 0,
            "relations.ClosureOrder.calls": c["relations.ClosureOrder"],
            "relations.ClosureOrder.busy_s": b["relations.ClosureOrder"],
            "relations.reduce_set.calls": c["relations.reduce_set"],
            "relations.reduce_set.busy_s": b["relations.reduce_set"],
            "relations.rr_remove.busy_s": b["relations.rr_remove"],
            "relations.maximal_set.busy_s": b["relations.maximal_set"],
            "relations.noncritical_satisfying_tableau.busy_s":
                b["relations.noncritical_satisfying_tableau"],
            "relations.is_noncritical_set.busy_s": b["relations.is_noncritical_set"],
            "relations.is_satisfiable.calls": c["relations.is_satisfiable"],
            "gt_module.BasisWindow.calls": c["gt_module.BasisWindow"],
            "gt_module.BasisWindow.busy_s": b["gt_module.BasisWindow"],
            "gt_module.window.box_points": box,
            "gt_module.window.members": self.window_members,
            "gt_module.window.keep_ratio": self.window_members / box if box else 0,
            "gt_module.verify_defining_relations.busy_s":
                b["gt_module.verify_defining_relations"],
            "gt_module.verify_defining_relations.self_s":
                s["gt_module.verify_defining_relations"],
            "gt_module.ActionContext.apply.calls": c["gt_module.ActionContext.apply"],
            "gt_module.ActionContext.apply.busy_s": b["gt_module.ActionContext.apply"],
            "gt_module.cyclicity_probe.busy_s": b["gt_module.cyclicity_probe"],
            "gt_module.is_irreducible.busy_s": b["gt_module.is_irreducible"],
            "tableau.TableauDelta.init_calls": c["tableau.TableauDelta.init"],
            "tableau.TableauDelta.hash_calls": c["tableau.TableauDelta.hash"],
            "tableau.shift.calls": c["tableau.shift"],
            "exact_arith.poly_series_quotient.calls": c["exact_arith.poly_series_quotient"],
            "exact_arith.poly_series_quotient.busy_s": b["exact_arith.poly_series_quotient"],
            "exact_arith.UniPoly.mul_calls": c["exact_arith.UniPoly.mul"],
            "exact_arith.InvSeries.mul_calls": c["exact_arith.InvSeries.mul"],
            "exact_arith.InvSeries.inverse_calls": c["exact_arith.InvSeries.inverse"],
            "yangian_tensor.EvaluationFactor.E.calls": c["yangian_tensor.EvaluationFactor.E"],
            "yangian_tensor.t_coefficient.calls": c["yangian_tensor.t_coefficient"],
            "yangian_tensor.t_coefficient.busy_s": b["yangian_tensor.t_coefficient"],
            "yangian_tensor.OperatorSeries.apply.calls":
                c["yangian_tensor.OperatorSeries.apply"],
            "yangian_tensor.OperatorSeries.apply.busy_s":
                b["yangian_tensor.OperatorSeries.apply"],
            "yangian_tensor.find_singular_vectors.calls":
                c["yangian_tensor.find_singular_vectors"],
            "yangian_tensor.find_singular_vectors.self_s":
                s["yangian_tensor.find_singular_vectors"],
            "yangian_tensor.singular_dimensions.busy_s": b["yangian_tensor.singular_dimensions"],
            "yangian_tensor.TensorModule.basis.calls": c["yangian_tensor.TensorModule.basis"],
            "yangian_tensor.TensorModule.basis.busy_s": b["yangian_tensor.TensorModule.basis"],
            "yangian_tensor.weight_space.cols": self.weight_space_cols,
        }
