"""The `wpimod` namespace: each public name of each layer, imported on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import wpimod

# The names `wpimod` exported when it imported every layer eagerly, under the
# module that defines each.
EXPORTS = {
    "exact_arith": [
        "CriticalityError", "GenericAssignment", "InvSeries", "UniPoly", "as_scalar",
        "generic_instantiate", "poly_series_quotient",
    ],
    "pyramid": ["Pyramid", "e_generator_min_degree"],
    "tableau": [
        "Tableau", "TableauDelta", "TriIndex", "all_indices", "mutable_indices", "shift",
        "tableau_from_json", "tableau_from_values", "tableau_to_json",
    ],
    "relations": [
        "Relation", "RelationSet", "all_relations", "critical_satisfying_tableau", "decompose",
        "is_admissible", "is_noncritical_set", "is_pre_admissible", "is_satisfiable",
        "maximal_set", "noncritical_satisfying_tableau", "permute", "reduce_set", "rr_remove",
        "satisfies", "standard_set",
    ],
    "gt_module": [
        "BasisWindow", "FreeWindow", "WindowOverflowError", "cyclicity_probe", "enumerate_basis",
        "is_irreducible", "report_passes", "verify_defining_relations",
    ],
    "yangian_tensor": [
        "EvaluationFactor", "GlWeight", "TensorModule", "find_singular_vectors",
        "integral_condition", "interval_sets", "is_generic", "only_top_singular",
        "quantum_minor", "singular_dimensions", "weyl_dimension",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
SUBMODULES = ["cli", "exact_arith", "gt_module", "pyramid", "relations", "supports", "tableau",
              "yangian_tensor"]


def test_the_export_list_is_the_eager_one():
    assert len(NAMES) == 53
    assert sorted(wpimod.__all__) == NAMES


def test_each_name_is_its_defining_object_and_is_stored_on_first_use():
    # a fresh interpreter, where no name has been looked up yet
    src = os.path.dirname(os.path.dirname(wpimod.__file__))
    code = (
        "import importlib, json, sys, wpimod\n"
        f"exports = {EXPORTS!r}\n"
        "before = [n for names in exports.values() for n in names if n in vars(wpimod)]\n"
        "wrong = []\n"
        "for module, names in exports.items():\n"
        "    for name in names:\n"
        "        ns = {}\n"
        "        exec(f'from wpimod import {name}', ns)\n"
        "        owner = importlib.import_module(f'wpimod.{module}')\n"
        "        if not (ns[name] is getattr(owner, name) is vars(wpimod)[name]):\n"
        "            wrong.append(name)\n"
        "star = {}\n"
        "exec('from wpimod import *', star)\n"
        "sys.stderr.write(json.dumps([before, wrong, sorted(set(star) - {'__builtins__'})]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stderr) == [[], [], NAMES]


def test_dir_lists_every_name_and_submodule():
    listed = set(dir(wpimod))
    assert set(NAMES) <= listed
    assert set(SUBMODULES) <= listed
    assert "__version__" in listed


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_is_an_attribute(name):
    assert getattr(wpimod, name) is importlib.import_module(f"wpimod.{name}")


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        wpimod.frobnicate
    with pytest.raises(ImportError):
        from wpimod import frobnicate  # noqa: F401
    assert "frobnicate" not in vars(wpimod)
