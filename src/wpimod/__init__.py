"""Exact Gelfand-Tsetlin relation modules over finite W-algebras of type A,
admissibility of relation sets, irreducibility tests, and Yangian tensor
product probes.

Every public name below is imported from its layer on first use (PEP 562), and
stored here, so a process loads only the layers it touches: `import wpimod`
loads none, and `wpimod.is_admissible` loads `relations` with `tableau`,
`pyramid` and `exact_arith` but not `gt_module`, `supports` or
`yangian_tensor`.  The submodules resolve as attributes too.
"""

import importlib

__version__ = "0.1.0"

# Each layer with the public names it defines.
_EXPORTS = {
    "exact_arith": (
        "CriticalityError", "GenericAssignment", "InvSeries", "UniPoly",
        "as_scalar", "generic_instantiate", "poly_series_quotient",
    ),
    "pyramid": ("Pyramid", "e_generator_min_degree"),
    "tableau": (
        "Tableau", "TableauDelta", "TriIndex", "all_indices",
        "mutable_indices", "shift", "tableau_from_json", "tableau_from_values",
        "tableau_to_json",
    ),
    "relations": (
        "Relation", "RelationSet", "all_relations",
        "critical_satisfying_tableau", "decompose", "is_admissible",
        "is_noncritical_set", "is_pre_admissible", "is_satisfiable",
        "maximal_set", "noncritical_satisfying_tableau", "permute",
        "reduce_set", "rr_remove", "satisfies", "standard_set",
    ),
    "gt_module": (
        "BasisWindow", "FreeWindow", "WindowOverflowError", "cyclicity_probe",
        "enumerate_basis", "is_irreducible", "report_passes",
        "verify_defining_relations",
    ),
    "yangian_tensor": (
        "EvaluationFactor", "GlWeight", "TensorModule",
        "find_singular_vectors", "integral_condition", "interval_sets",
        "is_generic", "only_top_singular", "quantum_minor",
        "singular_dimensions", "weyl_dimension",
    ),
}
_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "supports", "cli")

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Stored, so the next lookup is a plain global and `vars(wpimod)` holds it.
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
