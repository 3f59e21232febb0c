"""Exact Gelfand-Tsetlin relation modules over finite W-algebras of type A,
admissibility of relation sets, irreducibility tests, and Yangian tensor
product probes."""

__version__ = "0.1.0"

from .exact_arith import (  # noqa: F401
    CriticalityError,
    GenericAssignment,
    InvSeries,
    UniPoly,
    as_scalar,
    generic_instantiate,
    poly_series_quotient,
)
from .pyramid import Pyramid, e_generator_min_degree  # noqa: F401
from .tableau import (  # noqa: F401
    Tableau,
    TableauDelta,
    TriIndex,
    all_indices,
    mutable_indices,
    shift,
    tableau_from_json,
    tableau_from_values,
    tableau_to_json,
)
from .relations import (  # noqa: F401
    Relation,
    RelationSet,
    all_relations,
    critical_satisfying_tableau,
    decompose,
    is_admissible,
    is_noncritical_set,
    is_pre_admissible,
    is_satisfiable,
    maximal_set,
    noncritical_satisfying_tableau,
    permute,
    reduce_set,
    rr_remove,
    satisfies,
    standard_set,
)
from .gt_module import (  # noqa: F401
    BasisWindow,
    FreeWindow,
    WindowOverflowError,
    cyclicity_probe,
    enumerate_basis,
    is_irreducible,
    report_passes,
    verify_defining_relations,
)
from .yangian_tensor import (  # noqa: F401
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
