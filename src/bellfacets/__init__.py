"""Tight correlation Bell inequalities for N observers, three binary settings.

The package enumerates the admissible sign functions that generate the tight
inequality family, certifies classical bounds and facet status with exact
integer arithmetic, quantifies maximal quantum violation by see-saw
optimization over qubit observables, and rereads the inequalities as
CH-type constraints and as the complete two-setting family.
"""

from .fourier import (
    SignFunction,
    fourier_transform,
    is_admissible,
    is_factorable,
    table_size,
)
from .symmetry import canonicalize
from .enumeration import (
    CanonicalClass,
    EnumerationReport,
    classify,
    enumerate_admissible,
)
from .polytope import (
    BellInequality,
    LhvBounds,
    TightnessCertificate,
    certify_tightness,
    fraction_free_rank,
    inequality_from_sign_function,
    lhv_max,
    lhv_max_by_strategies,
    sign_function_of,
    vertex_matrix,
)
from .quantum import (
    ObservableDirection,
    QuantumValueReport,
    algebraic_maximum,
    bell_operator,
    evaluate_state,
    seesaw_maximize,
    seesaw_maximize_all,
)
from .lifting import lift, two_setting_reduction

__version__ = "0.1.0"

__all__ = [
    "BellInequality",
    "CanonicalClass",
    "EnumerationReport",
    "LhvBounds",
    "ObservableDirection",
    "QuantumValueReport",
    "SignFunction",
    "TightnessCertificate",
    "algebraic_maximum",
    "bell_operator",
    "canonicalize",
    "certify_tightness",
    "classify",
    "enumerate_admissible",
    "evaluate_state",
    "fourier_transform",
    "fraction_free_rank",
    "inequality_from_sign_function",
    "is_admissible",
    "is_factorable",
    "lhv_max",
    "lhv_max_by_strategies",
    "lift",
    "seesaw_maximize",
    "seesaw_maximize_all",
    "sign_function_of",
    "table_size",
    "two_setting_reduction",
    "vertex_matrix",
]
