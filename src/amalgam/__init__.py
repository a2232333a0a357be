"""Finite commutative ring calculator.

Builds finite commutative rings as explicit operation tables, constructs
amalgamated algebras along ideals (plus trivial ring extensions,
duplications, quotients, and products), decides the arithmetical /
Gaussian / Prufer hierarchy, and verifies the transfer statements over a
catalog of rings listed as expression text.
"""

from .amalgamation import (
    AmalgamationInstance,
    amalgamate,
    duplication,
    f_image_plus_j,
    holds,
    hypothesis_report,
)
from .errors import (
    AmalgamError,
    BudgetExceededError,
    CapExceededError,
    EvaluationError,
    HomomorphismError,
    InternalCheckError,
    MixedRingError,
    NotAnIdealError,
    NotASubmoduleError,
    NotLocalError,
    ParseError,
    StructureError,
    UnknownClauseError,
)
from .expressions import Evaluator, parse
from .harness import (
    CLAUSE_IDS,
    CLAUSES,
    Catalog,
    ExampleReport,
    Verdict,
    build_catalog,
    reproduce_examples,
    verify_clauses,
    verify_duplication_criterion,
    verify_instance,
)
from .ideals import (
    Ideal,
    all_ideals,
    ideal_generated,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_distributive_lattice,
    maximal_ideals,
    principal_ideal,
)
from .modules import (
    FiniteModule,
    module_quotient,
    ring_as_module,
    submodule_generated,
    trivial_extension,
    vspace_over_residue,
)
from .properties import (
    Polynomial,
    PropertyReport,
    content,
    gaussian_content_oracle,
    is_arithmetical,
    is_field,
    is_gaussian,
    is_local,
    is_prufer,
    is_reduced,
    is_total_quotient_ring,
    local_gaussian_pair_check,
    poly_mul,
    property_report,
)
from .rings import (
    FiniteRing,
    RingHom,
    hom_identity,
    product,
    quotient,
    truncated_poly_algebra,
    zmod,
)

__version__ = "0.1.0"
