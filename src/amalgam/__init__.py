"""Finite commutative ring calculator.

Builds finite commutative rings as explicit operation tables, constructs
amalgamated algebras along ideals (plus trivial ring extensions,
duplications, quotients, and products), decides the arithmetical /
Gaussian / Prufer hierarchy, and verifies the transfer statements over an
exhaustively generated catalog.
"""

from .amalgamation import (
    AmalgamationInstance,
    HypothesisReport,
    amalg_max_ideals,
    amalgamate,
    distinguished_ideals,
    duplication,
    f_image_plus_j,
    hypothesis_report,
    product_embedding_check,
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
    NotMaximalError,
    ParseError,
    StructureError,
)
from .expressions import Evaluator, evaluate_instance, evaluate_ring, parse
from .harness import (
    CLAUSE_DESCRIPTIONS,
    CLAUSE_IDS,
    Catalog,
    CatalogParams,
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
    annihilator,
    ideal_generated,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_distributive_lattice,
    is_regular_ideal,
    jacobson_radical,
    maximal_ideals,
    nilradical,
    principal_ideal,
    regular_elements,
    zero_divisors,
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
    is_chain_ring,
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
    RingElement,
    RingHom,
    factor_local,
    hom,
    hom_compose,
    hom_identity,
    idempotents,
    localize_at_max,
    primitive_idempotents,
    product,
    quotient,
    truncated_poly_algebra,
    units,
    zmod,
)

__version__ = "0.1.0"
