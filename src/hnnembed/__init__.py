"""Small-cancellation checks and free-by-cyclic embedding constructions."""

from .dehn import DehnResult, DehnSolver, area_bound_check, verify_steps
from .hnn import (
    EmbeddingCertificate,
    ExtensionResult,
    PartialAscendingHNN,
    construct_embedding,
    construct_irreducible_embedding,
    generate_relator_family,
    validate,
)
from .parsing import (
    ParseError,
    hnn_source,
    parse_hnn,
    parse_presentation,
    parse_source,
    parse_word,
    presentation_source,
)
from .presentation import Presentation, check_cp, check_cprime, piece_stats
from .stallings import (
    CoreGraph,
    fold,
    is_monomorphism,
    membership,
    subgroup_core,
)
from .subquotient import (
    SubcomplexSpec,
    check_no_duplicates,
    check_no_extra_powers,
    liftability_counterexample_search,
    quotient,
)
from .words import Alphabet, Word, cyclic_reduce, free_reduce

__all__ = [
    "Alphabet",
    "CoreGraph",
    "DehnResult",
    "DehnSolver",
    "EmbeddingCertificate",
    "ExtensionResult",
    "ParseError",
    "PartialAscendingHNN",
    "Presentation",
    "SubcomplexSpec",
    "Word",
    "area_bound_check",
    "check_cp",
    "check_cprime",
    "check_no_duplicates",
    "check_no_extra_powers",
    "construct_embedding",
    "construct_irreducible_embedding",
    "cyclic_reduce",
    "fold",
    "free_reduce",
    "generate_relator_family",
    "hnn_source",
    "is_monomorphism",
    "liftability_counterexample_search",
    "membership",
    "parse_hnn",
    "parse_presentation",
    "parse_source",
    "parse_word",
    "piece_stats",
    "presentation_source",
    "quotient",
    "subgroup_core",
    "validate",
    "verify_steps",
]
__version__ = "0.1.0"
