"""branchlab: exact verification of invariant-operator relations, branching
laws, Casimir tables, and transfer maps for spherical triples with overgroups.
"""

from .catalog import (
    CaseId,
    CaseRecord,
    all_cases,
    alternating_concat,
    load_default,
    pi_tau,
    rank_triple,
)
from .linalg import AffineMap
from .reps import GroupDescriptor, IrrepLabel, InfinitesimalCharacter, casimir_eigenvalue
from .verify import CaseReport, check_relations, check_transfer, evaluate_generator, transfer_map
from .weights import WeylType, dominant_representative, inner_product, positive_roots, rho, weyl_dimension

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "CaseId",
    "CaseRecord",
    "CaseReport",
    "GroupDescriptor",
    "InfinitesimalCharacter",
    "IrrepLabel",
    "WeylType",
    "all_cases",
    "alternating_concat",
    "casimir_eigenvalue",
    "check_relations",
    "check_transfer",
    "dominant_representative",
    "evaluate_generator",
    "inner_product",
    "load_default",
    "pi_tau",
    "positive_roots",
    "rank_triple",
    "rho",
    "transfer_map",
    "weyl_dimension",
]
