"""branchlab: exact verification of invariant-operator relations, branching
laws, Casimir tables, and transfer maps for spherical triples with overgroups.
"""

from .catalog import CaseId, CaseRecord, load_default
from .linalg import AffineMap
from .reps import GroupDescriptor, IrrepLabel, casimir_eigenvalue
from .verify import CaseReport, check_relations, check_transfer, evaluate_generator
from .weights import WeylType, dominant_representative, positive_roots, rho, weyl_dimension

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "CaseId",
    "CaseRecord",
    "CaseReport",
    "GroupDescriptor",
    "IrrepLabel",
    "WeylType",
    "casimir_eigenvalue",
    "check_relations",
    "check_transfer",
    "dominant_representative",
    "evaluate_generator",
    "load_default",
    "positive_roots",
    "rho",
    "weyl_dimension",
]
