"""Certify uniqueness of Lindblad steady states by operator-algebra closure."""

__version__ = "0.1.0"

from .opalg import (
    Operator,
    PauliTerm,
    HSBasis,
    pauli_to_operator,
)
from .modelspec import (
    ModelSpec,
    ModelParseError,
    ModelValidationError,
    parse_model,
    load_model,
    build_builtin,
    BUILDERS,
)
from .liouvillian import (
    NumericalFailure,
    LiouvillianMatrix,
    effective_hamiltonian,
    spectrum,
    kernel_and_values,
)
from .symmetry import (
    SymmetryCheck,
    SectorDecomposition,
    resolve_symmetry,
    verify_strong_symmetry,
    sector_decompose,
    verify_invariant_blocks,
)
from .closure import (
    CERTIFIED_UNIQUE,
    NOT_CERTIFIED,
    INCONCLUSIVE,
    ClosureResult,
    algebra_closure,
    certifier_generators,
    UniquenessCertificate,
    certify_uniqueness,
    CommutantResult,
    commutant,
    restricted_closure,
)
from .ness import (
    TRIVIAL_COMMUTANT,
    NONTRIVIAL_COMMUTANT,
    ConsistencyCheck,
    SectorReport,
    NessReport,
    steady_states,
    per_sector_ness,
    full_verdict,
)

__all__ = [
    "__version__",
    # operators
    "Operator",
    "PauliTerm",
    "HSBasis",
    "pauli_to_operator",
    # model descriptions
    "ModelSpec",
    "ModelParseError",
    "ModelValidationError",
    "parse_model",
    "load_model",
    "build_builtin",
    "BUILDERS",
    # generator matrices
    "NumericalFailure",
    "LiouvillianMatrix",
    "effective_hamiltonian",
    "spectrum",
    "kernel_and_values",
    # symmetry sectors
    "SymmetryCheck",
    "SectorDecomposition",
    "resolve_symmetry",
    "verify_strong_symmetry",
    "sector_decompose",
    "verify_invariant_blocks",
    # closure certificates
    "CERTIFIED_UNIQUE",
    "NOT_CERTIFIED",
    "INCONCLUSIVE",
    "ClosureResult",
    "algebra_closure",
    "certifier_generators",
    "UniquenessCertificate",
    "certify_uniqueness",
    "CommutantResult",
    "commutant",
    "restricted_closure",
    # steady-state reports
    "TRIVIAL_COMMUTANT",
    "NONTRIVIAL_COMMUTANT",
    "ConsistencyCheck",
    "SectorReport",
    "NessReport",
    "steady_states",
    "per_sector_ness",
    "full_verdict",
]
