"""Exact state spaces and mirror maps for Landau-Ginzburg models.

The library builds A- and B-model state spaces of invertible polynomials
with finite monomial symmetry groups of the form H·K (diagonal part times
pure even permutations), computes dual polynomials, dual groups and the
non-abelian dual group, verifies the restricted mirror isomorphisms on the
untwisted-broad / narrow-diagonal corners, and reports full bigraded
dimension comparisons together with the parity-condition diagnosis.

All arithmetic is exact: phases are integers mod N, rationals appear at
input and output only; there are no tolerances anywhere.
"""

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    DuplicateVariableError,
    ExponentOutOfRangeError,
    InputFileError,
    InternalError,
    LGError,
    NotAGroupError,
    NotAMemberError,
    NotAPermutationError,
    NotASymmetryError,
    NotAdmissibleAError,
    NotAdmissibleBError,
    NotDiagonalError,
    NotDiagonalSectorError,
    NotFermatError,
    NotHKProductError,
    NotInvertibleError,
    NotPurePermutationsError,
    NotSquareError,
    OddPermutationError,
    ParseError,
    SingularMatrixError,
    TheoremViolationError,
    WeightOutOfRangeError,
)
from .polynomial import (
    AtomicBlock,
    InvertiblePolynomial,
    classify_atoms,
    compute_weights,
    parse_polynomial,
)
from .symmetry import (
    FixedLocus,
    MonomialSymmetry,
    SymmetryGroup,
    closure,
    exponential_grading,
    is_symmetry,
    parse_generator,
    sl_subgroup,
)
from .duality import (
    HKDecomposition,
    decompose_hk,
    diagonal_group,
    dual_group,
    nonabelian_dual,
    parity_condition,
)
from .state_space import (
    GradedBasisVector,
    GradedSpace,
    HodgeDiamond,
    Sector,
    SectorMap,
    a_state_space,
    b_state_space,
    build_sector,
    invariant_basis,
    monomial_label,
    sector_map,
    vector_label,
)
from .mirror import (
    MirrorReport,
    RestrictedMirror,
    Verdict,
    full_comparison,
    narrow_diagonal_set,
    unprojected_mirror,
)

__all__ = [
    "AtomicBlock", "CapExceededError", "DimensionMismatchError",
    "DuplicateVariableError", "ExponentOutOfRangeError", "FixedLocus",
    "GradedBasisVector", "GradedSpace", "HKDecomposition", "HodgeDiamond",
    "InputFileError", "InternalError", "InvertiblePolynomial", "LGError",
    "MirrorReport", "MonomialSymmetry", "NotAGroupError", "NotAMemberError",
    "NotAPermutationError", "NotASymmetryError", "NotAdmissibleAError",
    "NotAdmissibleBError", "NotDiagonalError", "NotDiagonalSectorError",
    "NotFermatError", "NotHKProductError", "NotInvertibleError",
    "NotPurePermutationsError", "NotSquareError", "OddPermutationError",
    "ParseError", "RestrictedMirror", "Sector", "SectorMap",
    "SingularMatrixError", "SymmetryGroup", "TheoremViolationError", "Verdict",
    "WeightOutOfRangeError", "a_state_space", "b_state_space",
    "build_sector", "classify_atoms", "closure",
    "compute_weights", "decompose_hk", "diagonal_group", "dual_group",
    "exponential_grading", "full_comparison", "invariant_basis", "is_symmetry",
    "monomial_label", "narrow_diagonal_set", "nonabelian_dual",
    "parity_condition", "parse_generator", "parse_polynomial",
    "sector_map", "sl_subgroup", "unprojected_mirror", "vector_label",
]
__version__ = "0.1.0"
