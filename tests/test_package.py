"""The package's public names are an explicit, pinned list."""

import types

import lgmirror as lg

PUBLIC = [
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


def test_public_names_are_pinned():
    assert lg.__all__ == PUBLIC


def test_star_import_gives_the_public_names_and_no_modules():
    namespace: dict = {}
    exec("from lgmirror import *", namespace)
    names = sorted(name for name in namespace if name != "__builtins__")
    assert names == sorted(PUBLIC)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in names)
