"""The package's public names are an explicit, pinned list, and its
records are immutable."""

import types

import pytest

import lgmirror as lg

PUBLIC = [
    "AtomicBlock", "CapExceededError", "DimensionMismatchError",
    "DuplicateVariableError", "FixedLocus",
    "GradedBasisVector", "GradedSpace", "HKDecomposition", "HodgeDiamond",
    "InputFileError", "InternalError", "InvertiblePolynomial", "LGError",
    "MirrorReport", "MonomialSymmetry", "NotAGroupError", "NotAMemberError",
    "NotAPermutationError", "NotASymmetryError", "NotAdmissibleAError",
    "NotAdmissibleBError", "NotDiagonalError",
    "NotFermatError", "NotHKProductError", "NotInvertibleError",
    "NotPurePermutationsError", "NotSquareError", "OddPermutationError",
    "ParseError", "RestrictedMirror", "Sector", "SectorMap",
    "SingularMatrixError", "SymmetryGroup", "TheoremViolationError", "Verdict",
    "WeightOutOfRangeError", "a_state_space", "b_state_space",
    "build_sector", "classify_atoms", "closure",
    "compute_weights", "decompose_hk", "diagonal_group", "dual_group",
    "exponential_grading", "full_comparison", "invariant_basis", "is_symmetry",
    "monomial_label", "nonabelian_dual",
    "parity_condition", "parse_generator", "parse_polynomial",
    "sector_map", "vector_label",
]


def test_public_names_are_pinned():
    assert lg.__all__ == PUBLIC


def test_star_import_gives_the_public_names_and_no_modules():
    namespace: dict = {}
    exec("from lgmirror import *", namespace)
    names = sorted(name for name in namespace if name != "__builtins__")
    assert names == sorted(PUBLIC)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in names)


def test_records_are_immutable(quartic, quartic_report):
    sector = lg.build_sector(quartic, lg.MonomialSymmetry.identity(4))
    vector = quartic_report.a_space.basis[0]
    for record, name, value in [(quartic, "var_names", ("y1",) * 4),
                                (quartic, "weights", ()), (quartic, "anything", 0),
                                (sector, "degrees", ()), (vector, "bidegree", (0, 0))]:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert quartic.var_names == ("x1", "x2", "x3", "x4")
