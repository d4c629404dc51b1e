"""The mirror map between A- and B-model state spaces.

On the unprojected spaces the map exchanges monomial data and sector data:

    ⌊ ∧_{i∉I_g} x_i^{b_i} dx_i , g ⌉  ↦  ⌊ ∧_{j∈I_g} y_j^{a_j−1} dx_j , g' ⌉

for diagonal g with phases a_j/d_j, where I_g indexes the nonzero phases,
g' has phases (b_i+1)/d_i on the g-fixed coordinates and 0 elsewhere.  It
restricts to bigraded isomorphisms between the untwisted broad sector on
one side and the narrow diagonal class sums on the other, and those two
restrictions are verified here term by term.

The full bigraded comparison never forces a bijection outside those corners
(none is canonical there); it compares dimension histograms and attaches the
parity-condition diagnosis for the permutation part.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import lcm

from .duality import HKDecomposition, decompose_hk, parity_condition, star_group
from .errors import (DimensionMismatchError, ExponentOutOfRangeError, NotDiagonalError,
                     NotDiagonalSectorError, TheoremViolationError)
from .polynomial import InvertiblePolynomial
from .state_space import (
    Bidegree,
    GradedBasisVector,
    GradedSpace,
    a_state_space,
    b_state_space,
)
from .symmetry import MonomialSymmetry, SymmetryGroup


class Verdict(enum.Enum):
    BIGRADED_ISOMORPHIC = "BigradedIsomorphic"
    DIMENSIONS_MATCH_BIGRADING_FAILS = "DimensionsMatchBigradingFails"
    DIMENSION_MISMATCH = "DimensionMismatch"


def narrow_diagonal_set(h: SymmetryGroup) -> tuple[MonomialSymmetry, ...]:
    """Diagonal elements with every phase nonzero (trivial fixed locus)."""
    if not h.is_diagonal:
        raise NotDiagonalError("narrow diagonal set needs a diagonal group")
    return tuple(g for g in h if all(g.nums))


def unprojected_mirror(poly: InvertiblePolynomial,
                       exponents: tuple[int, ...],
                       g: MonomialSymmetry
                       ) -> tuple[tuple[int, ...], MonomialSymmetry]:
    """Image of one diagonal-sector term (monomial exponents, new sector).

    ``exponents`` lists the Milnor exponents over g's fixed coordinates in
    ascending coordinate order; the image exponents run over the moving
    coordinates the same way.  Applying the map twice returns the input.
    """
    if not g.is_diagonal:
        raise NotDiagonalSectorError("the unprojected map needs a diagonal sector")
    d = poly.fermat_exponents()
    n = poly.n_vars
    fixed = [i for i in range(n) if g.nums[i] == 0]
    moving = [i for i in range(n) if g.nums[i] != 0]
    if len(exponents) != len(fixed):
        raise DimensionMismatchError("one exponent per fixed coordinate required")
    mod = lcm(*d)
    nums = [0] * n
    for b, i in zip(exponents, fixed):
        if not 0 <= b <= d[i] - 2:
            raise ExponentOutOfRangeError(
                f"exponent {b} outside the Milnor range of x{i + 1}")
        nums[i] = (b + 1) * (mod // d[i])
    image = []
    for j in moving:
        numerator, rest = divmod(g.nums[j] * d[j], g.mod)
        assert rest == 0
        image.append(numerator - 1)
    return tuple(image), MonomialSymmetry.from_numerators(g.perm, nums, mod)


@dataclass(frozen=True)
class RestrictedMirror:
    """The two verified corner isomorphisms, as explicit pairings."""

    a0_to_narrow: tuple[tuple[GradedBasisVector, GradedBasisVector], ...]
    narrow_to_b0: tuple[tuple[GradedBasisVector, GradedBasisVector], ...]


def _match(poly, sources, targets, target_key, part, source_name, target_name):
    """Pair each source vector with the target vector its image hits."""
    by_key = {target_key(w): w for w in targets}
    pairs = []
    for v in sources:
        image = frozenset(unprojected_mirror(poly, exps, g)[part]
                          for _, exps, g in v.terms)
        w = by_key.pop(image, None)
        if w is None:
            raise TheoremViolationError(
                f"{source_name} maps to no {target_name}: {v.terms}")
        if w.bidegree != v.bidegree:
            raise TheoremViolationError(
                f"bidegree not preserved: {v.bidegree} vs {w.bidegree}")
        pairs.append((v, w))
    if by_key:
        raise TheoremViolationError(
            f"{len(by_key)} {target_name}s are not hit by the {source_name}s")
    return tuple(pairs)


def _corner_pairs(poly, a_space, b_space, h, h_dual):
    a_narrow = frozenset(narrow_diagonal_set(h))
    b_narrow = frozenset(narrow_diagonal_set(h_dual))
    a0 = [v for v in a_space.basis if v.leading[2].is_identity]
    anar = [v for v in a_space.basis if v.leading[2] in a_narrow]
    b0 = [v for v in b_space.basis if v.leading[2].is_identity]
    bnar = [v for v in b_space.basis if v.leading[2] in b_narrow]
    return RestrictedMirror(
        _match(poly, a0, bnar, lambda w: frozenset(w.sector_elements), 1,
               "untwisted vector", "narrow class sum"),
        _match(poly, anar, b0, lambda w: frozenset(e for _, e, _ in w.terms), 0,
               "narrow class sum", "untwisted vector"))


@dataclass(frozen=True)
class MirrorReport:
    """Full bigraded comparison of (W, G) against (Wᵀ, G*)."""

    poly: InvertiblePolynomial
    dual_poly: InvertiblePolynomial
    group: SymmetryGroup
    dual_group: SymmetryGroup
    hk: HKDecomposition
    a_space: GradedSpace
    b_space: GradedSpace
    restricted: RestrictedMirror
    pc_holds: bool
    pc_witness: SymmetryGroup | None
    verdict: Verdict
    mismatches: tuple[tuple[Bidegree, int, int], ...]


def full_comparison(poly: InvertiblePolynomial, group: SymmetryGroup,
                    cap: int = 10 ** 6) -> MirrorReport:
    """Both models and their comparison; G* errors past ``cap`` elements.
    TheoremViolationError if a corner isomorphism in ``restricted`` fails,
    which signals a bug, not a property of the input."""
    parts = decompose_hk(group, poly)
    h_dual, g_star = star_group(parts, poly, cap)
    dual_poly = poly.transpose()
    a_space = a_state_space(poly, group)
    b_space = b_state_space(dual_poly, g_star)
    restricted = _corner_pairs(poly, a_space, b_space, parts.h, h_dual)
    pc_holds, pc_witness = parity_condition(parts.k, poly.n_vars)
    if a_space.dims == b_space.dims:
        verdict = Verdict.BIGRADED_ISOMORPHIC
    elif a_space.total_dim == b_space.total_dim:
        verdict = Verdict.DIMENSIONS_MATCH_BIGRADING_FAILS
    else:
        verdict = Verdict.DIMENSION_MISMATCH
    counts = [(bd, a_space.dims.get(bd, 0), b_space.dims.get(bd, 0))
              for bd in sorted(set(a_space.dims) | set(b_space.dims))]
    mismatches = [c for c in counts if c[1] != c[2]]
    return MirrorReport(poly, dual_poly, group, g_star, parts, a_space,
                        b_space, restricted, pc_holds, pc_witness, verdict,
                        tuple(mismatches))
