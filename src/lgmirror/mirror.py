"""The mirror map between A- and B-model state spaces.

For Fermat W, where Wᵀ = W, the map on the unprojected spaces exchanges
monomial data and sector data:

    ⌊ ∧_{i∉I_g} x_i^{b_i} dx_i , g ⌉  ↦  ⌊ ∧_{j∈I_g} y_j^{a_j−1} dx_j , g' ⌉

for diagonal g with phases a_j/d_j, where I_g indexes the nonzero phases,
g' has phases (b_i+1)/d_i on the g-fixed coordinates and 0 elsewhere.  In
integers it is one rule: the untwisted term y^b and the narrow diagonal
element with phases (b_i+1)/d_i both read as the vector b.  So each
untwisted vector and each narrow diagonal class sum is keyed by the set of
its terms' vectors, and the map restricts to bigraded isomorphisms between
the untwisted broad sector on one side and the narrow diagonal class sums
on the other exactly when equal keys pair the two corners one to one, in
both directions, with equal bidegrees.  No element or rational is made.

The full bigraded comparison never forces a bijection outside those corners
(none is canonical there); it compares dimension histograms and attaches the
parity-condition diagnosis for the permutation part.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .duality import decompose_hk, parity_condition, star_group
from .errors import TheoremViolationError
from .polynomial import InvertiblePolynomial
from .state_space import GradedSpace, a_state_space, b_state_space
from .symmetry import DEFAULT_CAP, SymmetryGroup


class Verdict(enum.Enum):
    BIGRADED_ISOMORPHIC = "BigradedIsomorphic"
    DIMENSIONS_MATCH_BIGRADING_FAILS = "DimensionsMatchBigradingFails"
    DIMENSION_MISMATCH = "DimensionMismatch"


class RestrictedMirror(namedtuple("RestrictedMirror", "a0_to_narrow narrow_to_b0")):
    """The two verified corner isomorphisms, as explicit pairings."""

    __slots__ = ()


def _corners(space: GradedSpace):
    """The untwisted and the narrow diagonal vectors of ``space``, in basis
    order, each with its corner key: the set of its nodes' integer vectors,
    b for y^b in the untwisted sector and the phases scaled by d, less 1,
    for a narrow diagonal element, from its orbit and its class's heads.  A
    set of one is keyed by its one vector, which equals no set.  The
    diagonal elements of G = H·K are H, so the lead decides the corner."""
    d = space.poly.fermat_exponents()
    ident, mod = space.group.lifts[0][0], space.group.modulus
    untwisted, narrow = [], []
    for v in space.basis:
        perm, nums = v.lead
        if perm != ident or any(nums) and not all(nums):
            continue
        if not any(nums):
            corner, keys = untwisted, [b for b, _ in v.orbit[1]] if v.orbit else [v.exps]
        else:  # exact: a diagonal symmetry of Fermat W has phases k/d_i
            heads = [y[1] for y, _ in v.orbit[0].cosets] if v.orbit else [nums]
            corner, keys = narrow, [tuple([x * e // mod - 1 for x, e in zip(h, d)]) for h in heads]
        corner.append((keys[0] if len(keys) == 1 else frozenset(keys), v))
    return untwisted, narrow


def _match(sources, targets, source_name, target_name):
    """Pair each keyed source vector with the target vector of equal key;
    both sides count bidegrees over the same 2·lcm(d), as Wᵀ = W."""
    by_key = dict(targets)
    pairs = []
    for key, v in sources:
        w = by_key.pop(key, None)
        if w is None:
            raise TheoremViolationError(
                f"{source_name} maps to no {target_name}: {v.leading}")
        if w.grade != v.grade:
            raise TheoremViolationError(
                f"bidegree not preserved: {v.bidegree} vs {w.bidegree}")
        pairs.append((v, w))
    if by_key:
        raise TheoremViolationError(
            f"{len(by_key)} {target_name}s are not hit by the {source_name}s")
    return tuple(pairs)


def _corner_pairs(a_space: GradedSpace, b_space: GradedSpace) -> RestrictedMirror:
    """Both restricted isomorphisms, each corner paired by equal keys."""
    a0, a_narrow = _corners(a_space)
    b0, b_narrow = _corners(b_space)
    return RestrictedMirror(
        _match(a0, b_narrow, "untwisted vector", "narrow class sum"),
        _match(a_narrow, b0, "narrow class sum", "untwisted vector"))


class MirrorReport(namedtuple("MirrorReport", "poly dual_poly group dual_group hk a_space "
                              "b_space restricted pc_holds pc_witness verdict mismatches")):
    """Full bigraded comparison of (W, G) against (Wᵀ, G*); ``mismatches``
    lists (bidegree, A dimension, B dimension) where the two differ."""

    __slots__ = ()


def full_comparison(poly: InvertiblePolynomial, group: SymmetryGroup,
                    cap: int = DEFAULT_CAP) -> MirrorReport:
    """Both models and their comparison; G* errors past ``cap`` elements.
    TheoremViolationError if a corner isomorphism in ``restricted`` fails,
    which signals a bug, not a property of the input."""
    parts = decompose_hk(group, poly)
    g_star = star_group(parts, poly, cap)
    dual_poly = poly.transpose()
    a_space = a_state_space(poly, group)
    b_space = b_state_space(dual_poly, g_star)
    restricted = _corner_pairs(a_space, b_space)
    pc_holds, pc_witness = parity_condition(parts.k)
    if a_space.grades == b_space.grades:  # both over the same 2·lcm(d), as Wᵀ = W
        verdict = Verdict.BIGRADED_ISOMORPHIC
    elif a_space.total_dim == b_space.total_dim:
        verdict = Verdict.DIMENSIONS_MATCH_BIGRADING_FAILS
    else:
        verdict = Verdict.DIMENSION_MISMATCH
    mismatches = [(a_space.bidegree(g), a_space.grades[g], b_space.grades[g])
                  for g in sorted(a_space.grades.keys() | b_space.grades.keys())
                  if a_space.grades[g] != b_space.grades[g]]
    return MirrorReport(poly, dual_poly, group, g_star, parts, a_space,
                        b_space, restricted, pc_holds, pc_witness, verdict,
                        tuple(mismatches))
