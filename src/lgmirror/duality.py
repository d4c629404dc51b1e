"""Dual groups, H·K decompositions, and the parity condition.

For diagonal H ≤ G_W^diag the dual is

    Hᵀ = {g ∈ G_{Wᵀ}^diag : g·A_W·hᵀ ∈ ℤ for all h ∈ H}

(rows in additive form).  Bilinearity of the pairing means checking H's
generators suffices.  For a group G = H·K with H diagonal and K the pure
even permutations of G, the non-abelian dual is G* = Hᵀ·K, a subgroup of
G_{Wᵀ}^max.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    NotASymmetryError,
    NotDiagonalError,
    NotHKProductError,
    NotPurePermutationsError,
    OddPermutationError,
)
from .polynomial import InvertiblePolynomial
from .symmetry import (
    MonomialSymmetry,
    SymmetryGroup,
    closure,
    diagonal_group,
    is_symmetry,
)


@dataclass(frozen=True)
class HKDecomposition:
    """G = H·K with H the diagonal part and K the pure even permutations."""

    group: SymmetryGroup
    h: SymmetryGroup
    k: SymmetryGroup


def decompose_hk(group: SymmetryGroup, poly: InvertiblePolynomial) -> HKDecomposition:
    """Split G into diagonal part H and pure even permutation part K.

    Each g = (σ, a) factors as h·k only as h = (id, a), k = (σ, 0),
    so G = H·K holds exactly
    when both factors of every element lie in G.
    """
    for g in group:
        if not is_symmetry(g, poly):
            raise NotASymmetryError(f"{g.label()} is not a symmetry of {poly}")
    h_elems = [g for g in group if g.is_diagonal]
    k_elems = [g for g in group if g.is_pure_permutation]
    for g in k_elems:
        if g.perm_parity != 0:
            raise OddPermutationError(f"pure permutation {g.cycle_string()} is odd")
    h = SymmetryGroup(h_elems)
    k = SymmetryGroup(k_elems)
    make = MonomialSymmetry.from_numerators
    ident, zeros = group.identity.perm, (0,) * group.n
    for g in group:
        if make(ident, g.nums, g.mod) not in h or make(g.perm, zeros, 1) not in k:
            raise NotHKProductError(
                f"{g.label()} does not factor as diagonal · pure even permutation")
    assert h.order * k.order >= group.order
    return HKDecomposition(group, h, k)


@lru_cache(maxsize=None)
def _dual_candidates(poly: InvertiblePolynomial):
    """Diagonal symmetries of Wᵀ with their numerators over one modulus."""
    group = diagonal_group(poly.transpose())
    m = group.modulus
    return group.elements, tuple(g.over(m)[1] for g in group), m


def dual_group(h: SymmetryGroup, poly: InvertiblePolynomial) -> SymmetryGroup:
    """Dual of a diagonal group, inside the diagonal group of Wᵀ.

    Only generators of H are paired against: the pairing (g, h) ↦ g·A_W·hᵀ
    is bilinear, so integrality on generators gives integrality on all of H.
    """
    if not h.is_diagonal:
        raise NotDiagonalError("dual groups are defined for diagonal groups")
    candidates, numerators, m = _dual_candidates(poly)
    matrix = poly.exponents
    n = poly.n_vars
    # g/m·A_W·(hh/mh)ᵀ ∈ ℤ  ⇔  g·(A_W·hhᵀ) ≡ 0 mod m·mh
    checks = [([sum(matrix[i][j] * hh.nums[j] for j in range(n)) for i in range(n)],
               m * hh.mod) for hh in h.generators]
    members = [g for g, gnum in zip(candidates, numerators)
               if all(sum(a * b for a, b in zip(gnum, wnum)) % modulus == 0
                      for wnum, modulus in checks)]
    return SymmetryGroup(members)


def star_group(parts: HKDecomposition, h_dual: SymmetryGroup,
               cap: int = 10 ** 6) -> SymmetryGroup:
    """G* = Hᵀ·K from G's split and Hᵀ; errors past ``cap`` elements."""
    gens = list(h_dual.generators) + list(parts.k.generators)
    return closure(gens or [parts.group.identity], cap)


def nonabelian_dual(group: SymmetryGroup, poly: InvertiblePolynomial,
                    cap: int = 10 ** 6) -> SymmetryGroup:
    """G* = Hᵀ·K for G = H·K; a subgroup of the dual polynomial's symmetries."""
    parts = decompose_hk(group, poly)
    return star_group(parts, dual_group(parts.h, poly), cap)


def parity_condition(k: SymmetryGroup, n: int
                     ) -> tuple[bool, SymmetryGroup | None]:
    """Check dim (ℂⁿ)ᵀ ≡ n (mod 2) for every subgroup T ≤ K.

    Returns (True, None) or (False, first failing subgroup) in the
    deterministic subgroup order (by order, then elements).  The fixed-space
    dimension of a permutation group is its number of orbits on coordinates.
    """
    if any(not g.is_pure_permutation for g in k):
        raise NotPurePermutationsError("parity condition needs pure permutations")
    for sub in k.subgroups():
        # in a group, the orbit of i is {g(i) : g ∈ T}
        orbits = {frozenset(g.perm[i] for g in sub) for i in range(n)}
        if (len(orbits) - n) % 2 != 0:
            return False, sub
    return True, None
