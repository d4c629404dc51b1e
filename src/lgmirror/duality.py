"""Dual groups, H·K decompositions, and the parity condition.

For diagonal H ≤ G_W^diag the dual is

    Hᵀ = {g ∈ G_{Wᵀ}^diag : g·A_W·hᵀ ∈ ℤ for all h ∈ H}

(rows in additive form).  Each g ∈ G_{Wᵀ}^diag is A_W⁻ᵀ·m mod ℤⁿ for some
m ∈ ℤⁿ, and g·A_W·hᵀ = m·h, so Hᵀ = A_W⁻ᵀ·L mod ℤⁿ for the lattice
L = {m ∈ ℤⁿ : m·h ∈ ℤ for each generator h of H}, found by Euclid's algorithm
on columns.  |Hᵀ| = |det A_W|/|H| is known before any element exists, and
G_{Wᵀ}^diag is never listed.  The dual of the trivial group on Wᵀ (L = ℤⁿ)
is G_W^diag itself.  For G = H·K with H diagonal and K the pure even
permutations of G, the non-abelian dual is G* = Hᵀ·K ≤ G_{Wᵀ}^max.  K
normalizes Hᵀ and meets it only in the identity, so G* is the product set
Hᵀ·K.  A cap is checked on |Hᵀ|, or on |Hᵀ|·|K| for G*, before either
group is built.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import linalg
from .errors import (
    CapExceededError,
    InternalError,
    NotASymmetryError,
    NotDiagonalError,
    NotHKProductError,
    NotPurePermutationsError,
    OddPermutationError,
)
from .polynomial import InvertiblePolynomial
from .symmetry import (
    DEFAULT_CAP,
    SymmetryGroup,
    _generate,
    is_symmetry,
)


class HKDecomposition(namedtuple("HKDecomposition", "group h k")):
    """G = H·K with H the diagonal part and K the pure even permutations."""

    __slots__ = ()


def decompose_hk(group: SymmetryGroup, poly: InvertiblePolynomial) -> HKDecomposition:
    """Split G into diagonal part H and pure even permutation part K.

    Each g = (σ, a) factors as h·k only as h = (id, a), k = (σ, 0), and
    h ∈ G exactly when k ∈ G.  H is normal and meets K in the identity, so
    G = H·K holds exactly when |H|·|K| = |G|; otherwise the error names the
    first element, in canonical order, whose permutation part is not in K.
    """
    for g in group.generators:  # the symmetries of W form a group
        if not is_symmetry(g, poly):
            raise NotASymmetryError(f"{g.label()} is not a symmetry of {poly}")
    forms, ident = group._forms, group.identity.perm
    h = SymmetryGroup([form for form in forms if form[0] == ident], group.modulus)
    k = SymmetryGroup([form for form in forms if not any(form[1])], group.modulus)
    for g in k:
        if g.perm_parity != 0:
            raise OddPermutationError(f"pure permutation {g.cycle_string()} is odd")
    if h.order * k.order != group.order:
        perms = {g.perm for g in k}
        g = next(g for g in group if g.perm not in perms)
        raise NotHKProductError(
            f"{g.label()} does not factor as diagonal · pure even permutation")
    return HKDecomposition(group, h, k)


@lru_cache(maxsize=None)
def _inverse_transpose(poly: InvertiblePolynomial):
    """N = |det A_W| and the integer rows of N·A_W⁻ᵀ = ±adj(A_W)ᵀ."""
    det, adj = linalg.adjugate(poly.exponents)
    sign = 1 if det > 0 else -1
    return abs(det), tuple(tuple(sign * x for x in col) for col in zip(*adj))


def _check_cap(h: SymmetryGroup, poly: InvertiblePolynomial, k_order: int,
               cap: int) -> None:
    """Errors when |Hᵀ|·k_order exceeds ``cap``; |Hᵀ| = |det A_W|/|H|."""
    if _inverse_transpose(poly)[0] // h.order * k_order > cap:
        raise CapExceededError(f"group exceeds cap of {cap} elements")


def dual_group(h: SymmetryGroup, poly: InvertiblePolynomial,
               cap: int = DEFAULT_CAP) -> SymmetryGroup:
    """Dual of a diagonal group, inside the diagonal group of Wᵀ; errors
    before building it when it has more than ``cap`` elements (by default
    ``DEFAULT_CAP``, 10^6).

    Only generators of H are paired against: the pairing (g, h) ↦ g·A_W·hᵀ
    is bilinear, so integrality on generators gives integrality on all of H.
    """
    if not h.is_diagonal:
        raise NotDiagonalError("dual groups are defined for diagonal groups")
    _check_cap(h, poly, 1, cap)
    det, rows = _inverse_transpose(poly)
    n = poly.n_vars
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for gen in h.generators:
        # keep the m with m·nums ≡ 0 mod gen.mod: unimodular Euclid steps between
        # each vector and a pivot that starts at value gen.mod zero its value
        pivot, pivot_value = (0,) * n, gen.mod
        for i, m in enumerate(basis):
            value = sum(a * b for a, b in zip(m, gen.nums)) % gen.mod
            while value:
                q = pivot_value // value
                pivot, m = m, tuple(a - q * b for a, b in zip(pivot, m))
                pivot_value, value = value, pivot_value - q * value
            basis[i] = m
    gens = [tuple(sum(a * b for a, b in zip(row, m)) % det for row in rows) for m in basis]
    return SymmetryGroup(_generate([(h.identity.perm, nums) for nums in gens],
                                   det, det)[0], det)


@lru_cache(maxsize=None)
def diagonal_group(poly: InvertiblePolynomial) -> SymmetryGroup:
    """All diagonal symmetries of W: the dual of the trivial group on Wᵀ,
    of order |det A_W|; errors before listing any past ``DEFAULT_CAP``."""
    n = poly.n_vars  # Wᵀ has W's variables
    return dual_group(SymmetryGroup([(tuple(range(n)), (0,) * n)], 1), poly.transpose())


def star_group(parts: HKDecomposition, poly: InvertiblePolynomial,
               cap: int = DEFAULT_CAP) -> SymmetryGroup:
    """G* = Hᵀ·K from G's split; errors before building Hᵀ when |G*| =
    |Hᵀ|·|K| exceeds ``cap``."""
    _check_cap(parts.h, poly, parts.k.order, cap)
    h_dual = dual_group(parts.h, poly, cap)
    if parts.k.order == 1:  # G* = Hᵀ
        return h_dual
    if any(g.conjugated_by(k) not in h_dual
           for k in parts.k.generators for g in h_dual.generators):
        raise InternalError("K does not normalize Hᵀ")
    # h·k = (σ_k, a_h) for diagonal h = (id, a_h) and k = (σ_k, 0)
    forms = [(perm, nums) for _, nums in h_dual._forms for perm, _ in parts.k._forms]
    return SymmetryGroup(forms, h_dual.modulus, h_dual.generators + parts.k.generators)


def nonabelian_dual(group: SymmetryGroup, poly: InvertiblePolynomial,
                    cap: int = DEFAULT_CAP) -> SymmetryGroup:
    """G* = Hᵀ·K for G = H·K; a subgroup of the dual polynomial's symmetries."""
    return star_group(decompose_hk(group, poly), poly, cap)


def parity_condition(k: SymmetryGroup, n: int
                     ) -> tuple[bool, SymmetryGroup | None]:
    """Check dim (ℂⁿ)ᵀ ≡ n (mod 2) for every subgroup T ≤ K.

    Returns (True, None) or (False, first failing subgroup) in subgroup
    order (by order, then elements), building none past it.  The fixed-space
    dimension of a permutation group is its number of orbits on coordinates.
    """
    if any(not g.is_pure_permutation for g in k):
        raise NotPurePermutationsError("parity condition needs pure permutations")
    for sub in k._subgroup_walk():
        # in a group, the orbit of i is {g(i) : g ∈ T}
        orbits = {frozenset(g.perm[i] for g in sub) for i in range(n)}
        if (len(orbits) - n) % 2 != 0:
            return False, sub
    return True, None
