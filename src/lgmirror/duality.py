"""Dual groups, H·K decompositions, and the parity condition.

For diagonal H ≤ G_W^diag the dual is

    Hᵀ = {g ∈ G_{Wᵀ}^diag : g·A_W·hᵀ ∈ ℤ for all h ∈ H}

(rows in additive form).  Each g ∈ G_{Wᵀ}^diag is A_W⁻ᵀ·m mod ℤⁿ for some
m ∈ ℤⁿ, and g·A_W·hᵀ = m·h, so Hᵀ = A_W⁻ᵀ·L mod ℤⁿ for the lattice
L = {m ∈ ℤⁿ : m·h ∈ ℤ for each h ∈ H}, spanned by the columns of M·B⁻¹ for
the Hermite normal form B of H's numerators over its modulus M.
|det A_W|·A_W⁻ᵀ = ±adj(A_W)ᵀ is read off the solve W keeps, and either sign
gives Hᵀ, as L = −L.  |Hᵀ| = |det A_W|/|H| is known before any element
exists, G_{Wᵀ}^diag is never listed, and Hᵀ is listed from the Hermite
form of its n generators in canonical order.  The dual of the trivial
group on Wᵀ (L = ℤⁿ) is G_W^diag itself.  For G = H·K with H diagonal and K
the pure even permutations of G, the non-abelian dual is G* = Hᵀ·K ≤
G_{Wᵀ}^max.  K normalizes Hᵀ and meets it only in the identity, so G* is the
product set Hᵀ·K, listed in canonical order from K's forms and Hᵀ's.  A cap
is checked on |Hᵀ|, or on |Hᵀ|·|K| for G*, before either group is listed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from math import gcd

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
from .linalg import adjugate, hermite
from .symmetry import DEFAULT_CAP, SymmetryGroup, _lattice_forms, is_symmetry


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
    forms, mod = group._forms, group.modulus
    h = SymmetryGroup(group._fixed_diagonals(forms[0][0])[0], mod)
    k = SymmetryGroup([form for form in forms if not any(form[1])], mod)
    for g in k:
        if g.perm_parity != 0:
            raise OddPermutationError(f"pure permutation {g.cycle_string()} is odd")
    if h.order * k.order != group.order:
        perms = {g.perm for g in k}
        g = next(g for g in group if g.perm not in perms)
        raise NotHKProductError(
            f"{g.label()} does not factor as diagonal · pure even permutation")
    return HKDecomposition(group, h, k)


def _check_cap(h: SymmetryGroup, poly: InvertiblePolynomial, k_order: int, cap: int) -> None:
    """Errors when |Hᵀ|·k_order exceeds ``cap``; |Hᵀ| = |det A_W|/|H|."""
    if abs(poly.adjugate[0]) // h.order * k_order > cap:
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
    det, adj, m_h = abs(poly.adjugate[0]), poly.adjugate[1], h.modulus
    # B·m ≡ 0 mod M_H for H's Hermite form B over M_H (the zero row is for H = 1)
    d, adj_b = adjugate(hermite([h._forms[0][1]] + [g.over(m_h)[1] for g in h.generators], m_h))
    gens = [[sum(a * (m_h * b // d) for a, b in zip(c, m)) % det for c in zip(*adj)]
            for m in zip(*adj_b)]
    mod = det // gcd(det, *(x for row in gens for x in row))  # Hᵀ's modulus
    basis = hermite([[x // (det // mod) for x in row] for row in gens], mod)
    return SymmetryGroup(_lattice_forms(basis, mod), mod)


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
    forms, mod = h_dual._forms, h_dual.modulus  # sorted, so a form is found by bisection
    if any(forms[bisect_left(forms, f) % len(forms)] != f for f in (
            g.conjugated_by(k).over(mod) for k in parts.k.generators for g in h_dual.generators)):
        raise InternalError("K does not normalize Hᵀ")
    # h·k = (σ_k, a_h) for h = (id, a_h) and k = (σ_k, 0), made in canonical order
    return SymmetryGroup([(perm, nums) for perm, _ in parts.k._forms for _, nums in forms],
                         mod, h_dual.generators + parts.k.generators)


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
    An odd K holds at once: the orbits of an odd T have odd sizes, so
    n − #orbits = Σ(|O| − 1) is even.
    """
    if any(not g.is_pure_permutation for g in k):
        raise NotPurePermutationsError("parity condition needs pure permutations")
    if k.order % 2:
        return True, None
    for sub in k._subgroup_walk():
        # in a group, the orbit of i is {g(i) : g ∈ T}
        orbits = {frozenset(g.perm[i] for g in sub) for i in range(n)}
        if (len(orbits) - n) % 2 != 0:
            return False, sub
    return True, None
