"""Dual groups, H·K decompositions, and the parity condition.

For diagonal H ≤ G_W^diag the dual is

    Hᵀ = {g ∈ G_{Wᵀ}^diag : g·A_W·hᵀ ∈ ℤ for all h ∈ H}

(rows in additive form).  Each g ∈ G_{Wᵀ}^diag is A_W⁻ᵀ·m mod ℤⁿ for some
m ∈ ℤⁿ, and g·A_W·hᵀ = m·h, so Hᵀ = A_W⁻ᵀ·L mod ℤⁿ for the lattice
L = {m ∈ ℤⁿ : m·h ∈ ℤ for each h ∈ H}, spanned by the columns of M·B⁻¹ for
H's Hermite basis B over its modulus M.  |det A_W|·A_W⁻ᵀ = ±adj(A_W)ᵀ is
read off the solve W keeps, and either sign gives Hᵀ, as L = −L.  |Hᵀ| =
|det A_W|/|H| is known before any element exists, and Hᵀ is built from the
Hermite form of its n generators; G_{Wᵀ}^diag and Hᵀ are never listed.  The
dual of the trivial group on Wᵀ (L = ℤⁿ) is G_W^diag itself.  For G = H·K
with H diagonal and K the pure even permutations of G, the non-abelian dual
is G* = Hᵀ·K ≤ G_{Wᵀ}^max.  K normalizes Hᵀ and meets it only in the
identity, so G* has Hᵀ's basis and one lift (k, 0) per k ∈ K, read off
Hᵀ's lattice with no Hᵀ built.  Every group is built from structure, with
no form listed; a cap is checked on |Hᵀ|, or on |Hᵀ|·|K| for G*, before either is built.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import (
    CapExceededError,
    InternalError,
    NotDiagonalError,
    NotHKProductError,
    NotPurePermutationsError,
    OddPermutationError,
)
from .polynomial import InvertiblePolynomial
from .linalg import adjugate, hermite, reduce_by
from .symmetry import (DEFAULT_CAP, MonomialSymmetry, SymmetryGroup, _cycle_text, _perm_cycles,
                       check_symmetries, closure)


class HKDecomposition(namedtuple("HKDecomposition", "group h k")):
    """G = H·K with H the diagonal part and K the pure even permutations."""

    __slots__ = ()


def decompose_hk(group: SymmetryGroup, poly: InvertiblePolynomial) -> HKDecomposition:
    """Split G into diagonal part H and pure even permutation part K.

    Each g = (σ, a) factors as h·k only as h = (id, a), k = (σ, 0), and
    h ∈ G exactly when k ∈ G.  So H is G's diagonal part N, and K holds the
    permutation parts whose coset of N contains 0, i.e. whose lift is 0.
    G = H·K holds exactly when every lift is 0; otherwise the error names
    the first element, in canonical order, whose permutation part is not
    in K: the first nonzero lift.
    """
    check_symmetries(group, poly)
    mod, (ident, zero) = group.modulus, group.lifts[0]
    h = SymmetryGroup(mod, group.basis, [(ident, zero)])
    k = SymmetryGroup(1, hermite([zero], 1), [lift for lift in group.lifts if lift[1] == zero])
    for perm, _ in k.lifts:
        if (len(perm) - len(_perm_cycles(perm))) % 2:
            raise OddPermutationError(f"pure permutation {_cycle_text(perm)} is odd")
    if len(k.lifts) != len(group.lifts):  # the least element of each coset is its lift
        g = MonomialSymmetry.from_numerators(*next(x for x in group.lifts if any(x[1])), mod)
        raise NotHKProductError(
            f"{g.label()} does not factor as diagonal · pure even permutation")
    return HKDecomposition(group, h, k)


def _check_cap(h: SymmetryGroup, poly: InvertiblePolynomial, k_order: int, cap: int) -> None:
    """Errors when |Hᵀ|·k_order exceeds ``cap``; |Hᵀ| = |det A_W|/|H|."""
    if abs(poly.adjugate[0]) // h.order * k_order > cap:
        raise CapExceededError(f"group exceeds cap of {cap} elements")


def _dual_lattice(h: SymmetryGroup, poly: InvertiblePolynomial) -> tuple[int, tuple]:
    """Hᵀ's (modulus, Hermite basis) for diagonal H, paired against H's generators
    alone: (g, h) ↦ g·A_W·hᵀ is bilinear, so integrality on them is integrality on H."""
    det, adj, m_h = abs(poly.adjugate[0]), poly.adjugate[1], h.modulus
    # B·m ≡ 0 mod M_H for H's Hermite form B over M_H
    d, adj_b = adjugate(h.basis)
    gens = [[sum(a * (m_h * b // d) for a, b in zip(c, m)) % det for c in zip(*adj)]
            for m in zip(*adj_b)]
    mod = det // gcd(det, *(x for row in gens for x in row))  # Hᵀ's modulus
    return mod, hermite([[x // (det // mod) for x in row] for row in gens], mod)


def dual_group(h: SymmetryGroup, poly: InvertiblePolynomial,
               cap: int = DEFAULT_CAP) -> SymmetryGroup:
    """Dual of a diagonal group, inside the diagonal group of Wᵀ; errors
    before building it when it has more than ``cap`` elements (by default
    ``DEFAULT_CAP``, 10^6)."""
    if not h.is_diagonal:
        raise NotDiagonalError("dual groups are defined for diagonal groups")
    check_symmetries(h, poly)
    _check_cap(h, poly, 1, cap)
    mod, basis = _dual_lattice(h, poly)
    return SymmetryGroup(mod, basis, h.lifts)  # H's one lift, the identity


def diagonal_group(poly: InvertiblePolynomial) -> SymmetryGroup:
    """All diagonal symmetries of W: the dual of the trivial group on Wᵀ,
    of order |det A_W|; errors before listing any past ``DEFAULT_CAP``."""
    trivial = closure([MonomialSymmetry.identity(poly.n_vars)])  # Wᵀ has W's variables
    return dual_group(trivial, poly.transpose())


def star_group(parts: HKDecomposition, poly: InvertiblePolynomial,
               cap: int = DEFAULT_CAP) -> SymmetryGroup:
    """G* = Hᵀ·K from G's split, H ≤ G as ``decompose_hk`` checked G; errors
    before reading Hᵀ's lattice when |G*| = |Hᵀ|·|K| exceeds ``cap``."""
    _check_cap(parts.h, poly, parts.k.order, cap)
    mod, basis = _dual_lattice(parts.h, poly)  # each basis row x∘k lies in Hᵀ
    if any(any(reduce_by(tuple(map(row.__getitem__, k)), basis, mod))
           for k, _ in parts.k._lift_gens for row in basis):
        raise InternalError("K does not normalize Hᵀ")
    # G* = ⋃_k k·Hᵀ: Hᵀ's basis, and each permutation of K with lift 0
    return SymmetryGroup(mod, basis, parts.k.lifts)


def nonabelian_dual(group: SymmetryGroup, poly: InvertiblePolynomial,
                    cap: int = DEFAULT_CAP) -> SymmetryGroup:
    """G* = Hᵀ·K for G = H·K; a subgroup of the dual polynomial's symmetries."""
    return star_group(decompose_hk(group, poly), poly, cap)


def parity_condition(k: SymmetryGroup) -> tuple[bool, SymmetryGroup | None]:
    """Check dim (ℂⁿ)ᵀ ≡ n (mod 2) for every subgroup T ≤ K, n = K's rank.

    Returns (True, None) or (False, first failing subgroup) in subgroup
    order (by order, then elements), building none past it.  The fixed-space
    dimension of a permutation group is its number of orbits on coordinates,
    read off T's lifts, each one element as K's diagonal part is trivial.
    An odd K holds at once: the orbits of an odd T have odd sizes, so
    n − #orbits = Σ(|O| − 1) is even.
    """
    if k.modulus != 1:  # some element has a nonzero phase
        raise NotPurePermutationsError("parity condition needs pure permutations")
    if k.order % 2:
        return True, None
    n = k.n
    for sub in k._subgroup_walk():
        # in a group, the orbit of i is {g(i) : g ∈ T}
        orbits = {frozenset(perm[i] for perm, _ in sub.lifts) for i in range(n)}
        if (len(orbits) - n) % 2 != 0:
            return False, sub
    return True, None
