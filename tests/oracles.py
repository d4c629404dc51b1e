"""Independent oracles used by the test suite.

Nothing here shares code paths with the library computations it checks:
composition is verified against dense phase-matrix multiplication, invariant
dimensions against the rank of the group-averaging projector (dense modular
Gaussian elimination for two primes p ≡ 1 mod m, plus the exact cyclotomic
trace, which equals the rank of a projector), every bigraded dimension
against graded characters averaged over each centralizer, summed in F_p
with no basis at all, the integer adjugate against
a ``Fraction`` Gauss-Jordan inverse and determinant, diagonal groups
against a brute-force filter of all candidate phase tuples (bounded by that
inverse), dual groups against the diagonal group of Wᵀ so found, filtered
by the pairing with every element of H, the integer phase kernel and coset
generation against the original ``Fraction`` arithmetic and breadth-first
closure on (perm, phases) pairs, the class-representative invariant search
against the original search over every element's sector, which finds every
move's target sector by conjugating the element itself and taking each
bidegree from the textbook formula on ``Fraction`` ages of g and g⁻¹,
classes from H⋊K against orbits under a conjugation table of every element
by every generator, the class walk over cosets of im φ_σ, its cosets
listed member by member, against the walk over element positions it
replaced, the class walk read off P's one walk against the breadth-first
walk over cosets it replaced, the tree that walk keeps against a replay of
P on permutations, each permutation part's values and
preimages of φ_σ and its N^σ against a scan of N, the record of σ = id,
written down, against the elimination that gives every other σ's, structural centralizers
against a filter of every element of the group, and the ordered subgroup
walk against the original enumeration, which collects every subgroup before
sorting them.  The
restricted mirror check, which pairs corners by integer keys, is checked
against the map applied term by term, each image built as an element or a
monomial, with the narrow corners found by scanning H and Hᵀ.  The spec
parsers' token scans and state table are checked against the tokenizer,
recursive-descent loops and gap-checking cycle scan they replaced.  Rational
views of the library's integer fields (phase matrices, canonical vectors,
sector-map phases) are built here too, and so are the views only tests
read: an element's conjugacy class, whether an element is diagonal or a
sector narrow, and a group's identity.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import lcm, prod

import numpy as np

from lgmirror import (
    InvertiblePolynomial,
    MonomialSymmetry,
    RestrictedMirror,
    SymmetryGroup,
    build_sector,
    closure,
    sector_map,
)
from lgmirror.errors import (
    CapExceededError,
    DimensionMismatchError,
    DuplicateVariableError,
    LGError,
    NotAGroupError,
    NotAMemberError,
    NotDiagonalError,
    NotSquareError,
    ParseError,
    TheoremViolationError,
)
from lgmirror.linalg import hermite, reduce_by
from lgmirror.symmetry import _lattice_forms, _lattice_generators
from lgmirror.polynomial import parse_digits

ZERO = Fraction(0)


# --- Fraction elimination -----------------------------------------------------

def matrix_inverse(matrix) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over the rationals; None
    when the matrix is singular."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] +
           [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def determinant(matrix) -> Fraction:
    """Exact determinant by elimination over the rationals."""
    n = len(matrix)
    work = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


# --- dense monomial matrices -------------------------------------------------

def matrix_product(a, b):
    """Multiply matrices whose entries are None (zero) or a phase."""
    n = len(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            hits = [a[i][j] + b[j][k] for j in range(n)
                    if a[i][j] is not None and b[j][k] is not None]
            assert len(hits) <= 1, "product is not a monomial matrix"
            if hits:
                out[i][k] = hits[0] % 1
    return out


def is_diagonal(g: MonomialSymmetry) -> bool:
    """True iff g moves no coordinate."""
    return all(p == i for i, p in enumerate(g.perm))


def is_identity(g: MonomialSymmetry) -> bool:
    return g.mod == 1 and is_diagonal(g)


def identity_of(group) -> MonomialSymmetry:
    """The identity element of ``group``."""
    return MonomialSymmetry.identity(group.n)


def element_key(g: MonomialSymmetry):
    """(perm, phases): sorts elements in the canonical order group listings follow."""
    return (g.perm, g.phases)


def conjugated_by(g: MonomialSymmetry, gamma: MonomialSymmetry) -> MonomialSymmetry:
    """γ⁻¹·g·γ."""
    return gamma.inverse() * g * gamma


def phase_matrix(g: MonomialSymmetry):
    """Dense matrix form: entry (i, σ(i)) holds the phase, others None."""
    mat = [[None] * g.n for _ in range(g.n)]
    for i, phase in enumerate(g.phases):
        mat[i][g.perm[i]] = phase
    return mat


def element_of_matrix(mat) -> MonomialSymmetry:
    n = len(mat)
    perm = [0] * n
    phases = [ZERO] * n
    for i in range(n):
        entries = [(j, v) for j, v in enumerate(mat[i]) if v is not None]
        assert len(entries) == 1, "matrix is not monomial"
        perm[i], phases[i] = entries[0]
    return MonomialSymmetry(perm, phases)


def apply_to_vector(g: MonomialSymmetry, vec):
    """g acting on a sparse vector of phases (None = zero entry)."""
    out = []
    for i in range(g.n):
        v = vec[g.perm[i]]
        out.append(None if v is None else (g.phases[i] + v) % 1)
    return tuple(out)


def canonical_vectors(locus):
    """Full-length canonical vectors of a fixed locus; None marks a zero
    entry, else the phase."""
    out = []
    for cycle, nums in zip(locus.cycles, locus.phase_nums):
        full = [None] * locus.n
        for i, x in zip(cycle, nums):
            full[i] = Fraction(x, locus.mod)
        out.append(tuple(full))
    return tuple(out)


def element_map(gamma: MonomialSymmetry, sector):
    """(map, target): the pullback by the element γ from ``sector`` to the
    sector of γ⁻¹gγ, built with its check, as ``sector_map`` reads it off
    γ's form and the two fixed loci."""
    target = build_sector(sector.poly, conjugated_by(sector.element, gamma))
    return sector_map((gamma.perm, gamma.nums), gamma.mod, sector.locus, target.locus), target


def sector_scalars(sm):
    """The phases γ*(y_c) = e(t_c)·y'_image of a sector map, as rationals."""
    return tuple(Fraction(x, sm.mod) for x in sm.scalar_nums)


def form_phase(sm) -> Fraction:
    """The phase the volume form picks up under a sector map."""
    return Fraction(sm.form_num, sm.mod)


def apply_phase(sm, exponents):
    """(image exponents, t) for the coefficient e(t) of a sector map's
    image, t a rational in [0, 1)."""
    image, num = sm.apply(exponents, sm.mod)
    return image, Fraction(num, sm.mod)


# --- slow Fraction kernel ---------------------------------------------------
#
# Elements are (perm, phases) pairs with phases rationals in [0, 1), composed
# with the library's convention: perm i ↦ τ(σ(i)), phase_i = a_i + b_{σ(i)}.

HALF = Fraction(1, 2)


def frac_form(g: MonomialSymmetry):
    return g.perm, g.phases


def frac_compose(a, b):
    (pa, xa), (pb, xb) = a, b
    return (tuple(pb[p] for p in pa),
            tuple((xa[i] + xb[pa[i]]) % 1 for i in range(len(pa))))


def frac_inverse(a):
    perm, phases = a
    inv = [0] * len(perm)
    out = [ZERO] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
        out[p] = -phases[i] % 1
    return tuple(inv), tuple(out)


def frac_is_identity(a) -> bool:
    perm, phases = a
    return all(p == i for i, p in enumerate(perm)) and all(x == 0 for x in phases)


def frac_order(a) -> int:
    k, g = 1, a
    while not frac_is_identity(g):
        g = frac_compose(g, a)
        k += 1
    return k


def frac_cycles(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if not seen[i]:
            cycle = [i]
            seen[i] = True
            j = perm[i]
            while j != i:
                cycle.append(j)
                seen[j] = True
                j = perm[j]
            out.append(tuple(cycle))
    return tuple(out)


def frac_det_phase(a) -> Fraction:
    perm, phases = a
    parity = (len(perm) - len(frac_cycles(perm))) % 2
    return (sum(phases, ZERO) + HALF * parity) % 1


def frac_age(a) -> Fraction:
    perm, phases = a
    total = ZERO
    for cycle in frac_cycles(perm):
        s = sum((phases[i] for i in cycle), ZERO)
        ell = len(cycle)
        total += sum(((s + k) / ell) % 1 for k in range(ell))
    return total


def a_bidegree(sector, degree: Fraction) -> tuple[Fraction, Fraction]:
    """The textbook A-model bidegree of an element of weighted degree
    ``degree`` in the sector of g: (deg + age g − age j_W,
    N_g − deg + age g − age j_W), N_g = dim Fix(g), ages from the phases."""
    g = frac_form(sector.element)
    shift = frac_age(g) - sum(sector.poly.weights, ZERO)
    return (degree + shift, len(frac_fixed_locus(g)[0]) - degree + shift)


def b_bidegree(sector, degree: Fraction) -> tuple[Fraction, Fraction]:
    """The textbook B-model bidegree (deg + age g − age j_W,
    deg + age g⁻¹ − age j_W), both ages from the phases."""
    g = frac_form(sector.element)
    shift = sum(sector.poly.weights, ZERO)
    return (degree + frac_age(g) - shift, degree + frac_age(frac_inverse(g)) - shift)


def frac_degree(sector, exponents) -> Fraction:
    """Σ (b_C + 1)·q_C of Π y^{b_C}·ω, q_C the weight of cycle C's variables."""
    q, cycles = sector.poly.weights, frac_fixed_locus(frac_form(sector.element))[0]
    return sum(((b + 1) * q[c[0]] for b, c in zip(exponents, cycles)), ZERO)


def frac_fixed_locus(a):
    """(cycles, canonical phase vectors) of the zero-phase cycles."""
    perm, phases = a
    cycles, vectors = [], []
    for cycle in frac_cycles(perm):
        if sum((phases[i] for i in cycle), ZERO) % 1 != 0:
            continue
        phase = ZERO
        vec = []
        for i in cycle:
            vec.append(phase)
            phase = (phase - phases[i]) % 1
        cycles.append(cycle)
        vectors.append(tuple(vec))
    return tuple(cycles), tuple(vectors)


def frac_closure(gens) -> set:
    n = len(gens[0][0])
    identity = (tuple(range(n)), (ZERO,) * n)
    elems = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = frac_compose(a, g)
                if b not in elems:
                    elems.add(b)
                    fresh.append(b)
        frontier = fresh
    return elems


def _compose_forms(a, b, mod: int):
    """Product of integer forms (perm, numerators mod ``mod``): perm i ↦
    b(a(i)), phase_i = a_i + b_{a(i)}."""
    (pa, na), (pb, nb) = a, b
    return tuple([pb[p] for p in pa]), tuple([(x + nb[p]) % mod for x, p in zip(na, pa)])


def _generate(forms, mod: int, cap: int):
    """The group the integer forms over ``mod`` generate, as a set of forms,
    and the indices of the forms kept as generators: in order, each form not
    yet generated joins, and the generated set grows by right cosets of the
    group it had (Dimino).  Errors as soon as the group has over ``cap``
    elements, before that coset is built."""
    n = len(forms[0][0])
    identity = (tuple(range(n)), (0,) * n)
    have, sub, picked, gens = {identity}, [identity], [], []
    for i, form in enumerate(forms):
        if form in have:
            continue
        picked.append(i)
        gens.append(form)
        grown, fresh = list(sub), [form]
        while fresh:
            rep = fresh.pop()
            if rep not in have:
                if len(have) + len(sub) > cap:
                    raise CapExceededError(f"group exceeds cap of {cap} elements")
                coset = [_compose_forms(h, rep, mod) for h in sub]
                have.update(coset)
                grown.extend(coset)
                fresh.extend(_compose_forms(rep, g, mod) for g in gens)
        sub = grown
    return have, picked


def group_of_forms(forms, mod: int) -> SymmetryGroup:
    """The group whose integer forms over ``mod`` are ``forms``, through the
    one constructor: N's Hermite basis from the diagonal forms, and the
    first form of each permutation part as its lift.  NotAGroupError when
    the forms are not closed: when Dimino over them grows past them, or
    when the listing of that structure differs from the sorted forms."""
    forms = sorted(forms)
    if not forms:
        raise NotAGroupError("a group needs at least the identity")
    n = len(forms[0][0])
    if any(len(perm) != n for perm, _ in forms):
        raise DimensionMismatchError("mixed ranks in one group")
    ident = tuple(range(n))
    if forms[0] != (ident, (0,) * n):
        raise NotAGroupError("identity missing from element list")
    try:
        closed = len(_generate(forms, mod, len(forms))[0]) == len(forms)
    except CapExceededError:
        closed = False
    lifts = {}
    for perm, nums in forms:
        lifts.setdefault(perm, nums)
    group = SymmetryGroup(mod, hermite([nums for perm, nums in forms if perm == ident], mod),
                          lifts.items())
    scale = mod // group.modulus
    if not closed or forms != [(perm, tuple(x * scale for x in nums))
                               for perm, nums in group._forms]:
        raise NotAGroupError("the forms are not closed under composition")
    return group


def sl_subgroup(group) -> SymmetryGroup:
    """The elements of determinant one, as a group."""
    return group_of_forms([form for g, form in zip(group, group._forms) if not g.det_num()],
                          group.modulus)


def two_generated_subgroups(elements):
    """The subgroups ⟨a, b⟩ over all pairs of ``elements``, as sorted lists
    of (perm, phases) forms ordered by size, then forms: every subgroup
    when each is generated by two elements (so for S4 and A5)."""
    forms = sorted(frac_form(g) for g in elements)  # the identity first
    index = {form: i for i, form in enumerate(forms)}
    table = [[index[frac_compose(a, b)] for b in forms] for a in forms]
    subs = set()
    for a in range(len(forms)):
        for b in range(a, len(forms)):
            sub, stack = {0}, [0]
            while stack:
                x = stack.pop()
                for y in (table[x][a], table[x][b]):
                    if y not in sub:
                        sub.add(y)
                        stack.append(y)
            subs.add(frozenset(sub))
    return sorted((sorted(forms[i] for i in sub) for sub in subs),
                  key=lambda sub: (len(sub), sub))


def sorted_subgroups(group):
    """Every subgroup as its sorted list of element indices, ordered by
    size, then indices: all are collected first, then sorted once.  Each
    subgroup S found is extended once per right coset S·x outside it, and
    ⟨S, x⟩ grows from S by right cosets on the multiplication table."""
    elements = group.elements
    index = {g: i for i, g in enumerate(elements)}
    table = [[index[a * b] for b in elements] for a in elements]
    seen = {frozenset({0})}
    queue = [(frozenset({0}), [])]  # (elements, generators) as indices
    while queue:
        sub, gens = queue.pop()
        tried = set(sub)
        for x in range(len(elements)):
            if x in tried:
                continue
            tried.update(table[h][x] for h in sub)
            have, fresh, ext_gens = set(sub), [x], gens + [x]
            while fresh:
                rep = fresh.pop()
                if rep not in have:
                    have.update([table[h][rep] for h in sub])
                    fresh.extend(table[rep][g] for g in ext_gens)
            ext = frozenset(have)
            if ext not in seen:
                seen.add(ext)
                queue.append((ext, ext_gens))
    return sorted((sorted(sub) for sub in seen), key=lambda sub: (len(sub), sub))


def frac_greedy_generators(elements):
    """Greedy generating set scanning (perm, phases) pairs in sorted order."""
    elements = sorted(elements)
    gens = []
    have = {elements[0]}
    for g in elements:
        if g not in have:
            gens.append(g)
            have = frac_closure(gens)
            if len(have) == len(elements):
                break
    return gens


def frac_conjugacy_classes(elements, gens):
    """Classes as sorted tuples of pairs, ordered by least member."""
    gen_invs = [(g, frac_inverse(g)) for g in gens]
    assigned = set()
    classes = []
    for g in sorted(elements):
        if g in assigned:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for gen, inv in gen_invs:
                y = frac_compose(frac_compose(inv, x), gen)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        assigned |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def conjugation_table(group):
    """Row k, entry i: the index of γ⁻¹·g_i·γ for γ the k-th generator,
    composed as (perm, phases) pairs and looked up by that pair."""
    forms = [frac_form(g) for g in group.elements]
    index = {form: i for i, form in enumerate(forms)}
    rows = []
    for gamma in group.generators:
        gamma = frac_form(gamma)
        inv = frac_inverse(gamma)
        rows.append(tuple(index[frac_compose(frac_compose(inv, x), gamma)]
                          for x in forms))
    return tuple(rows)


def table_classes(group):
    """The classes as sorted element-index tuples, ordered by least index:
    orbits of the indices under the conjugation table."""
    table = conjugation_table(group)
    owner = [-1] * group.order
    classes = []
    for i in range(group.order):
        if owner[i] < 0:
            owner[i] = len(classes)
            orbit = [i]
            for x in orbit:  # grows while it is read
                for row in table:
                    if owner[row[x]] < 0:
                        owner[row[x]] = owner[i]
                        orbit.append(row[x])
            classes.append(tuple(sorted(orbit)))
    return classes


def class_walk_by_elements(group):
    """``class_transversals`` walked over element positions: every form
    listed, a form index over the listing and an owner array of |G| slots.
    The first position in canonical order that no class owns leads a new
    class, whose cosets of im φ_σ are walked from it along the inverse
    lift generators, each coset's members and preimages read off the
    record of its σ."""
    forms, mod = group._forms, group.modulus
    index = {form: i for i, form in enumerate(forms)}
    gens = [(MonomialSymmetry.from_numerators(*g, mod).inverse().over(mod), g)
            for g in group._lift_gens]
    owner = [-1] * group.order
    classes = []
    for i in range(group.order):
        if owner[i] >= 0:
            continue
        members, cosets = [], [(i, forms[0])]
        for y, word in cosets:  # grows while it is read
            if owner[y] >= 0:
                continue  # its coset was walked before
            px, nx = forms[y]
            for v, c in group._part(px).preimages.items():  # 0 first: y itself
                x = index[px, tuple((p + q) % mod for p, q in zip(nx, v))]
                owner[x] = len(classes)
                members.append((forms[x], word, c))
            for inv, g in gens:  # g⁻¹·y·g
                z = index[_compose_forms(_compose_forms(inv, forms[y], mod), g, mod)]
                if owner[z] < 0:
                    cosets.append((z, _compose_forms(word, g, mod)))
        classes.append(members)
    return classes


def class_walk_by_cosets(group):
    """``class_transversals`` as one breadth-first walk over cosets per
    class: for each lift (σ, a_σ) in order, the first least member r of a
    coset of im φ_σ in a_σ + N that no class has met leads a new class,
    whose cosets are walked from (σ, r) along the lift generators g,
    g⁻¹·y·g, each coset known by its least member and met when first
    reached, its word the word of the coset it was reached from times g."""
    mod, ident = group.modulus, group.lifts[0]
    gens = [(MonomialSymmetry.from_numerators(*g, mod).inverse().over(mod), g)
            for g in group._lift_gens]
    met, classes = set(), []
    for sigma, a in group.lifts:
        for r in group._coset(a, within=group._part(sigma).image):
            if (sigma, r) in met:
                continue
            met.add((sigma, r))
            cosets = [((sigma, r), ident)]
            for y, word in cosets:  # grows while it is read
                for inv, g in gens:
                    pz, nz = _compose_forms(_compose_forms(inv, y, mod), g, mod)
                    key = (pz, reduce_by(nz, group._part(pz).image, mod))
                    if key not in met:
                        met.add(key)
                        cosets.append(((pz, nz), _compose_forms(word, g, mod)))
            classes.append(cosets)
    return classes


def walk_tree_by_replay(group):
    """The tree of P's walk over the lift generators, as the class walk
    rebuilt it before the walk kept it: P replayed on permutations alone,
    breadth-first from the identity, each edge (τ, g, τ∘γ) by which a lift
    generator g = (γ, c) first reaches a permutation, in reach order."""
    ident = group.lifts[0][0]
    order, reached, tree = [ident], {ident}, []
    for tau in order:  # grows while it is read
        for g in group._lift_gens:
            t = tuple(map(g[0].__getitem__, tau))
            if t not in reached:
                reached.add(t)
                order.append(t)
                tree.append((tau, g, t))
    return tree


def class_members(group):
    """``class_transversals`` with every coset listed: per class, (x, w, c)
    for each member x, coset by coset in the walk's order, each coset's
    head first, x = head + v for each value v of φ_σ and its preimage c
    in the order the record of the head's σ keeps them, so that t = w·c
    has t⁻¹·r·t = x: the shape ``class_walk_by_elements`` gives."""
    mod = group.modulus
    return [[((px, tuple((p + q) % mod for p, q in zip(nx, v))), w, c)
             for (px, nx), w in cosets for v, c in group._part(px).preimages.items()]
            for cosets in group.class_transversals]


def preimages_by_scan(group, sigma):
    """({v: c}, N^σ's Hermite basis) for φ_σ(c) = c∘σ − c on N: a scan of
    N's forms in canonical order that keeps the first c of each value v,
    the value 0 first, and the Hermite form of the c sent to 0."""
    mod, preimage, kernel = group.modulus, {}, []
    for _, c in group._forms[:group.order // len(group.lifts)]:  # N's coset comes first
        v = tuple([(c[s] - x) % mod for s, x in zip(sigma, c)])
        preimage.setdefault(v, c)
        if not any(v):
            kernel.append(c)
    return preimage, hermite(kernel, mod)


def part_by_elimination(group, sigma):
    """σ's record (``SymmetryGroup._part``) as one Hermite form over 2n
    columns of the pairs (φ_σ(c), c), c in N's basis, gives it for every σ,
    σ = id included: N^σ's basis and generators from its last n rows, im
    φ_σ's rows from its first n, and each value of φ_σ with a preimage from
    their combinations, 0 first."""
    n, mod, ident = group.n, group.modulus, group.lifts[0][0]
    form = hermite([[(row[s] - x) % mod for s, x in zip(sigma, row)] + list(row)
                    for row in group.basis], mod)
    basis = [row[n:] for row in form[n:]]
    return (basis, [(ident, row) for row in _lattice_generators(basis, mod)],
            [row[:n] for row in form[:n]],
            {v[:n]: v[n:] for v in _lattice_forms(form[:n], mod, (0,) * 2 * n)})


def brute_force_centralizer(group, g):
    """C_G(g) as the elements x of G with x·g = g·x, in canonical order."""
    return [x for x in group.elements if x * g == g * x]


def factor_each_element(group, poly):
    """H·K split element by element: (H, K) as element lists, or the
    error of the first element, in canonical order, whose diagonal factor
    (id, a) or pure-permutation factor (σ, 0) is missing from G."""
    from lgmirror import (NotASymmetryError, NotHKProductError,
                          OddPermutationError, is_symmetry)

    for g in group.generators:
        if not is_symmetry(g, poly):
            raise NotASymmetryError(f"{g.label()} is not a symmetry of {poly}")
    h_elems = [g for g in group if is_diagonal(g)]
    k_elems = [g for g in group if g.mod == 1]  # the pure permutations
    for g in k_elems:
        if g.perm_parity != 0:
            raise OddPermutationError(f"pure permutation {g.cycle_string()} is odd")
    h = closure(h_elems)
    k = closure(k_elems)
    make = MonomialSymmetry.from_numerators
    ident, zeros = identity_of(group).perm, (0,) * group.n
    for g in group:
        if make(ident, g.nums, g.mod) not in h or make(g.perm, zeros, 1) not in k:
            raise NotHKProductError(
                f"{g.label()} does not factor as diagonal · pure even permutation")
    return h_elems, k_elems


# --- per-element invariant search ---------------------------------------------

# an orbit sum as the library's vectors read: (phase, exponents, element)
# terms and a pair of rationals
SearchedVector = namedtuple("SearchedVector", "side terms bidegree")


def search_invariant_basis(poly, group, side):
    """Orbit-sum basis found as ``invariant_basis`` once did: a search from
    every element's sector under the group's generators, each move's target
    γ⁻¹gγ built by ``element_map`` and looked up with ``index_of``, and
    each bidegree taken from the textbook formula on ``Fraction`` ages.
    Each vector is a ``SearchedVector`` of ``Fraction``s and elements."""
    elements = group.elements
    sectors = [build_sector(poly, g) for g in elements]
    moves = []
    for gamma in group.generators:
        row = []
        for sector in sectors:
            sm, target = element_map(gamma, sector)
            row.append((index_of(group, target.element), sm))
        moves.append(row)
    mod = lcm(2, group.modulus)
    bidegree_of = a_bidegree if side == "A" else b_bidegree
    done = set()
    vectors = []
    for i, sector in enumerate(sectors):
        for start in sector.basis:
            root = (i, start)
            if root in done:
                continue
            phases = {root: 0}
            stack = [root]
            consistent = True
            while stack:
                node = stack.pop()
                base = phases[node]
                for row in moves:
                    j, sm = row[node[0]]
                    image, delta = sm.apply(node[1], mod)
                    target = (j, image)
                    total = (base + delta) % mod
                    known = phases.get(target)
                    if known is None:
                        phases[target] = total
                        stack.append(target)
                    elif known != total:
                        consistent = False
            done.update(phases)
            if not consistent:
                continue
            ordered = sorted(phases)
            lead_phase = phases[ordered[0]]
            terms = tuple((Fraction((phases[node] - lead_phase) % mod, mod),
                           node[1], elements[node[0]]) for node in ordered)
            lead = ordered[0]
            bidegree = bidegree_of(sectors[lead[0]],
                                   frac_degree(sectors[lead[0]], lead[1]))
            vectors.append((lead, SearchedVector(side, terms, bidegree)))
    vectors.sort(key=lambda pair: pair[0])
    return tuple(v for _, v in vectors)


# --- the mirror map per element -----------------------------------------------

class NotDiagonalSectorError(LGError):
    code = "NotDiagonalSector"


class ExponentOutOfRangeError(LGError):
    code = "ExponentOutOfRange"


def narrow_diagonal_set(h) -> tuple[MonomialSymmetry, ...]:
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
    if not is_diagonal(g):
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


def _match_images(poly, sources, targets, target_key, part, source_name,
                  target_name):
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


def corner_pairs(poly, a_space, b_space, h, h_dual) -> RestrictedMirror:
    """The restricted mirror check term by term: each term's image is built
    as an element or a monomial by ``unprojected_mirror``, and the narrow
    corners are the leads found by scanning all of H and Hᵀ."""
    a_narrow = frozenset(narrow_diagonal_set(h))
    b_narrow = frozenset(narrow_diagonal_set(h_dual))
    a0 = [v for v in a_space.basis if is_identity(v.leading[2])]
    anar = [v for v in a_space.basis if v.leading[2] in a_narrow]
    b0 = [v for v in b_space.basis if is_identity(v.leading[2])]
    bnar = [v for v in b_space.basis if v.leading[2] in b_narrow]
    return RestrictedMirror(
        _match_images(poly, a0, bnar, lambda w: frozenset(w.sector_elements), 1,
                      "untwisted vector", "narrow class sum"),
        _match_images(poly, anar, b0, lambda w: frozenset(e for _, e, _ in w.terms),
                      0, "narrow class sum", "untwisted vector"))


# --- primes and roots of unity ----------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_one_mod(m: int, floor: int) -> int:
    """Smallest prime p ≥ floor with p ≡ 1 (mod m)."""
    k = max(1, (floor - 1 + m - 1) // m)
    while True:
        p = k * m + 1
        if p >= floor and is_prime(p):
            return p
        k += 1


def root_of_unity(m: int, p: int) -> int:
    """Element of multiplicative order exactly m in F_p (needs m | p−1)."""
    assert (p - 1) % m == 0
    if m == 1:
        return 1
    factors = {q for q in range(2, m + 1) if m % q == 0 and is_prime(q)}
    for a in range(2, p):
        z = pow(a, (p - 1) // m, p)
        if z != 1 and all(pow(z, m // q, p) != 1 for q in factors):
            return z
    raise AssertionError("no primitive root found")


# --- views only the tests read -----------------------------------------------

def index_of(group, g) -> int:
    """g's position in the group's listing, found by bisection, as the
    listing is sorted; NotAMemberError when g is not in the group."""
    if g not in group:
        raise NotAMemberError(f"{g!r} is not in this group")
    return bisect_left(group._forms, g.over(group.modulus))


def class_of(group, g):
    """The conjugacy class of g, sorted, as ``group.conjugacy_classes()``
    lists it: the one that holds g."""
    return next(cls for cls in group.conjugacy_classes() if g in cls)


def is_narrow(sector) -> bool:
    """True when the sector's fixed locus is the origin."""
    return sector.locus.dim == 0


# --- averaging projector oracle ---------------------------------------------

def class_action(poly, group, rep):
    """Permutation-with-phase action of every γ ∈ G on one class's nodes."""
    cls = class_of(group, rep)
    sectors = {g: build_sector(poly, g) for g in cls}
    nodes = [(g, b) for g in cls for b in sectors[g].basis]
    index = {node: i for i, node in enumerate(nodes)}
    tables = []
    for gamma in group.elements:
        maps = {g: element_map(gamma, sectors[g]) for g in cls}
        images = []
        phases = []
        for g, b in nodes:
            sm, target = maps[g]
            image, delta = apply_phase(sm, b)
            images.append(index[(target.element, image)])
            phases.append(delta)
        tables.append((images, phases))
    return nodes, tables


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    m = matrix % p
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), p - 2, p) % p
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] = (m[r] - m[r, c] * m[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def action_denominator(tables) -> int:
    """Common denominator of every phase appearing in the action."""
    return lcm(*(ph.denominator for _, phases in tables for ph in phases), 1)


def projector_rank(tables, m: int) -> int:
    """Rank of Σ_γ ρ(γ) over F_p, agreeing for two independent primes."""
    size = len(tables[0][0])
    ranks = []
    floor = 10 ** 6
    for _ in range(2):
        p = prime_one_mod(m, floor)
        floor = p + 1
        zeta = root_of_unity(m, p)
        zpow = [pow(zeta, k, p) for k in range(m)]
        mat = np.zeros((size, size), dtype=np.int64)
        for images, phases in tables:
            for col in range(size):
                k = int(phases[col] * m) % m
                mat[images[col], col] = (mat[images[col], col] + zpow[k]) % p
        ranks.append(rank_mod_p(mat, p))
    assert ranks[0] == ranks[1], "modular ranks disagree between primes"
    return ranks[0]


def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients of Φ_m, low degree first."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m − 1
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return poly


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff = num[k + len(den) - 1] // den[-1]
        out[k] = coeff
        for i, c in enumerate(den):
            num[k + i] -= coeff * c
    assert all(c == 0 for c in num), "inexact polynomial division"
    return out


def projector_trace(tables, m: int, group_order: int) -> int:
    """Exact invariant dimension via trace(average) in Q(ζ_m).

    The averaging operator is idempotent, so its rank equals its trace; the
    trace is a sum of m-th roots of unity reduced mod Φ_m.
    """
    counts = [0] * m
    for images, phases in tables:
        for i, img in enumerate(images):
            if img == i:
                counts[int(phases[i] * m) % m] += 1
    phi = cyclotomic_polynomial(m)
    rem = list(counts)
    for k in range(len(rem) - len(phi), -1, -1):
        coeff = rem[k + len(phi) - 1]
        if coeff:
            for i, c in enumerate(phi):
                rem[k + i] -= coeff * c
    assert all(c == 0 for c in rem[1:]), "trace is not rational"
    assert rem[0] % group_order == 0, "trace is not an integral dimension"
    return rem[0] // group_order


def phase_denominator(group) -> int:
    return lcm(*(p.denominator for g in group for p in g.phases), 1)


# --- graded-character oracle --------------------------------------------------

def _graded_trace(orbits, unit: int, zpow, p: int) -> dict[int, int]:
    """The graded trace over F_p of h* on a Fermat sector Q_{W_r}·ω_r, from
    h's orbits on r's fixed cycles as (length k, exponent d, phase sum S·m),
    degrees in units of 1/``unit``.  A basis monomial y^b·ω is fixed exactly
    when b is constant on each orbit, and an orbit with exponent b
    contributes the volume form's sign (−1)^(k−1), the phase e((b + 1)·S)
    and the degree k·(b + 1)/d."""
    m, trace = len(zpow), {0: 1}
    for k, d, s in orbits:
        sign = 1 if k % 2 else -1
        grown: dict[int, int] = {}
        for b in range(d - 1):
            x, u = sign * zpow[(b + 1) * s % m], k * (b + 1) * (unit // d)
            for t, y in trace.items():
                grown[t + u] = (grown.get(t + u, 0) + x * y) % p
        trace = grown
    return trace


def character_dims(poly: InvertiblePolynomial, group, side: str) -> dict:
    """Bigraded dimensions of the state space from characters alone, with
    no basis: for each class representative r, the average over h ∈ C(r)
    of the graded trace of h* on Q_{W_r}·ω_r.

    h = (τ, b) ∈ C(r) maps the canonical vector v_C of r's fixed cycle C to
    μ_C·v_C', where C' holds τ⁻¹(C₀); h* sends y_C' to μ_C·y_C, so its trace
    factors over the orbits C → C' with S_O = Σ μ_C (``_graded_trace``).
    Classes and centralizers come from h⁻¹·r·h over every h at once, on
    integer (perm, numerator) arrays; the roots of unity are summed in F_p,
    p ≡ 1 (mod m), where the average is the dimension's residue.  Nothing
    here reads the library's class walk, fixed cycles or invariant search."""
    elements, n = group.elements, group.n
    m = lcm(*(g.mod for g in elements))
    p = prime_one_mod(m, 10 ** 6)
    zpow = [pow(root_of_unity(m, p), k, p) for k in range(m)]
    perms = np.array([g.perm for g in elements])
    nums = np.array([[x * (m // g.mod) for x in g.nums] for g in elements])
    # a row of n digits below n and n below m as one int64 key
    assert (n * m) ** n < 2 ** 62
    weights = np.array([n ** j for j in range(n)] + [n ** n * m ** j for j in range(n)])
    keys = np.hstack([perms, nums]) @ weights
    order = np.argsort(keys)
    inverses = np.argsort(perms, axis=1)  # τ⁻¹ row by row
    rows = np.arange(len(elements))[:, None]
    d_of = [max(row) for row in poly.exponents]
    unit = lcm(*d_of)  # degrees in units of 1/unit, bidegrees of 1/den
    jw = sum(poly.weights, ZERO)
    den = lcm(unit, jw.denominator, m * lcm(*range(1, n + 1)))
    jw = jw.numerator * (den // jw.denominator)
    owner = np.zeros(len(elements), dtype=bool)
    traces, averages, dims = {}, {}, {}
    for r, g in enumerate(elements):
        if owner[r]:
            continue
        sigma, a = perms[r], nums[r]
        # h⁻¹·r·h = (τ∘σ∘τ⁻¹, a∘τ⁻¹ + b∘σ∘τ⁻¹ − b∘τ⁻¹) for h = (τ, b)
        at = sigma[inverses]
        conj = np.hstack([np.take_along_axis(perms, at, axis=1),
                          (a[inverses] + nums[rows, at] - nums[rows, inverses]) % m]) @ weights
        owner[order[np.searchsorted(keys, conj, sorter=order)]] = True
        central = np.flatnonzero(conj == keys[r])
        # r's fixed cycles by least index, canonical vector phases, and
        # the age: a cycle of length ℓ and phase sum s/m has the ℓ phases
        # (s/m + k)/ℓ mod 1
        fixed, cycle_of, vec, seen = [], np.full(n, -1), np.zeros(n, dtype=int), set()
        age = 0
        for i in range(n):
            if i in seen:
                continue
            cycle = [i]
            while sigma[cycle[-1]] != i:
                cycle.append(int(sigma[cycle[-1]]))
            seen.update(cycle)
            ell, phase = len(cycle), int(sum(a[cycle]))
            age += sum((phase + k * m) % (ell * m) for k in range(ell)) * (den // (ell * m))
            if phase % m:
                continue
            for j, k in zip(cycle, cycle[1:]):
                vec[k] = (vec[j] - a[j]) % m
            cycle_of[cycle] = len(fixed)
            fixed.append(i)
        key = (cycle_of.tobytes(), vec.tobytes(), central.tobytes())
        if key not in averages:
            # per h and fixed cycle C: the index of C', and μ_C·m
            back = inverses[np.ix_(central, fixed)]
            images = cycle_of[back]
            assert (images >= 0).all(), "C(r) does not keep Fix(r)"
            mus = (nums[central[:, None], back] - vec[back]) % m
            move = images @ weights[:len(fixed)] + mus @ weights[n:n + len(fixed)]
            _, first, counts = np.unique(move, return_index=True, return_counts=True)
            total: dict[int, int] = {}
            for h, count in zip(first.tolist(), counts.tolist()):
                image, mu, orbits, done = images[h].tolist(), mus[h].tolist(), [], set()
                for start in range(len(fixed)):
                    if start in done:
                        continue
                    orbit = [start]
                    while image[orbit[-1]] != start:
                        orbit.append(image[orbit[-1]])
                    done.update(orbit)
                    orbits.append((len(orbit), d_of[fixed[start]], sum(mu[c] for c in orbit) % m))
                orbits = tuple(sorted(orbits))
                if orbits not in traces:
                    traces[orbits] = _graded_trace(orbits, unit, zpow, p)
                for t, x in traces[orbits].items():
                    total[t] = (total.get(t, 0) + count * x) % p
            inverse = pow(len(central), -1, p)
            averages[key] = {t: x * inverse % p for t, x in total.items()}
        bound = prod(d_of[c] - 1 for c in fixed)
        for t, dim in averages[key].items():
            assert dim <= bound, "the average is not a dimension"
            t *= den // unit
            bd = ((t + age - jw, len(fixed) * den - t + age - jw) if side == "A" else
                  (t + age - jw, t + (n - len(fixed)) * den - age - jw))
            if dim:
                dims[bd] = dims.get(bd, 0) + dim
    return {(Fraction(u, den), Fraction(v, den)): dim for (u, v), dim in dims.items()}


# --- brute force enumerations -------------------------------------------------

def brute_force_diagonal(poly: InvertiblePolynomial) -> set[tuple[Fraction, ...]]:
    """All diagonal symmetries by filtering candidate phase tuples.

    Candidate denominators per coordinate come from the columns of A⁻¹
    (Cramer bound); membership itself is the defining integrality test
    A·a ∈ ℤᴺ.
    """
    inv = matrix_inverse(poly.exponents)
    n = poly.n_vars
    # phase k of any solution a = A⁻¹·m has denominator dividing the lcm of
    # the denominators in row k of A⁻¹
    bounds = [lcm(*(inv[k][j].denominator for j in range(n)), 1)
              for k in range(n)]
    found = set()

    def rec(k, prefix):
        if k == n:
            # A·a must be integral
            for row in poly.exponents:
                total = sum((row[j] * prefix[j] for j in range(n)), ZERO)
                if total.denominator != 1:
                    return
            found.add(tuple(prefix))
            return
        for t in range(bounds[k]):
            rec(k + 1, prefix + [Fraction(t, bounds[k])])

    rec(0, [])
    return found


def scan_dual_group(h, poly: InvertiblePolynomial,
                    candidates: set[tuple[Fraction, ...]]) -> set[tuple[Fraction, ...]]:
    """Hᵀ as phase tuples: the diagonal symmetries of Wᵀ, ``candidates``
    from ``brute_force_diagonal(poly.transpose())``, whose pairing
    g·A_W·hᵀ with every element h of H is an integer."""
    n = poly.n_vars
    paired = [[sum((poly.exponents[i][j] * x for j, x in enumerate(g.phases)), ZERO)
               for i in range(n)] for g in h]
    return {g for g in candidates
            if all(sum((a * b for a, b in zip(g, w)), ZERO).denominator == 1
                   for w in paired)}


def subgroup_count_elementary(p: int, n: int) -> int:
    """Number of subgroups of (Z/p)ⁿ: sum of Gaussian binomials."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subgroup_count_square(p: int, n: int) -> int:
    """Number of subgroups of (Z/p²)ⁿ.

    Subgroups correspond to flags T ⊆ U ⊆ F_pⁿ (image mod p, intersection
    with p·(Z/p²)ⁿ) together with a hom T → F_pⁿ/U, giving
    Σ_{T⊆U} p^{dim T · (n − dim U)}.
    """
    total = 0
    for u in range(n + 1):
        for a in range(u + 1):
            total += (gaussian_binomial(n, u, p) * gaussian_binomial(u, a, p)
                      * p ** (a * (n - u)))
    return total


# fixed pairing of the quartic's six symmetrized untwisted vectors with the
# narrow class sums whose phase numerators exceed the exponents by one
QUARTIC_PAIRING_TABLE = {
    frozenset({(2, 2, 0, 0), (2, 0, 2, 0), (0, 2, 2, 0)}):
        frozenset({("3/4", "3/4", "1/4", "1/4"), ("3/4", "1/4", "3/4", "1/4"),
                   ("1/4", "3/4", "3/4", "1/4")}),
    frozenset({(1, 1, 2, 0), (2, 1, 1, 0), (1, 2, 1, 0)}):
        frozenset({("1/2", "1/2", "3/4", "1/4"), ("3/4", "1/2", "1/2", "1/4"),
                   ("1/2", "3/4", "1/2", "1/4")}),
    frozenset({(1, 1, 0, 2), (1, 0, 1, 2), (0, 1, 1, 2)}):
        frozenset({("1/2", "1/2", "1/4", "3/4"), ("1/2", "1/4", "1/2", "3/4"),
                   ("1/4", "1/2", "1/2", "3/4")}),
    frozenset({(1, 2, 0, 1), (0, 1, 2, 1), (2, 0, 1, 1)}):
        frozenset({("1/2", "3/4", "1/4", "1/2"), ("1/4", "1/2", "3/4", "1/2"),
                   ("3/4", "1/4", "1/2", "1/2")}),
    frozenset({(2, 1, 0, 1), (1, 0, 2, 1), (0, 2, 1, 1)}):
        frozenset({("3/4", "1/2", "1/4", "1/2"), ("1/2", "1/4", "3/4", "1/2"),
                   ("1/4", "3/4", "1/2", "1/2")}),
    frozenset({(2, 0, 0, 2), (0, 2, 0, 2), (0, 0, 2, 2)}):
        frozenset({("3/4", "1/4", "1/4", "3/4"), ("1/4", "3/4", "1/4", "3/4"),
                   ("1/4", "1/4", "3/4", "3/4")}),
}


# --- reference spec parsers ---------------------------------------------------
#
# The hand-threaded parsers the token scans replaced, kept as they were: a
# tokenizer run to the end first, then nested loops with an ``expect``
# cursor; and a cycle scan that checks the gap before each match.  Their
# patterns read Unicode digits and whitespace, so they agree with the
# library on ASCII input only.

_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|([+*^]))")
_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s+\d+)*)\s*\)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.group(1):
            tokens.append(("var", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("int", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def reference_parse_polynomial(text: str) -> InvertiblePolynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    terms: list[dict[int, int]] = []
    pos = 0

    def expect(kind):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != kind:
            at = tokens[pos][2] if pos < len(tokens) else len(text)
            raise ParseError(f"expected {kind}", at)
        tok = tokens[pos]
        pos += 1
        return tok

    while True:
        term: dict[int, int] = {}
        while True:
            kind, value, offset = expect("var")
            index = parse_digits(value[1:], offset)
            if index == 0:
                raise ParseError("variable indices start at 1", offset)
            exponent = 1
            if pos < len(tokens) and tokens[pos][0] == "^":
                pos += 1
                kind, value, offset2 = expect("int")
                exponent = parse_digits(value, offset2)
                if exponent == 0:
                    raise ParseError("exponents must be positive", offset2)
            if index - 1 in term:
                raise DuplicateVariableError(
                    f"variable x{index} repeated in one monomial", offset)
            term[index - 1] = exponent
            if pos < len(tokens) and tokens[pos][0] == "*":
                pos += 1
                continue
            break
        terms.append(term)
        if pos < len(tokens) and tokens[pos][0] == "+":
            pos += 1
            continue
        break
    if pos != len(tokens):
        raise ParseError("trailing input", tokens[pos][2])

    used = sorted({i for term in terms for i in term})
    n = used[-1] + 1
    if len(used) < n:
        gaps = (i for a, b in zip([-1] + used, used) for i in range(a + 1, b))
        names = [f"x{i + 1}" for i in islice(gaps, 100)]
        more = n - len(used) - len(names)
        tail = f" and {more} more" if more else ""
        raise ParseError(f"variables {', '.join(names)}{tail} never appear", 0)
    if len(terms) != n:
        raise NotSquareError(
            f"{len(terms)} monomials but {n} variables; invertible polynomials need equal counts")
    rows = [tuple(term.get(j, 0) for j in range(n)) for term in terms]
    return InvertiblePolynomial.from_exponents(rows)


def outcome(parse, *args):
    """What ``parse(*args)`` gives: its value, or its error's type, message
    and offset."""
    try:
        return parse(*args)
    except LGError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def reference_parse_cycles(text: str, n: int) -> MonomialSymmetry:
    pos = 0
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        if text[pos:m.start()].strip():
            raise ParseError(f"bad cycle syntax in {text!r}", pos)
        indices = [parse_digits(t.group(), m.start(1) + t.start())
                   for t in re.finditer(r"\d+", m.group(1))]
        if len(set(indices)) != len(indices):
            raise ParseError(f"repeated index in cycle {m.group(0)}", m.start())
        if any(not 1 <= i <= n for i in indices):
            raise ParseError(f"cycle index out of range 1..{n}", m.start())
        cycles.append(tuple(i - 1 for i in indices))
        pos = m.end()
    if text[pos:].strip() or not cycles:
        raise ParseError(f"bad cycle syntax in {text!r}", pos)
    flat = [i for c in cycles for i in c]
    if len(set(flat)) != len(flat):
        raise ParseError(f"cycles overlap in {text!r}", 0)
    return MonomialSymmetry.from_cycles(cycles, n)


# --- random instances ---------------------------------------------------------

def fermat(ds) -> InvertiblePolynomial:
    n = len(ds)
    rows = [[ds[i] if j == i else 0 for j in range(n)] for i in range(n)]
    return InvertiblePolynomial.from_exponents(rows)


def random_chain_or_loop(rng: random.Random) -> InvertiblePolynomial:
    """A chain or loop atom on 2–3 variables, plus at times a Fermat x^2."""
    n = rng.randint(2, 3)
    exps = [rng.randint(2, 3) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    loop = rng.random() < 0.5
    for i, a in enumerate(exps):
        rows[i][i] = a
        if i + 1 < n or loop:
            rows[i][(i + 1) % n] = 1
    if rng.random() < 0.3:
        rows = [row + [0] for row in rows] + [[0] * n + [2]]
    return InvertiblePolynomial.from_exponents(rows)


def random_diagonal(rng: random.Random, ds) -> MonomialSymmetry:
    return MonomialSymmetry.diagonal(
        [Fraction(rng.randrange(d), d) for d in ds])


def random_class_permutation(rng: random.Random, ds, even_only: bool):
    """A permutation moving only equal-exponent variables, or None."""
    n = len(ds)
    classes = {}
    for i, d in enumerate(ds):
        classes.setdefault(d, []).append(i)
    usable = [c for c in classes.values() if len(c) >= 2]
    if not usable:
        return None
    cls = rng.choice(usable)
    if even_only:
        if len(cls) >= 3 and rng.random() < 0.7:
            picks = rng.sample(cls, 3)
            return MonomialSymmetry.from_cycles([tuple(picks)], n)
        pairs = [c for c in classes.values() if len(c) >= 2]
        if len(pairs) >= 2 or len(cls) >= 4:
            if len(cls) >= 4:
                picks = rng.sample(cls, 4)
                return MonomialSymmetry.from_cycles(
                    [tuple(picks[:2]), tuple(picks[2:])], n)
            a = rng.sample(pairs[0], 2)
            b = rng.sample(pairs[1], 2)
            return MonomialSymmetry.from_cycles([tuple(a), tuple(b)], n)
        if len(cls) >= 3:
            return MonomialSymmetry.from_cycles([tuple(rng.sample(cls, 3))], n)
        return None
    size = rng.choice([2, min(3, len(cls))])
    picks = rng.sample(cls, size)
    return MonomialSymmetry.from_cycles([tuple(picks)], n)


def random_monomial_group(rng: random.Random, cap: int) -> SymmetryGroup:
    """The closure of random monomial symmetries on 1–5 variables, of
    order at most ``cap``: up to two diagonal ones and up to two
    permutations, with phases at times (so some lifts are nonzero), all over
    one modulus from 1 to 6; on 4 variables, at times A4 = ⟨(1 2 3), (2 3 4)⟩
    instead of the permutations."""
    while True:
        n, mod = rng.randint(1, 5), rng.randint(1, 6)
        perms = [tuple(range(n))] * rng.randint(0, 2)
        if n == 4 and rng.random() < 0.3:
            perms += [(1, 2, 0, 3), (0, 2, 3, 1)]
        else:
            perms += [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 2))]
        gens = [MonomialSymmetry.from_numerators(
            perm, [rng.randrange(mod) if rng.random() < 0.6 else 0 for _ in range(n)], mod)
            for perm in perms]
        try:
            return closure(gens or [MonomialSymmetry.identity(n)], cap=cap)
        except CapExceededError:
            continue


def random_action_instance(rng: random.Random, max_order=200, max_nodes=100):
    """(W, G, class representative) with bounded group and sector size."""
    while True:
        n = rng.randint(2, 4)
        if rng.random() < 0.6:
            ds = [rng.choice([2, 3, 4])] * n
        else:
            ds = [rng.choice([2, 3, 4]) for _ in range(n)]
        poly = fermat(ds)
        gens = [random_diagonal(rng, ds)
                for _ in range(rng.randint(1, 2))]
        perm = random_class_permutation(rng, ds, even_only=False)
        if perm is not None and rng.random() < 0.8:
            gens.append(perm)
        gens = [g for g in gens if not is_identity(g)]
        if not gens:
            continue
        try:
            group = closure(gens, cap=max_order + 1)
        except Exception:
            continue
        rep = rng.choice(group.elements)
        cls = class_of(group, rep)
        nodes = sum(prod(d - 1 for d in build_sector(poly, g).degrees)
                    for g in cls)
        if 0 < nodes <= max_nodes:
            return poly, group, rep


def random_mirror_instance(rng: random.Random, max_order=500,
                           max_dual_order=1500, max_nodes=6000):
    """Admissible (W, G = H·K) instance for the restricted mirror map."""
    from lgmirror import decompose_hk, dual_group, exponential_grading

    while True:
        n = rng.randint(2, 6)
        if rng.random() < 0.5:
            ds = [rng.choice([2, 3, 4, 5])] * n
        else:
            ds = [rng.choice([2, 3, 4, 5]) for _ in range(n)]
        poly = fermat(ds)
        gens = [exponential_grading(poly)]
        for _ in range(rng.randint(0, 2)):
            gens.append(random_diagonal(rng, ds))
        for _ in range(rng.randint(0, 2)):
            perm = random_class_permutation(rng, ds, even_only=True)
            if perm is not None:
                gens.append(perm)
        try:
            group = closure([g for g in gens if not is_identity(g)],
                            cap=max_order + 1)
        except Exception:
            continue
        parts = decompose_hk(group, poly)
        h_dual = dual_group(parts.h, poly)
        if h_dual.order * parts.k.order > max_dual_order:
            continue
        dual = poly.transpose()
        star_nodes = 0
        for g in h_dual:
            star_nodes += prod(d - 1 for d in build_sector(dual, g).degrees)
        star_nodes *= max(1, parts.k.order)
        if star_nodes > max_nodes:
            continue
        return poly, group
