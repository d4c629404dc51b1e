"""Monomial symmetries of invertible polynomials, exactly.

Every symmetry in scope is a monomial matrix: a diagonal matrix of roots of
unity times a permutation matrix.  Phases are kept additively mod 1 as
integer numerators a_i over one reduced modulus N per element, so the
element with phases a/N and permutation σ is the matrix with entry
e(a_i/N) = exp(2πi·a_i/N) in row i, column σ(i).  ``Fraction`` appears only
where phases are read in and where labels and ages are written out.  The
action convention, fixed once for the whole library, is

    (g·x)_i = e(a_i/N) · x_{σ(i)}

so that diagonal elements read off as plain phase vectors and composition
``g * h`` is the matrix product: (g*h)·x = g·(h·x), concretely
perm i ↦ τ(σ(i)) and phase_i = a_i + b_{σ(i)} for g = (σ, a), h = (τ, b).

Groups are finite, immutable after construction, and generated one right
coset at a time (Dimino's algorithm) with a safety cap; diagonal groups of
polynomials are dual groups, built in ``duality``.  Every group is built
from integer forms over the lcm of its elements' moduli, sorted once: element
order is canonical (lexicographic on permutation images, then phases), which
makes every downstream output reproducible byte for byte.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import islice
from math import gcd, lcm

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InternalError,
    NotAGroupError,
    NotAMemberError,
    NotAPermutationError,
    ParseError,
)
from .polynomial import InvertiblePolynomial, parse_digits

HALF = Fraction(1, 2)
DEFAULT_CAP = 10 ** 6  # group size cap when the caller sets none
CACHE_SIZE = 4096  # entries a process-wide cache keeps, least recently used out first


@lru_cache(maxsize=CACHE_SIZE)
def phase_text(num: int, mod: int) -> str:
    """The phase num/mod as written out, made once per value."""
    return str(Fraction(num, mod))


@lru_cache(maxsize=CACHE_SIZE)
def _perm_cycles(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The cycles of ``perm`` from their least indices, once per permutation."""
    seen, cycles = set(), []
    for i in range(len(perm)):
        if i not in seen:
            cycle = [i]
            while perm[cycle[-1]] != i:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            cycles.append(tuple(cycle))
    return tuple(cycles)


@lru_cache(maxsize=CACHE_SIZE)
def _cycle_text(perm: tuple[int, ...]) -> str:
    """Cycle notation of ``perm``, 1-based, fixed points omitted: '()' if none moves."""
    return "".join(["(" + " ".join(str(i + 1) for i in c) + ")"
                    for c in _perm_cycles(perm) if len(c) > 1]) or "()"


def _compose(a, b, mod: int):
    """Product of integer forms (perm, numerators mod ``mod``)."""
    pa, na = a
    pb, nb = b
    return (tuple(map(pb.__getitem__, pa)),
            tuple([(x + nb[p]) % mod for x, p in zip(na, pa)]))


class MonomialSymmetry:
    """Immutable diagonal·permutation symmetry of rank ``n``.

    ``perm`` holds 0-based images (σ(i) = perm[i]); phase i is
    ``nums[i] / mod``, 0 ≤ nums[i] < mod, with ``mod`` reduced so that equal
    elements have equal fields.  Instances are hashable; ``key`` orders them
    by (perm, phases), the canonical element order used everywhere.
    """

    __slots__ = ("perm", "nums", "mod", "_hash")

    def __init__(self, perm, phases):
        phases = [Fraction(p) for p in phases]
        perm = tuple(perm)
        if sorted(perm) != list(range(len(perm))):
            raise NotAPermutationError(f"{perm} is not a permutation")
        if len(phases) != len(perm):
            raise DimensionMismatchError("one phase per coordinate required")
        # the lcm of reduced denominators leaves the numerators coprime to it
        mod = lcm(*(p.denominator for p in phases))
        nums = tuple(p.numerator * (mod // p.denominator) % mod for p in phases)
        self.perm, self.nums, self.mod, self._hash = perm, nums, mod, None

    @classmethod
    def from_numerators(cls, perm: tuple[int, ...], nums, mod: int
                        ) -> "MonomialSymmetry":
        """Phases nums[i]/mod, 0 ≤ nums[i] < mod; ``perm`` is trusted."""
        common = gcd(mod, *nums)
        if common > 1:
            mod //= common
            nums = [x // common for x in nums]
        self = object.__new__(cls)
        self.perm, self.nums, self.mod, self._hash = perm, tuple(nums), mod, None
        return self

    @classmethod
    def identity(cls, n: int) -> "MonomialSymmetry":
        return cls.from_numerators(tuple(range(n)), (0,) * n, 1)

    @classmethod
    def diagonal(cls, phases) -> "MonomialSymmetry":
        phases = tuple(phases)
        return cls(range(len(phases)), phases)

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "MonomialSymmetry":
        """Pure permutation from 0-based cycles, e.g. [(0,1,2)] for (123)."""
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images, (0,) * n)

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def phases(self) -> tuple[Fraction, ...]:
        """The phases as rationals in [0, 1)."""
        return tuple(Fraction(x, self.mod) for x in self.nums)

    def over(self, mod: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer form (perm, numerators over ``mod``, a multiple of self.mod)."""
        if mod == self.mod:
            return self.perm, self.nums
        return self.perm, tuple([x * (mod // self.mod) for x in self.nums])

    def __mul__(self, other: "MonomialSymmetry") -> "MonomialSymmetry":
        pa, pb, mod = self.perm, other.perm, self.mod
        if len(pa) != len(pb):
            raise DimensionMismatchError("rank mismatch in composition")
        if mod == other.mod:
            na, nb = self.nums, other.nums
        else:
            mod = lcm(mod, other.mod)
            na, nb = self.over(mod)[1], other.over(mod)[1]
        return MonomialSymmetry.from_numerators(
            *_compose((pa, na), (pb, nb), mod), mod)

    def inverse(self) -> "MonomialSymmetry":
        inv = [0] * self.n
        nums = [0] * self.n
        for i, p in enumerate(self.perm):
            inv[p] = i
            nums[p] = -self.nums[i] % self.mod
        return MonomialSymmetry.from_numerators(tuple(inv), nums, self.mod)

    def __pow__(self, k: int) -> "MonomialSymmetry":
        if k < 0:
            return self.inverse() ** (-k)
        result = MonomialSymmetry.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def order(self) -> int:
        # g^L, L the lcm of the cycle lengths ℓ, is diagonal with phase
        # (L/ℓ)·(phase sum of the cycle) along each cycle
        cycles = self.cycles()
        length = lcm(*(len(c) for c in cycles))
        sums = [length // len(c) * sum(self.nums[i] for i in c) for c in cycles]
        return length * (self.mod // gcd(self.mod, *sums))

    def conjugated_by(self, gamma: "MonomialSymmetry") -> "MonomialSymmetry":
        """γ⁻¹·g·γ."""
        return gamma.inverse() * self * gamma

    @property
    def is_identity(self) -> bool:
        return self.mod == 1 and self.is_diagonal

    @property
    def is_diagonal(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    @property
    def is_pure_permutation(self) -> bool:
        return self.mod == 1

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All permutation cycles, each starting at its least index."""
        return _perm_cycles(self.perm)

    @property
    def perm_parity(self) -> int:
        """0 for even permutations, 1 for odd."""
        return (self.n - len(self.cycles())) % 2

    def det_num(self) -> int:
        """The numerator of ``det_phase`` over 2·mod."""
        return (sum(self.nums) * 2 + self.mod * self.perm_parity) % (2 * self.mod)

    def det_phase(self) -> Fraction:
        """Phase t with det(g) = e(t); zero exactly on SL elements."""
        return Fraction(self.det_num(), 2 * self.mod)

    def age_num(self) -> int:
        """The numerator of ``age`` over 2·mod.

        A cycle of length ℓ with total phase t has the ℓ phases (t + k)/ℓ
        mod 1, k = 0..ℓ−1, which sum to (t mod 1) + (ℓ − 1)/2.
        """
        cycles = self.cycles()
        total = sum(sum(map(self.nums.__getitem__, c)) % self.mod for c in cycles)
        return 2 * total + self.mod * (self.n - len(cycles))

    def age(self) -> Fraction:
        """Sum of eigenvalue log-phases taken in [0, 1)."""
        return Fraction(self.age_num(), 2 * self.mod)

    def fixed_cycles(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of Fix(g): those whose phases sum to an integer."""
        nums, mod = self.nums, self.mod
        return tuple([c for c in self.cycles() if not sum(map(nums.__getitem__, c)) % mod])

    def fixed_locus(self) -> "FixedLocus":
        cycles, vectors = self.fixed_cycles(), []
        for cycle in cycles:
            vec = [0]
            for i in cycle[:-1]:
                vec.append((vec[-1] - self.nums[i]) % self.mod)
            vectors.append(tuple(vec))
        return FixedLocus(self.n, cycles, tuple(vectors), self.mod)

    @property
    def key(self):
        return (self.perm, self.phases)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialSymmetry) and self.perm == other.perm \
            and self.mod == other.mod and self.nums == other.nums

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.perm, self.nums, self.mod))
        return self._hash

    def cycle_string(self) -> str:
        return _cycle_text(self.perm)

    def label(self) -> str:
        """Human-readable form matching the additive notation in use."""
        diag = "(" + ", ".join([phase_text(x, self.mod) for x in self.nums]) + ")"
        if self.is_diagonal:
            return diag
        if self.is_pure_permutation:
            return self.cycle_string()
        return diag + self.cycle_string()

    def __repr__(self) -> str:
        return f"MonomialSymmetry({self.label()})"


class FixedLocus(namedtuple("FixedLocus", "n cycles phase_nums mod")):
    """Fix(g): one canonical eigenvector per zero-phase cycle.

    ``phase_nums[k][j]`` over ``mod`` is the phase of the canonical vector
    of cycle k at its j-th index (the entry at the least index is 1, i.e.
    phase 0).
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.cycles)


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
                coset = [_compose(h, rep, mod) for h in sub]
                have.update(coset)
                grown.extend(coset)
                fresh.extend(_compose(rep, g, mod) for g in gens)
        sub = grown
    return have, picked


def _lift_generators(lifts):
    """The lifts (τ, a) whose τ the lifts before them do not generate."""
    perms = [(tau, (0,) * len(tau)) for tau, _ in lifts]
    return [lifts[k] for k in _generate(perms, 1, len(perms))[1]]


class SymmetryGroup:
    """A finite group of monomial symmetries in canonical element order.

    Built once from the distinct integer forms (perm, numerators over
    ``mod``) of a closed set, with ``mod`` reduced to the lcm of the
    elements' moduli.  Nothing else is computed until first read, and then
    kept: the generators (unless given), the index of each form, the lifts
    and their generators, the class transversals with each element's class,
    the classes, and per permutation part σ, N^σ with its φ_σ preimages and,
    once asked for, its generators.

    Classes and centralizers come from the group's structure G = N⋊T, not
    from a scan of its elements.  The diagonal elements N are the kernel of
    g ↦ perm(g); the first element of each permutation part τ in canonical
    order is its lift (τ, a_τ).  Conjugating g = (σ, a) by a diagonal c
    gives (σ, a + φ_σ(c)) with φ_σ(c) = c∘σ − c, so the classes are the
    orbits of the lifts on the cosets a + im φ_σ.  A diagonal c commutes
    with g iff c∘σ = c, and (τ, a_τ + c) does iff τσ = στ and φ_σ(c) equals
    (a∘τ − a) − (a_τ∘σ − a_τ).  So C(g) is N^σ = ker φ_σ times one such
    lift per τ whose target has a preimage under φ_σ.
    """

    def __init__(self, forms, mod: int, generators=None):
        forms = sorted(forms)  # integer forms sort in the canonical order
        if not forms:
            raise NotAGroupError("a group needs at least the identity")
        n = self.n = len(forms[0][0])
        if any(len(perm) != n for perm, _ in forms):
            raise DimensionMismatchError("mixed ranks in one group")
        if forms[0] != (tuple(range(n)), (0,) * n):
            raise NotAGroupError("identity missing from element list")
        make = MonomialSymmetry.from_numerators
        self.elements = tuple([make(perm, nums, mod) for perm, nums in forms])
        self.modulus = lcm(*{g.mod for g in self.elements})
        if self.modulus != mod:
            scale = mod // self.modulus
            forms = [(perm, tuple([x // scale for x in nums])) for perm, nums in forms]
        self._forms = tuple(forms)
        if generators is not None:
            self.generators = tuple(dict.fromkeys(
                g for g in generators if not g.is_identity))
        self._fixed: dict[tuple[int, ...], list] = {}

    @cached_property
    def generators(self) -> tuple[MonomialSymmetry, ...]:
        """Given, or a greedy small set found scanning in canonical order."""
        picked = _generate(self._forms, self.modulus, self.order)[1]
        return tuple(self.elements[i] for i in picked)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        return self.modulus % g.mod == 0 and g.over(self.modulus) in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetryGroup) and self.elements == other.elements

    def __repr__(self) -> str:
        return f"SymmetryGroup(order={self.order}, n={self.n})"

    @cached_property
    def _index(self) -> dict:
        return {form: i for i, form in enumerate(self._forms)}

    def index(self, g: MonomialSymmetry) -> int:
        if g not in self:
            raise NotAMemberError(f"{g!r} is not in this group")
        return self._index[g.over(self.modulus)]

    @property
    def identity(self) -> MonomialSymmetry:
        return self.elements[0]

    @property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    @property
    def is_diagonal(self) -> bool:
        # the identity permutation sorts first, so the last element decides
        return self._forms[-1][0] == self._forms[0][0]

    @cached_property
    def _lifts(self):
        """The lift (τ, a_τ) of each permutation part τ, in canonical order,
        and the lifts whose τ generate the permutation parts."""
        lifts: dict[tuple[int, ...], tuple[int, ...]] = {}
        for perm, nums in self._forms:
            lifts.setdefault(perm, nums)
        lifts = tuple(lifts.items())
        return lifts, _lift_generators(lifts)

    def class_transversals(self):
        """Per class, (index, w, c) for each member x, the least index r
        first: w is the integer form over ``modulus`` of a lift word and c
        the numerators of a diagonal element, with t = w·c and
        t⁻¹·g_r·t = x.

        Conjugating (σ, a) by a diagonal c gives (σ, a + φ_σ(c)), so N moves
        (σ, a) exactly over the coset a + im φ_σ, and the lifts permute these
        cosets.  A class is one orbit of cosets, walked from r's along the
        lifts that generate the permutation parts; w is the word of lifts
        that reaches a member's coset and c a preimage of its offset."""
        return self._transversals[0]

    @cached_property
    def _transversals(self):
        """``class_transversals()`` and the class number of each element index."""
        forms = self._forms
        if self.is_diagonal:  # singleton classes; the walk below is 3x slower on them
            return [[(i, forms[0], forms[0][1])] for i in range(self.order)], range(self.order)
        mod, index = self.modulus, self._index
        gens = [(self.elements[index[g]].inverse().over(mod), g) for g in self._lifts[1]]
        owner = [-1] * self.order
        classes = []
        for i in range(self.order):
            if owner[i] >= 0:
                continue
            members, cosets = [], [(i, forms[0])]
            for y, word in cosets:  # grows while it is read
                if owner[y] >= 0:
                    continue  # its coset was walked before
                px, nx = forms[y]
                owner[y] = len(classes)
                members.append((y, word, forms[0][1]))
                # offsets past the first, 0 from the identity
                for v, c in islice(self._fixed_diagonals(px)[1].items(), 1, None):
                    x = index[px, tuple([(p + q) % mod for p, q in zip(nx, v)])]
                    owner[x] = len(classes)
                    members.append((x, word, c))
                for (pi, ni), g in gens:
                    pg, ng = g  # g⁻¹·y·g in one pass, with j = g⁻¹(i)
                    z = index[tuple([pg[px[j]] for j in pi]), tuple(
                        [(a + nx[j] + ng[px[j]]) % mod for a, j in zip(ni, pi)])]
                    if owner[z] < 0:
                        cosets.append((z, _compose(word, g, mod)))
            classes.append(members)
        return classes, owner

    def conjugacy_classes(self) -> tuple[tuple[MonomialSymmetry, ...], ...]:
        """The classes, each sorted, ordered by leader."""
        return self._classes

    @cached_property
    def _classes(self) -> tuple[tuple[MonomialSymmetry, ...], ...]:
        return tuple(tuple(self.elements[x] for x in sorted(x for x, _, _ in members))
                     for members in self.class_transversals())

    def class_of(self, g: MonomialSymmetry) -> tuple[MonomialSymmetry, ...]:
        return self.conjugacy_classes()[self._transversals[1][self.index(g)]]

    def _fixed_diagonals(self, sigma):
        """[N^σ in canonical order, one preimage c of each value of
        φ_σ(c) = c∘σ − c, the value 0 first], cached per σ; N^σ's generators
        join the entry when first asked for."""
        if sigma not in self._fixed:
            mod, ident = self.modulus, self._forms[0][0]
            fixed, preimage = [], {}
            for form in self._forms:
                if form[0] != ident:  # diagonal elements sort first
                    break
                c = form[1]
                value = tuple([(c[s] - x) % mod for s, x in zip(sigma, c)])
                if not any(value):
                    fixed.append(form)
                preimage.setdefault(value, c)
            self._fixed[sigma] = [fixed, preimage]
        return self._fixed[sigma]

    def _fixed_generators(self, sigma):
        """Generators of N^σ, found once per σ: the group's own when N^σ is
        the whole group, else greedy ones."""
        entry = self._fixed_diagonals(sigma)
        if len(entry) == 2:  # not asked for before
            fixed, mod = entry[0], self.modulus
            entry.append([g.over(mod) for g in self.generators] if len(fixed) == self.order
                         else [fixed[k] for k in _generate(fixed, mod, len(fixed))[1]])
        return entry[2]

    def _centralizer_forms(self, i: int):
        """C(g_i) = N^σ·L as integer forms: N^σ; L, each lift (τ, a_τ + c)
        that commutes with g_i, in canonical order; and the lifts in L whose
        τ the lifts before them do not generate."""
        members, owner = self._transversals
        mod = self.modulus
        sigma, a = self._forms[i]
        fixed, preimage = self._fixed_diagonals(sigma)[:2]
        lifts = []
        for tau, b in self._lifts[0]:
            if any(tau[s] != sigma[t] for s, t in zip(sigma, tau)):
                continue
            c = preimage.get(tuple([(a[t] - x - b[s] + y) % mod for s, t, x, y
                                    in zip(sigma, tau, a, b)]))
            if c is not None:
                lifts.append((tau, tuple([(x + y) % mod for x, y in zip(b, c)])))
        if len(fixed) * len(lifts) * len(members[owner[i]]) != self.order:
            raise InternalError("centralizer order times class size is not |G|")
        return fixed, lifts, _lift_generators(lifts)

    def centralizer(self, g: MonomialSymmetry) -> "SymmetryGroup":
        """C_G(g) as the product set of N^σ and the lifts, generated by
        N^σ's generators and the lifts whose τ the lifts before them do
        not generate."""
        i, mod, index = self.index(g), self.modulus, self._index
        fixed, lifts, lift_gens = self._centralizer_forms(i)
        gens = self._fixed_generators(self._forms[i][0]) + lift_gens
        return SymmetryGroup([_compose(c, lift, mod) for c in fixed for lift in lifts],
                             mod, [self.elements[index[form]] for form in gens])

    def _subgroup_walk(self):
        """Each subgroup, built when reached, ordered by order, then by
        element indices: popped from a heap keyed so.  Each popped S is
        extended once per right coset S·x outside it (⟨S, h·x⟩ = ⟨S, x⟩ for
        h ∈ S), growing ⟨S, x⟩ from S by right cosets on the multiplication
        table (Dimino).  Extensions are larger than S, and T = ⟨S, x⟩ for a
        maximal S < T, so T is pushed before its key is reached.  Meant for
        small groups (permutation parts, small diagonal groups): errors
        before the table when it would hold over ``DEFAULT_CAP`` entries."""
        if self.order ** 2 > DEFAULT_CAP:
            raise CapExceededError(
                f"subgroup walk of order {self.order} exceeds {DEFAULT_CAP} table entries")
        forms, mod = self._forms, self.modulus
        index = self._index
        table = [[index[_compose(a, b, mod)] for b in forms] for a in forms]
        heap = [(1, (0,), [])]  # (order, elements, generators) as indices
        seen = {(0,)}
        while heap:
            _, sub, gens = heappop(heap)
            yield SymmetryGroup([forms[i] for i in sub], mod)
            tried = set(sub)  # the cosets S·x extended so far
            for x in range(len(forms)):
                if x in tried:
                    continue
                tried.update(table[h][x] for h in sub)
                have, fresh, ext_gens = set(sub), [x], gens + [x]
                while fresh:
                    rep = fresh.pop()
                    if rep not in have:
                        have.update([table[h][rep] for h in sub])
                        fresh.extend(table[rep][g] for g in ext_gens)
                ext = tuple(sorted(have))  # element indices follow the canonical order
                if ext not in seen:
                    seen.add(ext)
                    heappush(heap, (len(ext), ext, ext_gens))

    def subgroups(self) -> tuple["SymmetryGroup", ...]:
        """Every subgroup, ordered by order, then by element indices."""
        return tuple(self._subgroup_walk())


def closure(generators, cap: int = DEFAULT_CAP) -> SymmetryGroup:
    """The group the generators generate; errors past ``cap`` elements."""
    generators = list(generators)
    if not generators:
        raise NotAGroupError("need at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise DimensionMismatchError("mixed ranks among generators")
    mod = lcm(*(g.mod for g in generators))
    forms = _generate([g.over(mod) for g in generators], mod, cap)[0]
    return SymmetryGroup(forms, mod, generators)


def is_symmetry(g: MonomialSymmetry, poly: InvertiblePolynomial) -> bool:
    """True iff g permutes the monomials of W with zero total phase on each
    and only mixes variables of equal weight."""
    if g.n != poly.n_vars:
        raise DimensionMismatchError(
            f"symmetry rank {g.n} does not match {poly.n_vars} variables")
    q = poly.weights
    if any(q[i] != q[p] for i, p in enumerate(g.perm) if i != p):
        return False
    for row in poly.exponents:
        total = 0
        image = [0] * g.n
        for j, e in enumerate(row):
            if e:
                total += e * g.nums[j]
                image[g.perm[j]] = e
        if total % g.mod or tuple(image) not in poly.exponents:
            return False
    return True


def exponential_grading(poly: InvertiblePolynomial) -> MonomialSymmetry:
    """j_W: the diagonal element whose phases are the weights."""
    return MonomialSymmetry.diagonal(poly.weights)


def sl_subgroup(group: SymmetryGroup) -> SymmetryGroup:
    """Elements of determinant one."""
    return SymmetryGroup([form for g, form in zip(group, group._forms)
                          if not g.det_num()], group.modulus)


# --- generator grammar -----------------------------------------------------
#
#   gen      := 'j' | diag | cycles | diag '*' cycles
#   diag     := 'diag(' rational (',' rational)* ')'
#   rational := [+-]? (digits '/' digits | digits | digits '.' digits? | '.' digits)
#   cycles   := ('(' digits (' ' digits)* ')')+
#
# with digits := [0-9]+; ASCII whitespace may stand around a rational, a
# cycle and a cycle index, and nowhere else inside them.

_DIAG_RE = re.compile(r"diag\(([^)]*)\)")
_RATIONAL = re.compile(r"\s*([+-]?)(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?)\s*", re.ASCII)
_CYCLE_RE = re.compile(r"(?P<cycle>\(\s*\d+(?:\s+\d+)*\s*\))|(?P<bad>\S)", re.ASCII)
_DIGITS = re.compile(r"\d+", re.ASCII)


def _parse_cycles(text: str, n: int, start: int = 0) -> MonomialSymmetry:
    """The cycles that ``text`` holds from ``start`` on; offsets into ``text``."""
    cycles, part = [], text[start:]
    for m in _CYCLE_RE.finditer(text, start):
        if m["bad"]:  # reported where the last cycle ends
            raise ParseError(f"bad cycle syntax in {part!r}",
                             start + len(text[start:m.start()].rstrip()))
        at = m.start()
        indices = [parse_digits(t[0], t.start()) for t in _DIGITS.finditer(text, at, m.end())]
        if len(set(indices)) != len(indices):
            raise ParseError(f"repeated index in cycle {m['cycle']}", at)
        if any(not 1 <= i <= n for i in indices):
            raise ParseError(f"cycle index out of range 1..{n}", at)
        cycles.append(tuple(i - 1 for i in indices))
    if not cycles:
        raise ParseError(f"bad cycle syntax in {part!r}", start)
    flat = [i for c in cycles for i in c]
    if len(set(flat)) != len(flat):
        raise ParseError(f"cycles overlap in {part!r}", start)
    return MonomialSymmetry.from_cycles(cycles, n)


def parse_generator(text: str, poly: InvertiblePolynomial) -> MonomialSymmetry:
    """Parse one generator: 'j', 'diag(…)', cycles, or 'diag(…)*(cycles)'.

    The grammar above is ASCII and the same on every supported Python.
    Offsets are into the stripped text; a bad diag entry is reported at its
    start, just past the '(' or ',' before it."""
    text = text.strip()
    n = poly.n_vars
    if text == "j":
        return exponential_grading(poly)
    m = _DIAG_RE.match(text)
    if m:
        entries = m[1].split(",")
        if len(entries) != n:
            raise ParseError(
                f"diag has {len(entries)} entries, polynomial has {n} variables", 0)
        phases = []
        at = m.start(1)
        for entry in entries:
            r = _RATIONAL.fullmatch(entry)
            if r is None:
                why = ("exponent notation" if re.search(r"[\d.][eE]", entry, re.ASCII)
                       else "not an integer, p/q or decimal")
                raise ParseError(f"bad rational in {text!r}: {why}", at)
            sign, p, q, whole, point = r.groups(default="")
            num = parse_digits(p or whole + point, at)
            den = parse_digits(q, at) if p else 10 ** len(point)
            if not den:
                raise ParseError(f"bad rational in {text!r}: zero denominator", at)
            phases.append(Fraction(-num if sign == "-" else num, den))
            at += len(entry) + 1
        diag = MonomialSymmetry.diagonal(phases)
        rest = text[m.end():].strip()
        if not rest:
            return diag
        if not rest.startswith("*"):
            raise ParseError(f"expected '*' after diag in {text!r}", m.end())
        return diag * _parse_cycles(text, n, len(text) - len(rest[1:].lstrip()))
    return _parse_cycles(text, n)
