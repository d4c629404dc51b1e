"""Monomial symmetries of invertible polynomials, exactly.

Every symmetry in scope is a monomial matrix: a diagonal matrix of roots of
unity times a permutation matrix.  Phases are kept additively mod 1 as
integer numerators a_i over one reduced modulus N per element, so the
element with phases a/N and permutation σ is the matrix with entry
e(a_i/N) = exp(2πi·a_i/N) in row i, column σ(i).  ``Fraction`` appears only
where phases are read in and where labels and ages are written out.  An
element's fixed cycles, fixed locus and label are read off any of its
integer forms (``form_cycles``, ``form_locus``, ``form_label``).  The
action convention, fixed once for the whole library, is

    (g·x)_i = e(a_i/N) · x_{σ(i)}

so that diagonal elements read off as plain phase vectors and composition
``g * h`` is the matrix product: (g*h)·x = g·(h·x), concretely
perm i ↦ τ(σ(i)) and phase_i = a_i + b_{σ(i)} for g = (σ, a), h = (τ, b).

Groups are finite, immutable and held as their structure over the lcm of
their elements' moduli: the Hermite normal form of the diagonal part N, a
lattice, and one lift per permutation image.  Order, membership, equality
and generators are read off that structure.  The integer forms are listed
only when read, one coset of N at a time, in the canonical order
(lexicographic on permutation images, then phases) that makes every output
reproducible byte for byte; elements are made from them, and outside the
group an element is named by its form, never by its place in the listing.
``closure`` and the subgroup walk find the structure by one walk over the
permutation images, checking a cap as it goes and again before anything is
listed.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import accumulate
from math import gcd, lcm, prod

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    NotAGroupError,
    NotAMemberError,
    NotAPermutationError,
    NotASymmetryError,
    ParseError,
)
from .linalg import hermite, reduce_by
from .polynomial import InvertiblePolynomial, parse_digits

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


def _invert(form, mod: int):
    """Inverse of an integer form (perm, numerators mod ``mod``)."""
    perm, nums = form
    inv = sorted(range(len(perm)), key=perm.__getitem__)  # inv[perm[i]] = i
    return tuple(inv), tuple([-nums[i] % mod for i in inv])


class MonomialSymmetry:
    """Immutable diagonal·permutation symmetry of rank ``n``.

    ``perm`` holds 0-based images (σ(i) = perm[i]); phase i is
    ``nums[i] / mod``, 0 ≤ nums[i] < mod, with ``mod`` reduced so that equal
    elements have equal fields.  Instances are hashable.
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
        return MonomialSymmetry.from_numerators(
            *_invert((self.perm, self.nums), self.mod), self.mod)

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

    def age(self) -> Fraction:
        """Sum of eigenvalue log-phases taken in [0, 1)."""
        return Fraction(form_age(self.perm, self.nums, self.mod), 2 * self.mod)

    def fixed_cycles(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of Fix(g): those whose phases sum to an integer."""
        return form_cycles(self.perm, self.nums, self.mod)

    def fixed_locus(self) -> "FixedLocus":
        return form_locus(self.perm, self.nums, self.mod)

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
        return form_label(self.perm, self.nums, self.mod)

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


def form_cycles(perm, nums, mod: int) -> tuple[tuple[int, ...], ...]:
    """The cycles of Fix(g) for g = (perm, nums over mod), ``mod`` any
    multiple of g's modulus: those whose phases sum to an integer."""
    return tuple([c for c in _perm_cycles(perm) if not sum(map(nums.__getitem__, c)) % mod])


def form_age(perm, nums, mod: int) -> int:
    """The numerator over 2·mod of the age of g = (perm, nums over mod),
    ``mod`` any multiple of g's modulus.

    A cycle of length ℓ with total phase t has the ℓ phases (t + k)/ℓ
    mod 1, k = 0..ℓ−1, which sum to (t mod 1) + (ℓ − 1)/2.
    """
    cycles = _perm_cycles(perm)
    total = sum(sum(map(nums.__getitem__, c)) % mod for c in cycles)
    return 2 * total + mod * (len(perm) - len(cycles))


def form_locus(perm, nums, mod: int) -> FixedLocus:
    """Fix(g) for g = (perm, nums over mod)."""
    cycles = form_cycles(perm, nums, mod)
    # from a cycle's least index on, each phase is the one before less g's phase there
    vectors = [tuple(accumulate([nums[i] for i in c[:-1]], lambda a, x: (a - x) % mod, initial=0))
               for c in cycles]
    return FixedLocus(len(perm), cycles, tuple(vectors), mod)


def form_label(perm, nums, mod: int, cycles=None, phases=None) -> str:
    """The label of g = (perm, nums over mod), from its cycle and phase texts if given."""
    diag = "(" + ", ".join(phases or [phase_text(x, mod) for x in nums]) + ")"
    cycles = cycles or _cycle_text(perm)  # '()' when no index moves
    return diag if cycles == "()" else cycles if not any(nums) else diag + cycles


def _lattice_forms(basis, mod: int, start, within=None):
    """The numerator vectors of start + Λ, for the lattice Λ with Hermite
    form ``basis`` over ``mod``, in canonical order without a sort.  Level i
    holds each choice of the coordinates before i, then start plus the sum
    of rows that fixes the rest: coordinate i runs up through that sum's
    residue class mod h_ii, and the later sums, like every coordinate past
    the last pivot below ``mod``, run beside it as progressions.  Given the
    Hermite rows ``within`` of a sublattice I ⊂ Λ, coordinate i runs below
    I's pivot k_ii, a multiple of h_ii, instead of ``mod``: that leaves the
    least member of each coset of I, the one ``reduce_by`` gives.  A level
    where only one value passes (k_ii = h_ii, or h_ii = ``mod``) just
    reduces each vector by its row."""
    last = max((i for i, row in enumerate(basis) if row[i] < mod), default=0)
    level = [tuple(start)]
    for i, row in enumerate(basis[:last + 1]):
        h, step, grown = row[i], row[i + 1:], []
        top = within[i][i] if within else mod
        if top == h:  # v less the multiple of the row that reaches v[i] % h
            level = [v if v[i] < h else tuple([(x - v[i] // h * y) % mod for x, y in zip(v, row)])
                     for v in level]
            continue
        for v in level:
            low = v[i] % h
            c = (low - v[i]) // h  # the multiple of the row that reaches low
            sums = [[(a + k * b) % mod for k in range(c, c + top // h)]
                    for a, b in zip(v[i + 1:], step)]
            grown.extend([v[:i] + t for t in zip(range(low, top, h), *sums)])
        level = grown
    return level


def _lattice_generators(basis, mod: int) -> list[tuple[int, ...]]:
    """The vectors a scan of the lattice Λ with fully reduced Hermite form
    ``basis`` picks in canonical order, each the first outside the span S
    of the picks before it.  The scan meets Λ_n ⊂ Λ_{n-1} ⊂ … ⊂ Λ_0 = Λ in
    turn, Λ_t the vectors zero before coordinate t, spanned by rows t on.
    Once S = Λ_{t+1}, the first vector of Λ_t outside S, if any, is the
    least with coordinate t = h_tt: row t itself.  So the picks are the
    rows whose pivot is below ``mod``, last row first."""
    return [row for i, row in reversed(list(enumerate(basis))) if row[i] < mod]


def _walk(generators, mod: int, cap: int):
    """Breadth-first over the permutation images P of the group the forms
    ``generators`` over ``mod`` generate: the first lift (τ, a_τ) reached
    for each τ ∈ P, in reach order, and the Schreier generators of the
    diagonal part N, one a − a_τ from each product (τ, a) of a lift and a
    generator whose τ was reached before, as (τ, a)·(τ, a_τ)⁻¹ = (id,
    a − a_τ) (Schreier's lemma).  Errors as soon as |P| exceeds ``cap``."""
    ident = (tuple(range(len(generators[0][0]))), (0,) * len(generators[0][1]))
    lifts, schreier, reached = dict([ident]), set(), [ident]
    for lift in reached:  # grows while it is read
        for g in generators:
            perm, nums = _compose(lift, g, mod)
            first = lifts.get(perm)
            if first is None:
                if len(lifts) >= cap:
                    raise CapExceededError(f"group exceeds cap of {cap} elements")
                lifts[perm] = nums
                reached.append((perm, nums))
            elif first != nums:
                schreier.add(tuple([(x - y) % mod for x, y in zip(nums, first)]))
    return lifts, schreier


def _lift_generators(lifts):
    """The lifts (τ, a) whose τ the lifts before them do not generate."""
    picked, have = [], {tuple(range(len(lifts[0][0])))}
    for lift in lifts:
        if lift[0] not in have:
            picked.append(lift)
            # forms with no numerators walk the permutations alone
            have = _walk([(tau, ()) for tau, _ in picked], 1, len(lifts))[0]
    return picked


_Part = namedtuple("_Part", "basis generators image preimages")


class SymmetryGroup:
    """A finite group of monomial symmetries, held as its structure.

    G is the union of the cosets (τ, a_τ)·N.  N, the diagonal elements, is a
    lattice of numerator vectors over ``modulus`` (the lcm of the elements'
    moduli), kept as its Hermite basis ``basis`` from ``linalg.hermite``.
    ``lifts`` holds one (τ, a_τ) per permutation image τ ∈ P, sorted by τ,
    a_τ the least member of a_τ + N (given any member, the constructor
    reduces it): the first element of its coset in canonical order.  So
    |G| = |P|·Π M/h_ii, membership reduces a form by the basis, and equal
    groups have equal fields.  Nothing else is computed until first read,
    and then kept: the forms, a coset of N per lift, in canonical order;
    the elements; the generators, read off the fields; the lift
    generators; each class as its cosets of im φ_σ (``class_transversals``);
    the classes as elements; and per permutation part σ, one record
    (``_part``) of N^σ, of im φ_σ and of a preimage of each value of φ_σ.

    Classes and centralizers come from the structure, not from a scan of
    the elements.  Conjugating g = (σ, a) by a diagonal c gives (σ, a +
    φ_σ(c)) with φ_σ(c) = c∘σ − c, so the classes are the orbits of the
    lifts on the cosets a + im φ_σ.  A diagonal c commutes with g iff c∘σ =
    c, and (τ, a_τ + c) does iff τσ = στ and φ_σ(c) equals (a∘τ − a) −
    (a_τ∘σ − a_τ).  So C(g) is N^σ = ker φ_σ times one such lift per τ
    whose target has a preimage under φ_σ.  One Hermite form of the pairs
    (φ_σ(c), c) for c ∈ N gives both N^σ and im φ_σ with a preimage of each
    value, so nothing scans N.
    """

    def __init__(self, mod: int, basis, lifts):
        basis, lifts = [tuple(row) for row in basis], list(lifts)
        n = self.n = len(basis)
        if any(len(row) != n for row in basis) or any(
                len(perm) != n or len(nums) != n for perm, nums in lifts):
            raise DimensionMismatchError("mixed ranks in one group")
        # the modulus is mod // gcd(mod, every numerator of every element)
        common = gcd(mod, *(x for row in basis for x in row), *(x for _, a in lifts for x in a))
        if common > 1:
            mod //= common
            basis = [tuple([x // common for x in row]) for row in basis]
            lifts = [(perm, tuple([x // common for x in nums])) for perm, nums in lifts]
        self.modulus, self.basis = mod, tuple(basis)
        self.lifts = tuple(sorted((perm, reduce_by(nums, basis, mod)) for perm, nums in lifts))
        if not self.lifts or self.lifts[0] != (tuple(range(n)), (0,) * n):
            raise NotAGroupError("identity missing from the lifts")
        self.order = len(self.lifts) * prod(mod // row[i] for i, row in enumerate(basis))
        self._lift_of = dict(self.lifts)
        self._parts: dict[tuple[int, ...], _Part] = {}
        self._symmetries_of: set = set()  # each W check_symmetries passed G for

    def _coset(self, a, basis=None, within=None):
        """The numerator vectors of a + Λ in canonical order, Λ the lattice
        with Hermite form ``basis``: N's by default, or a permutation part's
        image rows (``_part``); the least member per coset of ``within``, if given."""
        return _lattice_forms(basis or self.basis, self.modulus, a, within)

    @cached_property
    def _forms(self) -> tuple:
        """Every integer form in canonical order, listed when first read:
        the coset a_τ + N of each lift, listed once per distinct a_τ."""
        cosets = {nums: self._coset(nums) for nums in {nums for _, nums in self.lifts}}
        return tuple([(perm, x) for perm, nums in self.lifts for x in cosets[nums]])

    @cached_property
    def elements(self) -> tuple[MonomialSymmetry, ...]:
        """The elements in canonical order, made when first read."""
        make, mod = MonomialSymmetry.from_numerators, self.modulus
        return tuple([make(perm, nums, mod) for perm, nums in self._forms])

    @cached_property
    def generators(self) -> tuple[MonomialSymmetry, ...]:
        """The greedy ones a scan in canonical order picks, each the first
        element outside the group the picks before it generate:
        N's, read off its basis, then the lifts whose τ the lifts before
        them do not generate."""
        make, mod, ident = MonomialSymmetry.from_numerators, self.modulus, self.lifts[0][0]
        return tuple([make(ident, row, mod) for row in _lattice_generators(self.basis, mod)] +
                     [make(*lift, mod) for lift in self._lift_gens])

    @cached_property
    def _lift_gens(self):
        return _lift_generators(self.lifts)

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        if self.modulus % g.mod:
            return False
        perm, nums = g.over(self.modulus)
        lift = self._lift_of.get(perm)
        return lift is not None and lift == reduce_by(nums, self.basis, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetryGroup) and self.modulus == other.modulus \
            and self.basis == other.basis and self.lifts == other.lifts

    def __hash__(self) -> int:  # equal groups have equal bases and last lifts
        return hash((self.modulus, self.basis, len(self.lifts), self.lifts[-1]))

    def __repr__(self) -> str:
        return f"SymmetryGroup(order={self.order}, n={self.n})"

    @property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    @property
    def is_diagonal(self) -> bool:
        return len(self.lifts) == 1

    @cached_property
    def class_transversals(self):
        """Per class, (head, w) for each of its cosets of im φ_σ, r's own
        first, r the least member: the head y is a member's integer form
        over ``modulus`` and w the integer form of a lift word with w⁻¹·r·w
        = y.  The coset's members c⁻¹·y·c = y + φ_σ(c) come from each
        preimage c that σ's record (``_part``) keeps; ``class_size`` counts them.

        Conjugating (σ, a) by a diagonal c gives (σ, a + φ_σ(c)), so N moves
        (σ, a) exactly over the coset a + im φ_σ, and a lift moves cosets by
        its permutation alone.  So P is walked once, keeping one word w_τ per τ.
        The cosets' least members are listed lift by lift, in canonical
        order, and the first r not yet met leads a class:
        the cosets of the w_τ⁻¹·r·w_τ, each known by its least member and kept
        with the first τ's word; for σ = id, the (id, x∘τ⁻¹) in walk order.
        Else they are walked breadth-first from r's, a head y reaching
        g⁻¹·y·g's coset along each lift generator g = (γ, c), g⁻¹ made once.
        A new coset keeps the word of τ∘γ, τ the first τ of y's coset: it is
        first met along the edge by which P's walk first reached τ∘γ, so its
        head is that word's w⁻¹·r·w (README).  A head (π, x) is fixed by the
        generators in ⟨π⟩, so at π = σ those in ⟨σ⟩ are skipped."""
        mod, ident = self.modulus, self.lifts[0]
        if self.is_diagonal:  # one-element classes; the walk of N below is 2.7x slower on them
            return [[((ident[0], x), ident)] for x in self._coset(ident[1])]
        words = _walk(self._lift_gens, mod, len(self.lifts))[0]  # τ ↦ b: w_τ = (τ, b)
        walk = [(tuple(sorted(range(self.n), key=tau.__getitem__)), (tau, b))  # τ⁻¹, τ's word
                for tau, b in words.items()]
        met, classes = set(), []  # the least member of each coset reached so far
        for x in self._coset(ident[1]):
            if x not in met:
                orbit = {}  # x∘τ⁻¹ in the walk's order, with the word of the first τ
                for inv, w in walk:
                    orbit.setdefault(tuple(map(x.__getitem__, inv)), w)
                met.update(orbit)
                classes.append([((ident[0], z), w) for z, w in orbit.items()])
        gens = [(gamma, _invert((gamma, c), mod)[0], c) for gamma, c in self._lift_gens]
        for sigma, a in self.lifts[1:]:
            powers = None
            for r in self._coset(a, within=self._part(sigma).image):
                if (sigma, r) in met:
                    continue
                if powers is None:
                    powers = _walk([(sigma, ())], 1, len(self.lifts))[0]  # ⟨σ⟩
                met.add((sigma, r))
                cosets = [((sigma, r), ident)]
                for (pi, x), (tau, _) in cosets:  # grows while it is read
                    for gamma, inv, c in gens:  # g⁻¹·(π, x)·g = (γ⁻¹πγ, x∘γ⁻¹ + offsets)
                        if pi == sigma and gamma in powers:
                            continue
                        pz = tuple([gamma[pi[j]] for j in inv])
                        nz = tuple([(x[j] + c[pi[j]] - c[j]) % mod for j in inv])
                        key = (pz, reduce_by(nz, self._part(pz).image, mod))
                        if key not in met:
                            met.add(key)
                            t = tuple(map(gamma.__getitem__, tau))  # τ∘γ
                            cosets.append(((pz, nz), (t, words[t])))
                classes.append(cosets)
        return classes

    def class_size(self, cosets) -> int:
        """A class's size: its cosets (``class_transversals``) times |im φ_σ|; 1 if diagonal."""
        return 1 if self.is_diagonal else len(cosets) * len(self._part(cosets[0][0][0]).preimages)

    def conjugacy_classes(self) -> tuple[tuple[MonomialSymmetry, ...], ...]:
        """The classes, each sorted, ordered by leader."""
        return self._classes

    @cached_property
    def _classes(self) -> tuple[tuple[MonomialSymmetry, ...], ...]:
        make, mod = MonomialSymmetry.from_numerators, self.modulus
        return tuple(tuple([make(*form, mod) for form in sorted(
            [(px, tuple([(p + q) % mod for p, q in zip(nx, v)]))
             for (px, nx), _ in cosets for v in self._part(px).preimages])])
            for cosets in self.class_transversals)

    def _part(self, sigma) -> "_Part":
        """The record of the permutation part σ, made once: N^σ's basis,
        N^σ's generators as forms, im φ_σ's Hermite rows, and {v: c}, one
        preimage c of each value v of φ_σ(c) = c∘σ − c, 0 first.  All four
        come from one Hermite form over 2n columns of the pairs (φ_σ(c), c)
        for c ∈ N (Cohen §2.4.2).  Its last n rows are (0, c) for c in a
        basis of N^σ = ker φ_σ, whose generators are read off it.  Its first
        n rows (v, c) span im φ_σ, c a preimage of v: their first halves
        are im φ_σ's Hermite form, and listing their combinations gives each
        value once, with a preimage.  For σ = id, and for every σ when N =
        {0} (M = 1), that form is known, so it is written down: N^σ = N, its
        first rows are M·eᵢ and φ_σ is 0."""
        if sigma not in self._parts:
            n, mod, ident, zero = self.n, self.modulus, self.lifts[0][0], (0,) * self.n
            if sigma == ident or mod == 1:
                basis, preimages = list(self.basis), {zero: zero}
                image = [zero[:i] + (mod,) + zero[i + 1:] for i in range(n)]
            else:
                form = hermite([[(row[s] - x) % mod for s, x in zip(sigma, row)] + list(row)
                                for row in self.basis], mod)
                basis, image = [row[n:] for row in form[n:]], [row[:n] for row in form[:n]]
                preimages = {v[:n]: v[n:] for v in self._coset(zero * 2, form[:n])}
            generators = [(ident, row) for row in _lattice_generators(basis, mod)]
            self._parts[sigma] = _Part(basis, generators, image, preimages)
        return self._parts[sigma]

    def _centralizer_lifts(self, sigma, a):
        """The lifts of C(g) for g = (σ, a), in canonical order: (τ, a_τ + c)
        for each τ that commutes with σ, with c the preimage σ's record
        (``_part``) keeps of (a∘τ − a) − (a_τ∘σ − a_τ) under φ_σ, where
        there is one;
        and those whose τ the lifts before them do not generate."""
        mod, preimage, lifts = self.modulus, self._part(sigma).preimages, []
        for tau, b in self.lifts:
            if any(tau[s] != sigma[t] for s, t in zip(sigma, tau)):
                continue
            c = preimage.get(tuple([(a[t] - x - b[s] + y) % mod for s, t, x, y
                                    in zip(sigma, tau, a, b)]))
            if c is not None:
                lifts.append((tau, tuple([(x + y) % mod for x, y in zip(b, c)])))
        return lifts, _lift_generators(lifts)

    def centralizer(self, g: MonomialSymmetry) -> "SymmetryGroup":
        """C_G(g) from N^σ's basis and the lifts that commute with g."""
        if g not in self:
            raise NotAMemberError(f"{g!r} is not in this group")
        sigma, a = g.over(self.modulus)
        return SymmetryGroup(self.modulus, self._part(sigma).basis,
                             self._centralizer_lifts(sigma, a)[0])

    def _subgroup_walk(self):
        """Each subgroup, ordered by order, then by element indices: popped
        from a heap keyed so, and built by ``closure`` from the generator
        indices kept with it.  Each popped S is
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
        index = {form: i for i, form in enumerate(forms)}
        table = [[index[_compose(a, b, mod)] for b in forms] for a in forms]
        heap = [(1, (0,), [])]  # (order, elements, generators) as indices
        seen = {(0,)}
        while heap:
            _, sub, gens = heappop(heap)
            yield closure([MonomialSymmetry.from_numerators(*forms[i], mod) for i in gens or [0]],
                          self.order)
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
    """The group the generators generate, from one walk over its
    permutation images (``_walk``); errors past ``cap`` elements, on |P|
    while the walk grows it and on |P|·|N| before anything is listed."""
    generators = list(generators)
    if not generators:
        raise NotAGroupError("need at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise DimensionMismatchError("mixed ranks among generators")
    mod = lcm(*(g.mod for g in generators))
    lifts, schreier = _walk([g.over(mod) for g in generators], mod, cap)
    group = SymmetryGroup(mod, hermite([*schreier] or [(0,) * n], mod), lifts.items())
    if group.order > cap:
        raise CapExceededError(f"group exceeds cap of {cap} elements")
    return group


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


def check_symmetries(group: SymmetryGroup, poly: InvertiblePolynomial) -> None:
    """Errors unless G's generators, and so G, are symmetries of W; a W passed is kept on G."""
    if poly not in group._symmetries_of:
        for g in group.generators:  # the symmetries of W form a group
            if not is_symmetry(g, poly):
                raise NotASymmetryError(f"{g.label()} is not a symmetry of {poly}")
        group._symmetries_of.add(poly)


def exponential_grading(poly: InvertiblePolynomial) -> MonomialSymmetry:
    """j_W: the diagonal element whose phases are the weights."""
    return MonomialSymmetry.diagonal(poly.weights)


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
