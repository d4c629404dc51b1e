"""A- and B-model state spaces for Fermat polynomials.

Each group element g owns a sector: the Milnor ring of W restricted to
Fix(g), times the volume form on Fix(g).  For Fermat W the restriction is
again Fermat in one coordinate per fixed cycle, so the sector basis is the
set of exponent tuples 0 ≤ b_C ≤ d_C − 2 and everything stays combinatorial.

A group element γ acts on the sector of g by pullback, landing in the
sector of γ⁻¹gγ.  On the canonical cycle coordinates the pullback is a
permutation of coordinates with one scalar phase each; the volume form
additionally picks up the reordering sign (phase 1/2 per odd rearrangement).
Because every action is monomial, the invariant subspace has a basis of
orbit sums: an orbit of (sector, monomial) nodes contributes one basis
vector exactly when every closed loop of moves has total phase 0.  They are
found one conjugacy class at a time (``invariant_basis``), one form at a
time in a diagonal group, each pullback map from γ's form and two fixed
loci (``form_locus``), and no sector built.
A narrow sector (no fixed cycle) has one state, which every conjugation
fixes, so its class builds no lifts, locus or map to give its class sum.

Bigradings:  A-side  (deg P + age g − age j_W,  N_g − deg P + age g − age j_W)
             B-side  (deg P + age g − age j_W,  deg P + age g⁻¹ − age j_W)
where deg P always includes the volume form: deg(Π y^{b_C}·ω) = Σ (b_C+1)·q_C,
and age g⁻¹ = n − N_g − age g.

Basis vectors hold integers and integer forms (``GradedBasisVector``): once
the group's generators are checked against W, the search makes no element.
A vector keeps its lead, its orbit and its class, and lists nodes when read.

Everything is immutable.  ``build_sector``, the public entry that checks g
against W, caches its sectors per (W, g) in a bounded LRU.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product, repeat
from math import lcm, prod
from operator import mul

from .errors import (
    CapExceededError,
    InternalError,
    NotASymmetryError,
    NotAdmissibleAError,
    NotAdmissibleBError,
)
from .linalg import reduce_by
from .polynomial import InvertiblePolynomial
from .symmetry import (
    CACHE_SIZE,
    DEFAULT_CAP,
    FixedLocus,
    MonomialSymmetry,
    SymmetryGroup,
    _cycle_text,
    _invert,
    check_symmetries,
    exponential_grading,
    form_age,
    form_cycles,
    form_label,
    form_locus,
    is_symmetry,
    phase_text,
)

A_SIDE = "A"
B_SIDE = "B"

Bidegree = tuple[Fraction, Fraction]

# orbit-sum terms one state space may hold, counted before they are listed
TERM_CAP = DEFAULT_CAP


class Sector(namedtuple("Sector", "poly element locus degrees")):
    """Milnor ring basis of W|Fix(g) together with its volume form;
    ``degrees`` holds the Fermat exponent d_C of each fixed cycle."""

    __slots__ = ()

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The exponent tuples, 0 ≤ b_C ≤ d_C − 2, in order."""
        return tuple(product(*(range(d - 1) for d in self.degrees)))


@lru_cache(maxsize=CACHE_SIZE)
def build_sector(poly: InvertiblePolynomial, g: MonomialSymmetry) -> Sector:
    """Sector of g for a pure Fermat polynomial."""
    d_all = poly.fermat_exponents()
    if not is_symmetry(g, poly):
        raise NotASymmetryError(f"{g.label()} is not a symmetry of {poly}")
    locus = g.fixed_locus()
    # a symmetry only joins variables of equal weight, so of equal exponent
    return Sector(poly, g, locus, tuple([d_all[c[0]] for c in locus.cycles]))


class SectorMap(namedtuple("SectorMap", "cycle_images scalar_nums form_num mod")):
    """Pullback action of one γ from the fixed locus of g to that of γ⁻¹gγ.

    ``cycle_images[c]`` is the target cycle position receiving source cycle
    c's exponent; γ*(y_c) = e(scalar_nums[c]/mod)·y'_image.  ``form_num``
    over ``mod`` is the phase the full volume form picks up, reordering sign
    included.
    """

    __slots__ = ()

    def apply(self, exponents: tuple[int, ...], mod: int):
        """(image exponents, t·mod) for the coefficient e(t), t in [0, 1),
        over a multiple ``mod`` of ``self.mod``."""
        image = [0] * len(exponents)
        num = self.form_num
        for c, b in enumerate(exponents):
            image[self.cycle_images[c]] = b
            if b:
                num += b * self.scalar_nums[c]
        return tuple(image), num * (mod // self.mod) % mod


def sector_map(gamma, mod: int, source: FixedLocus, target: FixedLocus) -> SectorMap:
    """Express the pullback by γ = (perm, numerators over ``mod``) in
    canonical cycle coordinates, from ``source``, the fixed locus of g, to
    ``target``, that of γ⁻¹gγ, each as ``form_locus`` reads it off a form."""
    if source.dim != target.dim:
        raise InternalError("conjugation changed the fixed locus dimension")
    # one modulus for γ's phases, both canonical vectors and the sign 1/2
    m = lcm(2, mod, source.mod, target.mod)
    gnums = [x * (m // mod) for x in gamma[1]]
    inv_perm = _invert(gamma, mod)[0]
    where = {}  # variable index -> (source cycle position, canonical phase)
    for cpos, (cycle, nums) in enumerate(zip(source.cycles, source.phase_nums)):
        for i, x in zip(cycle, nums):
            where[i] = (cpos, x * (m // source.mod))

    cycle_images = [-1] * source.dim
    scalars = [0] * source.dim
    for dpos, (dcycle, dnums) in enumerate(zip(target.cycles, target.phase_nums)):
        i_star = inv_perm[dcycle[0]]
        if i_star not in where:
            raise InternalError("pullback image is not a fixed coordinate")
        cpos, phase_star = where[i_star]
        scalar = (gnums[i_star] - phase_star) % m
        # γ·v'_D must be e(scalar) times the canonical source vector
        for j, x in zip(dcycle, dnums):
            i = inv_perm[j]
            if i not in where or where[i][0] != cpos:
                raise InternalError("pullback image spreads over several cycles")
            if (gnums[i] + x * (m // target.mod) - scalar - where[i][1]) % m:
                raise InternalError("pullback image is not a canonical vector multiple")
        cycle_images[cpos] = dpos
        scalars[cpos] = scalar
    if -1 in cycle_images:
        raise InternalError("pullback does not pair the fixed cycles bijectively")

    inversions = sum(1 for a in range(source.dim) for b in range(a + 1, source.dim)
                     if cycle_images[a] > cycle_images[b])
    form_num = (sum(scalars) + m // 2 * (inversions % 2)) % m
    return SectorMap(tuple(cycle_images), tuple(scalars), form_num, m)


class GradedBasisVector(namedtuple("GradedBasisVector", "side group grade den lead exps orbit")):
    """Orbit sum Σ e(p/M)·⌊y^b·ω, g_i⌉ with one common bidegree, in integers.

    Its least node is (``lead``, ``exps``, 0): r's integer form over
    ``group.modulus``, the group's own tuple, and its exponents b.  The
    others are listed, when read, from ``orbit``: None in a diagonal group,
    else r's class (``_ClassNodes``) and the orbit's (b, p) in r's sector, p
    over M = lcm(2, group.modulus).  The bidegree is ``grade`` / ``den``.
    """

    __slots__ = ()

    @property
    def nodes(self) -> tuple:
        """(form, b, p) triples, sorted, listed from the class's carriers."""
        if self.orbit is None:
            return ((self.lead, self.exps, 0),)
        (record, phases), mod, nodes = self.orbit, lcm(2, self.group.modulus), []
        for sm, coset in record.carries:
            for exps, p in phases:
                image, delta = (exps, 0) if sm is None else sm.apply(exps, mod)
                nodes += [(x, image, (p + delta + form + sum(map(mul, image, c))) % mod)
                          for x, c, form in coset]
        nodes.sort()  # forms sort in the canonical element order
        return tuple(nodes)

    @property
    def terms(self) -> tuple:
        """(phase, exponents, element) triples in node order."""
        gmod, make = self.group.modulus, MonomialSymmetry.from_numerators
        return tuple([(Fraction(p, lcm(2, gmod)), exps, make(*form, gmod))
                      for form, exps, p in self.nodes])

    @property
    def leading(self) -> tuple:
        return self._replace(orbit=None).terms[0]

    @property
    def sector_elements(self) -> tuple[MonomialSymmetry, ...]:
        return tuple(g for _, _, g in self.terms)

    @property
    def bidegree(self) -> Bidegree:
        return Fraction(self.grade[0], self.den), Fraction(self.grade[1], self.den)


class _ClassNodes(namedtuple("_ClassNodes", "group cosets fixed")):
    """A class's cosets, as a tuple, and r's fixed cycles: its vectors'
    nodes are listed from them, by ``_carries`` when first read."""

    @cached_property
    def carries(self):
        return _carries(*self, lcm(2, self.group.modulus))


class GradedSpace:
    """State space with canonical basis, integer grade histogram and census;
    ``dims`` reads the histogram as rationals when read."""

    def __init__(self, side: str, poly: InvertiblePolynomial, group: SymmetryGroup,
                 basis: tuple[GradedBasisVector, ...]):
        self.side, self.poly, self.group, self.basis = side, poly, group, basis
        self.den, self.grades = 2 * lcm(*poly.fermat_exponents()), Counter([v.grade for v in basis])
        self.total_dim = len(basis)

    def bidegree(self, grade) -> Bidegree:
        return Fraction(grade[0], self.den), Fraction(grade[1], self.den)

    @property
    def dims(self) -> dict[Bidegree, int]:
        return {self.bidegree(grade): k for grade, k in self.grades.items()}

    def census(self) -> dict:
        """Counts by sector type of the leading term, read from its form;
        twisted broad counts are keyed by the leading element's label."""
        ident, mod, twisted = self.group.lifts[0][0], self.group.modulus, {}
        counts = {"untwisted_broad": 0, "twisted_broad": twisted,
                  "narrow_diagonal": 0, "narrow_nondiagonal": 0}
        for v in self.basis:
            perm, nums = v.lead
            if perm == ident and not any(nums):
                counts["untwisted_broad"] += 1
            elif not form_cycles(perm, nums, mod):
                counts["narrow_diagonal" if perm == ident else "narrow_nondiagonal"] += 1
            else:
                label = form_label(perm, nums, mod)
                twisted[label] = twisted.get(label, 0) + 1
        return counts

    def sorted_dims(self) -> list[tuple[Bidegree, int]]:
        return sorted(self.dims.items())


def _kept(cycles, degrees, gens, mod: int, limit: int) -> list[tuple[int, ...]]:
    """The exponents b, 0 ≤ b_C ≤ d_C − 2 over the fixed ``cycles`` C, d_C
    in ``degrees``, in order, on which each diagonal c in ``gens`` (integer
    forms over ``mod``, constant on each C) has the trivial character
    e(Σ_C (b_C + 1)·c[C₀]).  The cycles split where the halves hold about
    equally many tuples; each half is summed once, and the halves meet where
    their sums cancel.  A sector of over ``limit`` monomials is first counted
    per sum of each half, and CapExceededError is raised before any listing."""
    columns = [[c[cycle[0]] for _, c in gens] for cycle in cycles]
    sizes = [d - 1 for d in degrees]
    half = min(range(len(sizes) + 1), key=lambda h: max(prod(sizes[:h]), prod(sizes[h:])))
    halves = ((columns[:half], sizes[:half]), (columns[half:], sizes[half:]))

    def sums(cols, ranges):
        out = [((), (0,) * len(gens))]
        for col, r in zip(cols, ranges):
            out = [(b + (e,), tuple([(x + (e + 1) * w) % mod for x, w in zip(s, col)]))
                   for b, s in out for e in range(r)]
        return out

    def tally(cols, ranges):  # the number of tuples per sum
        out = Counter({(0,) * len(gens): 1})
        for col, r in zip(cols, ranges):
            grown = Counter()
            for s, k in out.items():
                for e in range(r):
                    grown[tuple([(x + (e + 1) * w) % mod for x, w in zip(s, col)])] += k
            out = grown
        return out
    if prod(sizes) > limit:
        left, right = tally(*halves[0]), tally(*halves[1])
        if sum([k * right[tuple([-x % mod for x in s])] for s, k in left.items()]) > limit:
            raise CapExceededError(f"state space exceeds {TERM_CAP} terms")
    meet: dict[tuple[int, ...], list] = {}
    for b, s in sums(*halves[1]):
        meet.setdefault(s, []).append(b)
    return [b + c for b, s in sums(*halves[0])
            for c in meet.get(tuple([-x % mod for x in s]), ())]


def _carries(group: SymmetryGroup, cosets, fixed, mod: int):
    """Per coset of im φ_σ in the class ``cosets`` (``class_transversals``):
    the map from r's fixed locus to its head y's (None for r's own), then
    each member x = c⁻¹·y·c, c a preimage that y's σ record (``_part``)
    keeps, 0 first, with c's numerators over ``mod`` at the first index C₀
    of each fixed cycle C of y (r's are ``fixed``) and their sum.  Both loci are
    read off the forms, r's when a head first needs it, and neither for a
    narrow class (``fixed`` empty), whose maps are None.  c* keeps every cycle,
    with scalar c[C₀] and no sign: it multiplies y^b·ω by e(Σ_C (b_C + 1)·c[C₀])."""
    gmod, out, source, sm = group.modulus, [], None, None
    for y, w in cosets:
        if out and fixed:  # the head y = w⁻¹·r·w of another coset, if it has a locus
            source = source or form_locus(*cosets[0][0], gmod)
            target = form_locus(*y, gmod)
            sm, fixed = sector_map(w, gmod, source, target), target.cycles
        (perm, nums), members = y, []
        for v, c in group._part(perm).preimages.items():  # 0 first: y itself
            x = (perm, tuple([(p + q) % gmod for p, q in zip(nums, v)])) if any(v) else y
            cols = tuple([c[cycle[0]] * (mod // gmod) for cycle in fixed])
            members.append((x, cols, sum(cols)))
        out.append((sm, members))
    return out


def invariant_basis(poly: InvertiblePolynomial, group: SymmetryGroup,
                    side: str) -> tuple[GradedBasisVector, ...]:
    """Orbit-sum basis of the G-invariants of ⊕_g Q_{W_g}·ω_g.

    The invariants are ⊕_{[r]} (Q_{W_r}·ω_r)^{C(r)} over class
    representatives r = (σ, a), each the least element of its class, and
    C(r) is N^σ times lifts (none in a diagonal group).  N^σ only
    multiplies each monomial of r's sector by a character and is normal in
    C(r), so an orbit of the lifts is N^σ-invariant exactly when its least
    node is.  Those nodes depend only on σ and r's fixed cycles and are
    found once per pair.  From each, a depth-first search under the lifts'
    pullback maps accumulates coefficient phases; the orbit survives when
    every loop closes with total phase 0.  As (w·c)* = c*∘w*, it reaches
    each conjugate t⁻¹·r·t, t = w·c, by the map of the lift word w, one per
    coset of N, then by the character of the diagonal c (``_carries``).
    The least term of its orbit sum, in the sector of r, has phase 0.  A
    narrow class (r fixes no cycle) keeps its one state in every member:
    it builds no lifts, locus or map, and its search is the one node ().
    In a diagonal group a class is one form r, C(r) = N and no lift moves
    a monomial: r's fixed set is where its numerators are 0, its age their
    sum, and each kept b is a vector, its one node (r, b, 0).
    """
    gmod = group.modulus
    check_symmetries(group, poly)
    # every map's modulus divides the group's, times 2 for the form sign
    mod = lcm(2, gmod)
    # bidegrees over 2·lcm(d): phases of symmetries of Fermat W are k/d_i
    d_all = poly.fermat_exponents()
    den = 2 * lcm(*d_all)
    shift = sum([den // d for d in d_all])  # den·age j_W
    sign = -1 if side == A_SIDE else 1  # bidegree (u + deg, v ± deg)
    vectors = []  # appended sorted: by representative, then lead
    kept_at: dict[tuple, list] = {}  # (σ, fixed cycles) -> kept exponents
    counted = 0  # Σ |kept(r)|·|class| so far, a bound on the terms listed
    ident, diagonal = group.lifts[0][0], group.is_diagonal
    # a diagonal group's classes are its forms, one coset each: no class list is made
    forms = ((((ident, x),),) for x in group._coset(group.lifts[0][1]))
    for cosets in forms if diagonal else group.class_transversals:
        perm, nums = r = cosets[0][0]
        # where r's numerators are 0, if diagonal; no canonical vectors: only maps need loci
        fixed = (tuple([(i,) for i, x in enumerate(nums) if not x]) if diagonal
                 else form_cycles(perm, nums, gmod))
        size = group.class_size(cosets)
        limit = (TERM_CAP - counted) // size
        kept = kept_at.get((perm, fixed))
        if kept is None:  # each b with den·deg(y^b·ω) = Σ_C (b_C + 1)·den·q_C
            steps = [den // d_all[c[0]] for c in fixed]
            kept = kept_at[perm, fixed] = [(b, sum(map(mul, b, steps)) + sum(steps)) for b in _kept(
                fixed, [d_all[c[0]] for c in fixed], group._part(perm).generators, gmod, limit)]
        if len(kept) > limit:
            raise CapExceededError(f"state space exceeds {TERM_CAP} terms")
        counted += len(kept) * size
        if not kept:
            continue
        u = (2 * sum(nums) if diagonal else form_age(perm, nums, gmod)) * (den // 2 // gmod) - shift
        v = len(fixed) * den + u if side == A_SIDE else (group.n - len(fixed)) * den - u - 2 * shift
        if diagonal:  # no lift moves a monomial: each is a vector, its one node
            vectors += [GradedBasisVector(side, group, (u + d, v + sign * d), den, r, b, None)
                        for b, d in kept]
            continue
        # a fixed locus and maps only where lifts move monomials: a narrow
        # sector's one state (no fixed cycle) is fixed by every conjugation
        lift_gens = group._centralizer_lifts(perm, nums)[1] if fixed else []
        locus = form_locus(perm, nums, gmod) if lift_gens else None
        moves = [sector_map(lift, gmod, locus, locus) for lift in lift_gens]
        record = None  # made with the class's first invariant orbit
        done: set[tuple[int, ...]] = set()
        for lead, d in kept:  # an orbit's nodes are all kept: its least comes first
            if lead in done:
                continue
            phases = {lead: 0}
            stack = [lead]
            consistent = True
            while stack:
                node = stack.pop()
                base = phases[node]
                for sm in moves:
                    image, delta = sm.apply(node, mod)
                    total = (base + delta) % mod
                    known = phases.get(image)
                    if known is None:
                        phases[image] = total
                        stack.append(image)
                    elif known != total:
                        consistent = False
            done.update(phases)
            if not consistent:
                continue
            record = record or _ClassNodes(group, tuple(cosets), fixed)
            vectors.append(GradedBasisVector(side, group, (u + d, v + sign * d), den, r, lead,
                                             (record, tuple(phases.items()))))
    return tuple(vectors)


def a_state_space(poly: InvertiblePolynomial, group: SymmetryGroup) -> GradedSpace:
    """A-model state space; the group must contain j_W."""
    poly.fermat_exponents()
    if exponential_grading(poly) not in group:
        raise NotAdmissibleAError("group does not contain the grading element j_W")
    return GradedSpace(A_SIDE, poly, group, invariant_basis(poly, group, A_SIDE))


def b_state_space(poly: InvertiblePolynomial, group: SymmetryGroup) -> GradedSpace:
    """B-model state space; every group element must have determinant one."""
    poly.fermat_exponents()
    # det is a homomorphism, so the generators decide; the error names the
    # first element in canonical order outside SL.  In N, the span of the rows
    # after the last row outside SL comes first, then that row plus it; if N
    # lies in SL, det is constant on each coset of N, whose lift comes first
    if any(g.det_num() for g in group.generators):
        mod, basis, make = group.modulus, group.basis, MonomialSymmetry.from_numerators
        rows = [(i, row) for i, row in enumerate(basis) if sum(row) % mod][-1:]
        forms = [(group.lifts[0][0], reduce_by(row, basis, mod, i + 1)) for i, row in rows]
        g = next(g for g in (make(*form, mod) for form in forms or group.lifts) if g.det_num())
        raise NotAdmissibleBError(
            f"{g.label()} has determinant e({g.det_phase()}) ≠ 1")
    return GradedSpace(B_SIDE, poly, group, invariant_basis(poly, group, B_SIDE))


class HodgeDiamond:
    """Bidegree histogram arranged as a diamond when the grading is integral."""

    def __init__(self, space: GradedSpace):
        self.dims = space.dims  # a fresh dict, made when read
        self.integral = all(p.denominator == q.denominator == 1 for p, q in self.dims)

    def grid(self) -> dict[tuple[int, int], int]:
        if not self.integral:
            raise ValueError("bidegrees are not all integral")
        return {(int(p), int(q)): d for (p, q), d in self.dims.items()}

    def rows(self) -> list[list[int]]:
        """One list per occupied total degree p+q, cells ordered by p."""
        grid, out = self.grid(), []
        for s in sorted({p + q for p, q in grid}):
            ps = [p for (p, q) in grid if p + q == s]
            out.append([grid.get((p, s - p), 0) for p in range(min(ps), max(ps) + 1)])
        return out

    def render(self) -> str:
        """Centered text diamond, or a sparse table for fractional gradings."""
        if not self.integral:
            return "\n".join(f"({p}, {q}): {d}" for (p, q), d in sorted(self.dims.items()))
        rows = [" ".join(str(d) for d in row) for row in self.rows()]
        width = max((len(r) for r in rows), default=0)
        return "\n".join(r.center(width).rstrip() for r in rows)


# --- rendering helpers -------------------------------------------------------

def _coefficient(num: int, mod: int) -> str:
    """e(num/mod) as a prefix: none for 1, '-' for −1 (a sum reads '+ -' as '- ')."""
    return "" if not num else "-" if 2 * num == mod else f"e({phase_text(num, mod)})*"


def monomial_label(poly: InvertiblePolynomial, locus: FixedLocus,
                   exponents: tuple[int, ...]) -> str:
    """Render Π y^{b_C} over the cycle coordinates of Fix(g) (form omitted)."""
    factors, names = [], poly.var_names
    for (cycle, nums, b) in zip(locus.cycles, locus.phase_nums, exponents):
        if b:
            base = names[cycle[0]] if len(cycle) == 1 else "(" + " + ".join([
                _coefficient(x, locus.mod) + names[i] for i, x in sorted(zip(cycle, nums))
            ]).replace("+ -", "- ") + ")"
            factors.append(base if b == 1 else f"{base}^{b}")
    return "*".join(factors) if factors else "1"


def labeller(poly: InvertiblePolynomial, gmod: int, element=None):
    """Labels for one render (a pairing's side, or a space's lines or basis
    records): ``label(nodes, terms)`` renders the orbit sum of ``nodes`` (form
    over ``gmod``, b, p), lead first, e.g. ``[x4^2, (1 2 3)]``, and appends
    each node's (element(cycle text, phase texts), b, p) to ``terms`` if given.
    A form's texts, and its fixed locus where an exponent is not 0, are made
    once per run of nodes that share the form, and live as long as ``label``."""
    mod, gmods, form, text, locus, record = lcm(2, gmod), repeat(gmod), None, None, None, None

    def label(nodes, terms=None) -> str:
        nonlocal form, text, locus, record
        chunks = []
        for node, exps, p in nodes:
            if node != form:  # a new run
                cycles, phases = _cycle_text(node[0]), [*map(phase_text, node[1], gmods)]
                form, text, locus = node, form_label(*node, gmod, cycles, phases), None
                record = element and element(cycles, phases)
            monomial = monomial_label(
                poly, locus := locus or form_locus(*node, gmod), exps) if any(exps) else "1"
            chunks.append(f"{_coefficient(p, mod)}[{monomial}, {text}]")
            if terms is not None:
                terms.append((record, exps, p))
        return " + ".join(chunks).replace("+ -", "- ")
    return label


def vector_label(vector: GradedBasisVector, poly: InvertiblePolynomial) -> str:
    """The vector's label, a render of its own: form texts once per run of nodes."""
    return labeller(poly, vector.group.modulus)(vector.nodes)
