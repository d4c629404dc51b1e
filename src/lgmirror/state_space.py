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
vector exactly when every closed loop of generator moves has total phase 0.
Since (⊕_g Q_{W_g}·ω_g)^G = ⊕_{[r]} (Q_{W_r}·ω_r)^{C(r)}, the search runs
once per conjugacy class, in the sector of its least element r, and only
the lifts in C(r) move monomials: its diagonal part N^σ, like the diagonal
part c of each transversal element t = w·c, acts by a character.  An
invariant orbit reaches every conjugate t⁻¹rt by one map per coset of the
diagonal subgroup, that of w, followed by c's character.  The search reads
r's fixed cycles and their exponents; a sector is built only for a pullback
map, the lifts' and the coset heads', so a diagonal group builds none.

Bigradings:  A-side  (deg P + age g − age j_W,  N_g − deg P + age g − age j_W)
             B-side  (deg P + age g − age j_W,  deg P + age g⁻¹ − age j_W)
where deg P always includes the volume form: deg(Π y^{b_C}·ω) = Σ (b_C+1)·q_C,
and age g⁻¹ = n − N_g − age g.

Everything is immutable; sectors are cached per (W, g) in a bounded LRU.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import lcm, prod
from operator import mul

from .errors import (
    CapExceededError,
    InternalError,
    NotASymmetryError,
    NotAdmissibleAError,
    NotAdmissibleBError,
)
from .polynomial import InvertiblePolynomial
from .symmetry import (
    CACHE_SIZE,
    DEFAULT_CAP,
    HALF,
    MonomialSymmetry,
    SymmetryGroup,
    exponential_grading,
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

    @property
    def is_narrow(self) -> bool:
        return self.locus.dim == 0


@lru_cache(maxsize=CACHE_SIZE)
def build_sector(poly: InvertiblePolynomial, g: MonomialSymmetry) -> Sector:
    """Sector of g for a pure Fermat polynomial."""
    d_all = poly.fermat_exponents()
    if not is_symmetry(g, poly):
        raise NotASymmetryError(f"{g.label()} is not a symmetry of {poly}")
    locus = g.fixed_locus()
    # a symmetry only joins variables of equal weight, so of equal exponent
    return Sector(poly, g, locus, tuple([d_all[c[0]] for c in locus.cycles]))


class SectorMap(namedtuple("SectorMap", "source target cycle_images scalar_nums form_num mod")):
    """Pullback action of one γ: sector of g → sector of γ⁻¹gγ.

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


def sector_map(gamma: MonomialSymmetry, sector: Sector,
               target: Sector | None = None) -> SectorMap:
    """Express γ's pullback in canonical cycle coordinates; ``target``, the
    sector of γ⁻¹gγ, is built unless given."""
    if target is None:
        target = build_sector(sector.poly, sector.element.conjugated_by(gamma))
    src = sector.locus
    tgt = target.locus
    if src.dim != tgt.dim:
        raise InternalError("conjugation changed the fixed locus dimension")
    # one modulus for γ's phases, both canonical vectors and the sign 1/2
    mod = lcm(2, gamma.mod, src.mod, tgt.mod)
    gnums = gamma.over(mod)[1]
    inv_perm = gamma.inverse().perm
    where = {}  # variable index -> (source cycle position, canonical phase)
    for cpos, (cycle, nums) in enumerate(zip(src.cycles, src.phase_nums)):
        for i, x in zip(cycle, nums):
            where[i] = (cpos, x * (mod // src.mod))

    cycle_images = [-1] * src.dim
    scalars = [0] * src.dim
    for dpos, (dcycle, dnums) in enumerate(zip(tgt.cycles, tgt.phase_nums)):
        i_star = inv_perm[dcycle[0]]
        if i_star not in where:
            raise InternalError("pullback image is not a fixed coordinate")
        cpos, phase_star = where[i_star]
        scalar = (gnums[i_star] - phase_star) % mod
        # γ·v'_D must be e(scalar) times the canonical source vector
        for j, x in zip(dcycle, dnums):
            i = inv_perm[j]
            if i not in where or where[i][0] != cpos:
                raise InternalError("pullback image spreads over several cycles")
            if (gnums[i] + x * (mod // tgt.mod) - scalar - where[i][1]) % mod:
                raise InternalError("pullback image is not a canonical vector multiple")
        cycle_images[cpos] = dpos
        scalars[cpos] = scalar
    if -1 in cycle_images:
        raise InternalError("pullback does not pair the fixed cycles bijectively")

    inversions = sum(1 for a in range(src.dim) for b in range(a + 1, src.dim)
                     if cycle_images[a] > cycle_images[b])
    form_num = (sum(scalars) + mod // 2 * (inversions % 2)) % mod
    return SectorMap(sector, target, tuple(cycle_images), tuple(scalars),
                     form_num, mod)


class GradedBasisVector(namedtuple("GradedBasisVector", "side terms bidegree")):
    """Orbit sum Σ e(phase)·⌊y^b·ω, g⌉ with one common bidegree.

    ``terms`` holds (phase, exponents, element) triples, sorted; the
    leading (first) term has coefficient phase 0.
    """

    __slots__ = ()

    @property
    def leading(self) -> tuple[Fraction, tuple[int, ...], MonomialSymmetry]:
        return self.terms[0]

    @property
    def sector_elements(self) -> tuple[MonomialSymmetry, ...]:
        return tuple(g for _, _, g in self.terms)


class GradedSpace:
    """State space with canonical basis, bidegree histogram and census."""

    def __init__(self, side: str, poly: InvertiblePolynomial,
                 group: SymmetryGroup,
                 basis: tuple[GradedBasisVector, ...]):
        self.side = side
        self.poly = poly
        self.group = group
        self.basis = basis
        self.dims: dict[Bidegree, int] = dict(Counter(v.bidegree for v in basis))
        self.total_dim = len(basis)

    def census(self) -> dict:
        """Counts by sector type of the leading term.

        Twisted broad counts are keyed by the leading element's label.
        """
        untwisted = 0
        narrow_diagonal = 0
        narrow_nondiagonal = 0
        twisted: dict[str, int] = {}
        for v in self.basis:
            g = v.leading[2]
            if g.is_identity:
                untwisted += 1
            elif not g.fixed_cycles():
                if g.is_diagonal:
                    narrow_diagonal += 1
                else:
                    narrow_nondiagonal += 1
            else:
                label = g.label()
                twisted[label] = twisted.get(label, 0) + 1
        return {
            "untwisted_broad": untwisted,
            "twisted_broad": twisted,
            "narrow_diagonal": narrow_diagonal,
            "narrow_nondiagonal": narrow_nondiagonal,
        }

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


def _carries(poly, group: SymmetryGroup, members, fixed, mod: int):
    """Per coset of N in the class ``members``: the map from r's sector to
    its head y's (None for r's own), then each member x = c⁻¹·y·c with c's
    numerators over ``mod`` at the first index C₀ of each fixed cycle C of
    y (r's are ``fixed``) and their sum.  c* keeps every cycle, with scalar
    c[C₀] and no sign: it multiplies y^b·ω by e(Σ_C (b_C + 1)·c[C₀])."""
    elements, gmod, out = group.elements, group.modulus, [(None, [])]
    for x, w, c in members:
        if not any(c) and x != members[0][0]:  # the head y = w⁻¹·r·w of a coset
            sm = sector_map(MonomialSymmetry.from_numerators(*w, gmod),
                            build_sector(poly, elements[members[0][0]]),
                            build_sector(poly, elements[x]))
            fixed = sm.target.locus.cycles
            out.append((sm, []))
        cols = [c[cycle[0]] * (mod // gmod) for cycle in fixed]
        out[-1][1].append((x, cols, sum(cols)))
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
    The least term of its orbit sum, in the sector of r, has phase 0.
    """
    elements, gmod = group.elements, group.modulus
    for g in group.generators:  # the symmetries of W form a group
        if not is_symmetry(g, poly):
            raise NotASymmetryError(f"{g.label()} is not a symmetry of {poly}")
    make = MonomialSymmetry.from_numerators
    # every map's modulus divides the group's, times 2 for the form sign
    mod = lcm(2, gmod)
    phase = lru_cache(maxsize=None)(partial(Fraction, denominator=mod))  # one per value
    # bidegrees over one denominator, one Fraction pair per value in this call
    jw, d_all = poly.weight_sum, poly.fermat_exponents()
    den = lcm(2 * gmod, jw.denominator, *d_all)
    shift = jw.numerator * (den // jw.denominator)
    bidegree = lru_cache(maxsize=None)(lambda p, q: (Fraction(p, den), Fraction(q, den)))
    sign = -1 if side == A_SIDE else 1  # bidegree (u + deg, v ± deg)
    vectors = []  # appended sorted: by representative, then lead
    kept_at: dict[tuple, list] = {}  # (σ, fixed cycles) -> kept exponents
    counted = 0  # Σ |kept(r)|·|class| so far, a bound on the terms listed
    for members in group.class_transversals():
        r = members[0][0]
        g = elements[r]
        fixed = g.fixed_cycles()  # no canonical vectors: only maps need sectors
        limit = (TERM_CAP - counted) // len(members)
        kept = kept_at.get((g.perm, fixed))
        if kept is None:
            kept = kept_at[g.perm, fixed] = _kept(fixed, [d_all[c[0]] for c in fixed],
                                                  group._fixed_generators(g.perm), gmod, limit)
        if len(kept) > limit:
            raise CapExceededError(f"state space exceeds {TERM_CAP} terms")
        counted += len(kept) * len(members)
        if not kept:
            continue
        # a sector and maps only where lifts move monomials
        lift_gens = [] if group.is_diagonal else group._centralizer_forms(r)[2]
        sector = build_sector(poly, g) if lift_gens else None
        moves = [sector_map(make(*lift, gmod), sector, sector) for lift in lift_gens]
        carries = None  # built with the class's first invariant orbit
        steps = [den // d_all[c[0]] for c in fixed]  # den·q_C per fixed cycle
        u = g.age_num() * (den // (2 * g.mod)) - shift
        v = len(fixed) * den + u if side == A_SIDE else (g.n - len(fixed)) * den - u - 2 * shift
        done: set[tuple[int, ...]] = set()
        for lead in kept:  # an orbit's nodes are all kept: its least comes first
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
            if carries is None:
                carries = _carries(poly, group, members, fixed, mod)
            nodes = []
            for sm, coset in carries:
                for exps, p in phases.items():
                    image, delta = (exps, 0) if sm is None else sm.apply(exps, mod)
                    for x, c, form in coset:
                        nodes.append(((x, image), p + delta + form + sum(map(mul, image, c))))
            nodes.sort()  # element indices follow the canonical element order
            terms = tuple((phase(p % mod), exps, elements[i]) for (i, exps), p in nodes)
            deg = sum((b + 1) * q for b, q in zip(lead, steps))
            vectors.append(GradedBasisVector(side, terms, bidegree(u + deg, v + sign * deg)))
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
    # first element in canonical order outside SL
    if any(g.det_num() for g in group.generators):
        g = next(g for g in group if g.det_num())
        raise NotAdmissibleBError(
            f"{g.label()} has determinant e({g.det_phase()}) ≠ 1")
    return GradedSpace(B_SIDE, poly, group, invariant_basis(poly, group, B_SIDE))


class HodgeDiamond:
    """Bidegree histogram arranged as a diamond when the grading is integral."""

    def __init__(self, space: GradedSpace):
        self.dims = dict(space.dims)
        self.integral = all(p.denominator == 1 and q.denominator == 1
                            for p, q in self.dims)

    def grid(self) -> dict[tuple[int, int], int]:
        if not self.integral:
            raise ValueError("bidegrees are not all integral")
        return {(int(p), int(q)): d for (p, q), d in self.dims.items()}

    def rows(self) -> list[list[int]]:
        """One list per occupied total degree p+q, cells ordered by p."""
        grid = self.grid()
        totals = sorted({p + q for p, q in grid})
        out = []
        for s in totals:
            ps = [p for (p, q) in grid if p + q == s]
            row = [grid.get((p, s - p), 0) for p in range(min(ps), max(ps) + 1)]
            out.append(row)
        return out

    def render(self) -> str:
        """Centered text diamond, or a sparse table for fractional gradings."""
        if not self.integral:
            lines = [f"({p}, {q}): {d}" for (p, q), d in sorted(self.dims.items())]
            return "\n".join(lines)
        rows = [" ".join(str(d) for d in row) for row in self.rows()]
        width = max((len(r) for r in rows), default=0)
        return "\n".join(r.center(width).rstrip() for r in rows)


# --- rendering helpers -------------------------------------------------------

def _coordinate_label(poly: InvertiblePolynomial, cycle, nums, mod) -> str:
    if len(cycle) == 1:
        return poly.var_names[cycle[0]]
    parts = []
    for i, x in sorted(zip(cycle, nums)):
        name = poly.var_names[i]
        if x == 0:
            parts.append(name)
        elif 2 * x == mod:
            parts.append(f"-{name}")
        else:
            parts.append(f"e({phase_text(x, mod)})*{name}")
    return "(" + " + ".join(parts).replace("+ -", "- ") + ")"


def monomial_label(poly: InvertiblePolynomial, g: MonomialSymmetry,
                   exponents: tuple[int, ...]) -> str:
    """Render Π y^{b_C} over the cycle coordinates of Fix(g) (form omitted)."""
    factors = []
    locus = g.fixed_locus()
    for (cycle, nums, b) in zip(locus.cycles, locus.phase_nums, exponents):
        if b == 0:
            continue
        base = _coordinate_label(poly, cycle, nums, locus.mod)
        factors.append(base if b == 1 else f"{base}^{b}")
    return "*".join(factors) if factors else "1"


def vector_label(vector: GradedBasisVector, poly: InvertiblePolynomial) -> str:
    """Orbit sum with the leading term first, e.g. ``[x4^2, (1 2 3)]``."""
    chunks = []
    for k, (phase, exps, g) in enumerate(vector.terms):
        body = f"[{monomial_label(poly, g, exps)}, {g.label()}]"
        if k == 0:
            chunks.append(body)
        elif phase == HALF:
            chunks.append(f"- {body}")
        elif phase == 0:
            chunks.append(f"+ {body}")
        else:
            chunks.append(f"+ e({phase})*{body}")
    return " ".join(chunks)
