"""Seeded input generators for the model-sweep and dual-sweep workloads.

The generators never import lgmirror: they compute exponent matrices, exact
inverses, diagonal groups and the expected group orders with their own
small exact arithmetic, and hand the library nothing but spec-file text.
That keeps the library's caches cold until the timed call and gives the
output checks an independent source for every expected number.

A diagonal symmetry with phases k_i/N (N = |det A_W|) is kept as the integer
tuple (k_1, …, k_n) mod N; a permutation as its 0-based image tuple, in the
library's convention (g·x)_i = e(a_i)·x_{σ(i)}.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

FERMAT, CHAIN, LOOP = "fermat", "chain", "loop"


# --- exact linear algebra ----------------------------------------------------

def determinant(rows) -> int:
    """Exact determinant of a small integer matrix (fraction elimination)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


@functools.lru_cache(maxsize=64)
def inverse(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan elimination over the rationals.

    ``rows`` is a tuple of tuples; each request asks for its inverse several
    times, so the last few are kept."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


# --- polynomials from atoms --------------------------------------------------

@dataclass(frozen=True)
class Atom:
    kind: str
    exponents: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.exponents)

    def det(self) -> int:
        prod = 1
        for a in self.exponents:
            prod *= a
        if self.kind == LOOP:
            return prod - (-1) ** self.size
        return prod


def exponent_matrix(atoms) -> tuple[tuple[int, ...], ...]:
    """Rows of A_W: chains x_h^a·x_{h+1}, loops closing back to their start."""
    n = sum(a.size for a in atoms)
    rows = []
    start = 0
    for atom in atoms:
        for k, e in enumerate(atom.exponents):
            row = [0] * n
            row[start + k] = e
            if atom.kind == CHAIN and k + 1 < atom.size:
                row[start + k + 1] = 1
            elif atom.kind == LOOP:
                row[start + (k + 1) % atom.size] = 1
            rows.append(tuple(row))
        start += atom.size
    return tuple(rows)


def polynomial_text(rows) -> str:
    terms = []
    for row in rows:
        factors = [f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
                   for j, e in enumerate(row) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)


# --- finite groups of diagonal phases and permutations -----------------------

@functools.lru_cache(maxsize=64)
def diagonal_columns(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """N = |det A_W| and the columns of A_W⁻¹ scaled to integers mod N.

    The columns of A_W⁻¹ generate the diagonal symmetry group of W.
    """
    n_mod = abs(determinant(rows))
    inv = inverse(rows)
    n = len(rows)
    cols = []
    for k in range(n):
        col = tuple(int(inv[i][k] * n_mod) % n_mod for i in range(n))
        cols.append(col)
    return n_mod, tuple(cols)


def grading(rows, n_mod: int) -> tuple[int, ...]:
    """j_W: the weights q = A_W⁻¹·(1,…,1)ᵀ, scaled by N."""
    inv = inverse(rows)
    return tuple(int(sum(row) * n_mod) % n_mod for row in inv)


def span(vectors, n_mod: int) -> set[tuple[int, ...]]:
    """The subgroup of (ℤ/N)ⁿ generated by ``vectors``."""
    n = len(vectors[0]) if vectors else 0
    zero = (0,) * n
    elems = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for a in frontier:
            for v in vectors:
                b = tuple((x + y) % n_mod for x, y in zip(a, v))
                if b not in elems:
                    elems.add(b)
                    fresh.append(b)
        frontier = fresh
    return elems


def perm_closure(perms, n: int) -> set[tuple[int, ...]]:
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for p in perms:
                b = tuple(p[i] for i in a)
                if b not in elems:
                    elems.add(b)
                    fresh.append(b)
        frontier = fresh
    return elems


def from_cycles(cycles, n: int) -> tuple[int, ...]:
    images = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def conjugates(gens, perms) -> list[tuple[int, ...]]:
    """Every K-conjugate of the diagonal generators; they span H = G ∩ diag."""
    return sorted({tuple(v[p[i]] for i in range(len(v))) for v in gens for p in perms})


def parity_holds(perms, n: int) -> bool:
    """dim (ℂⁿ)ᵀ ≡ n (mod 2) for every subgroup T of K.

    Only cyclic K and Klein four-groups occur here, so the subgroups are the
    cyclic ones plus K itself.
    """
    def orbits(group):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a
        for p in group:
            for i, j in enumerate(p):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        return sum(1 for i in range(n) if find(i) == i)

    subgroups = [perm_closure([p], n) for p in perms] + [perms]
    return all((orbits(t) - n) % 2 == 0 for t in subgroups)


def phase_text(vector, n_mod: int) -> str:
    return "diag(" + ", ".join(str(Fraction(k, n_mod)) for k in vector) + ")"


def cycle_text(perm) -> str:
    seen = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cycle = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(c + 1) for c in cycle) + ")")
    return "".join(parts)


# --- one generated request ---------------------------------------------------

@dataclass
class Case:
    """One spec file plus everything the checks expect from it."""

    index: int
    kind: str                 # "model", "dual-group", "nonabelian-dual", "pc-check"
    spec: str
    det: int                  # |det A_W| = |G^diag_W| = |G^diag_Wᵀ|
    h_order: int
    k_order: int
    j_in_h: bool
    pc_holds: bool
    k_type: str
    cap: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def g_order(self) -> int:
        return self.h_order * self.k_order

    @property
    def star_order(self) -> int:
        return self.det // self.h_order * self.k_order

    @property
    def expects_cap_error(self) -> bool:
        return self.cap is not None


def _group_line(n_mod, diag_gens, perm_gens, with_j) -> str:
    parts = ["j"] if with_j else []
    parts += [phase_text(v, n_mod) for v in diag_gens]
    parts += [cycle_text(p) for p in perm_gens]
    return "; ".join(parts)


def _make_case(index, kind, rows, diag_pick, k_gens, k_type, with_j):
    n = len(rows)
    n_mod, _ = diagonal_columns(rows)
    j = grading(rows, n_mod)
    k_group = perm_closure(k_gens, n)
    gens = ([j] if with_j else []) + list(diag_pick)
    h_gens = conjugates(gens, k_group)
    h = span(h_gens, n_mod) if gens else {(0,) * n}
    spec = (f"W = {polynomial_text(rows)}\n"
            f"G = {_group_line(n_mod, diag_pick, k_gens, with_j)}\n")
    return Case(index, kind, spec, n_mod, len(h), len(k_group), j in h,
                parity_holds(k_group, n), k_type,
                extra={"h_gens": h_gens, "rows": rows})


def _random_diag(rng, n_mod, cols, count):
    """``count`` random elements of the diagonal group ⟨columns of A_W⁻¹⟩."""
    out = []
    for _ in range(count):
        coeffs = [rng.randrange(n_mod) for _ in cols]
        out.append(tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % n_mod
                         for i in range(len(cols))))
    return out


# --- model-sweep ---------------------------------------------------------------
#
# Fermat pool: many models share few polynomials, so the diagonal-group and
# sector caches stay warm.  Each entry lists, per K type, the choices of K
# that are symmetries of the polynomial (only variables of equal exponent
# move); a choice is a list of generators, each a list of cycles.

MODEL_POOL = (
    ((4, 4, 4, 4), {
        "C3": [[[(0, 1, 2)]], [[(1, 2, 3)]]],
        "C2": [[[(0, 1), (2, 3)]], [[(0, 3), (1, 2)]]],
        "V4": [[[(0, 1), (2, 3)], [(0, 2), (1, 3)]]],
    }),
    ((3, 3, 3, 3, 3), {
        "C3": [[[(0, 1, 2)]], [[(2, 3, 4)]]],
        "C2": [[[(0, 1), (2, 3)]], [[(1, 2), (3, 4)]]],
        "V4": [[[(0, 1), (2, 3)], [(0, 2), (1, 3)]],
               [[(1, 2), (3, 4)], [(1, 3), (2, 4)]]],
    }),
    ((6, 6, 6), {
        "C3": [[[(0, 1, 2)]]],
    }),
    ((3, 3, 6, 6), {
        "C2": [[[(0, 1), (2, 3)]]],
    }),
)

# One block of the model family: (pool entry, K type, |H|).  Every block
# holds each slot once, in seeded order, so the mix of A-heavy (large G),
# B-heavy (large G*) and Klein-four models is the same for every seed while
# the diagonal symmetries and the permuted variables are drawn afresh.
MODEL_SLOTS = (
    (0, "1", 4), (0, "1", 16), (0, "1", 64), (0, "C2", 4), (0, "C2", 64),
    (0, "C3", 4), (0, "C3", 64), (0, "V4", 4), (0, "V4", 32),
    (1, "1", 3), (1, "1", 27), (1, "C2", 3), (1, "C3", 3), (1, "C3", 81),
    (1, "V4", 3), (1, "V4", 81),
    (2, "1", 6), (2, "1", 36), (2, "1", 216), (2, "C3", 6), (2, "C3", 54),
    (3, "1", 6), (3, "1", 108), (3, "C2", 6), (3, "C2", 108),
)


def model_case(rng: random.Random, index: int, slot) -> Case:
    """One Fermat model (W, G) for ``slot``: G = j, 0–2 random diagonal
    symmetries, and an even permutation group K of equal-exponent variables.
    Diagonal draws repeat until the diagonal part H has the slot's order."""
    pool, k_type, h_order = slot
    exps, k_options = MODEL_POOL[pool]
    rows = exponent_matrix([Atom(FERMAT, (d,)) for d in exps])
    n_mod, cols = diagonal_columns(rows)
    for _ in range(1000):
        k_gens = [] if k_type == "1" else [
            from_cycles(c, len(rows)) for c in rng.choice(k_options[k_type])]
        diag = _random_diag(rng, n_mod, cols, rng.randrange(3))
        case = _make_case(index, "model", rows, diag, k_gens, k_type, True)
        if case.h_order == h_order:
            return case
    raise ValueError(f"no model found for slot {slot}")


def model_stream(seed: int):
    rng = random.Random(f"model-sweep:{seed}")
    index = 0
    while True:
        slots = list(MODEL_SLOTS)
        rng.shuffle(slots)
        for slot in slots:
            yield model_case(rng, index, slot)
            index += 1


# --- dual-sweep ----------------------------------------------------------------
#
# Many distinct invertible polynomials of 3–5 variables built from Fermat,
# chain and loop atoms.  A template fixes the atom shapes and the even
# symmetry group K it admits; exponents are drawn per request.

DUAL_DET_RANGE = (24, 320)    # bounds on |det A_W|
FRESH_TRIES = 200             # draws before a polynomial may repeat


def _atoms_free(rng):
    """3–5 variables of mixed atoms with no forced symmetry."""
    atoms = []
    n = rng.randint(3, 5)
    while sum(a.size for a in atoms) < n:
        left = n - sum(a.size for a in atoms)
        kind = rng.choice([FERMAT, CHAIN, LOOP] if left >= 2 else [FERMAT])
        size = 1 if kind == FERMAT else rng.randint(2, min(3, left))
        atoms.append(Atom(kind, tuple(rng.randint(2, 5) for _ in range(size))))
    return atoms, [], "1"


def _atoms_loop_rotation(rng):
    """A 3-loop with equal exponents rotated by K = C3 (plus a free atom)."""
    a = rng.randint(2, 6)
    atoms = [Atom(LOOP, (a, a, a))]
    if rng.random() < 0.7:
        atoms.append(Atom(FERMAT, (rng.randint(2, 8),)))
    return atoms, [[(0, 1, 2)]], "C3"


def _atoms_pair_swap(rng):
    """Two identical 2-variable chains or loops swapped by K = C2."""
    kind = rng.choice([CHAIN, LOOP])
    atom = Atom(kind, (rng.randint(2, 4), rng.randint(2, 4)))
    atoms = [atom, atom]
    if rng.random() < 0.5:
        atoms.append(Atom(FERMAT, (rng.randint(2, 3),)))
    return atoms, [[(0, 2), (1, 3)]], "C2"


def _atoms_fermat_cycle(rng):
    """Three identical Fermat atoms cycled by K = C3, plus a 2-variable atom."""
    d = rng.randint(2, 4)
    tail = Atom(rng.choice([CHAIN, LOOP]), (rng.randint(2, 3), rng.randint(2, 3)))
    return [Atom(FERMAT, (d,))] * 3 + [tail], [[(0, 1, 2)]], "C3"


def _atoms_klein(rng):
    """A Klein four-group K (the parity condition fails): four identical
    Fermat atoms, or two identical 2-loops with equal exponents, where K
    is generated by turning both loops and by swapping them."""
    extra = [Atom(FERMAT, (rng.randint(2, 6),))] if rng.random() < 0.7 else []
    if rng.random() < 0.5:
        atoms = [Atom(FERMAT, (rng.randint(2, 4),))] * 4
    else:
        a = rng.randint(2, 4)
        atoms = [Atom(LOOP, (a, a))] * 2
    return atoms + extra, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]], "V4"


# One block of the dual stream: (command, atom template, capped, size band).
# As for the model family, every block holds each slot once in seeded order.
# A request's cost grows with its size: |det A_W| for the requests that scan
# the whole diagonal group (dual-group and the capped ones), |G| for the
# others.  Each slot draws until the size falls in its band, so every seed
# has the same mix of small, medium and large requests and the latency
# percentiles do not hang on a few chance draws.  The capped requests carry
# |G| ≤ cap < |G*|; their correct outcome is exit code 1 with CapExceeded.
DUAL_SLOTS = (
    ("dual-group", _atoms_free, False, (24, 80)),
    ("dual-group", _atoms_free, False, (81, 160)),
    ("dual-group", _atoms_free, False, (161, 320)),
    ("nonabelian-dual", _atoms_free, False, (40, 100)),
    ("nonabelian-dual", _atoms_loop_rotation, False, (180, 300)),
    ("nonabelian-dual", _atoms_pair_swap, False, (8, 30)),
    ("nonabelian-dual", _atoms_fermat_cycle, False, (180, 300)),
    ("nonabelian-dual", _atoms_klein, False, (40, 100)),
    ("pc-check", _atoms_free, False, (8, 30)),
    ("pc-check", _atoms_loop_rotation, False, (40, 100)),
    ("pc-check", _atoms_pair_swap, False, (8, 30)),
    ("pc-check", _atoms_klein, False, (180, 300)),
    ("nonabelian-dual", _atoms_free, True, (24, 100)),
    ("nonabelian-dual", _atoms_loop_rotation, True, (101, 200)),
    ("nonabelian-dual", _atoms_pair_swap, True, (100, 200)),
)


def _shuffle_variables(rng, rows, k_cycles):
    """Relabel variables by a random permutation, carrying K along."""
    n = len(rows)
    order = list(range(n))
    rng.shuffle(order)          # new index of old variable i is order[i]
    new_rows = [None] * n
    for i, row in enumerate(rows):
        new_row = [0] * n
        for j, e in enumerate(row):
            new_row[order[j]] = e
        new_rows[order[i]] = tuple(new_row)
    cycles = [[tuple(order[i] for i in cyc) for cyc in gen] for gen in k_cycles]
    return tuple(new_rows), cycles


def dual_case(rng: random.Random, index: int, slot, seen: set) -> Case:
    """One dual request for ``slot``, of a size within the slot's band, on a
    polynomial not yet used in this stream while the slot's template still
    offers a fresh one."""
    kind, template, capped, (low, high) = slot
    by_det = kind == "dual-group" or capped
    for tries in itertools.count():
        atoms, k_cycles, k_type = template(rng)
        if not 3 <= sum(a.size for a in atoms) <= 5:
            continue
        det = 1
        for a in atoms:
            det *= a.det()
        if not DUAL_DET_RANGE[0] <= det <= DUAL_DET_RANGE[1]:
            continue
        if by_det and not low <= det <= high:
            continue
        rows, k_cycles = _shuffle_variables(rng, exponent_matrix(atoms), k_cycles)
        if rows in seen and tries < FRESH_TRIES:
            continue
        n = len(rows)
        n_mod, cols = diagonal_columns(rows)
        k_gens = [from_cycles(c, n) for c in k_cycles]
        with_j = capped or rng.random() < 0.75
        diag = [] if capped else _random_diag(rng, n_mod, cols, rng.randrange(2))
        if not (with_j or diag or k_gens):
            with_j = True       # a spec needs at least one generator
        case = _make_case(index, kind, rows, diag, k_gens, k_type, with_j)
        if not (by_det or low <= case.g_order <= high):
            continue
        case.extra["band"] = (low, high)
        if capped:
            if case.star_order <= case.g_order:
                continue
            case.cap = rng.randint(case.g_order, case.star_order - 1)
            case.spec += f"cap = {case.cap}\n"
        seen.add(rows)
        return case


def dual_stream(seed: int):
    rng = random.Random(f"dual-sweep:{seed}")
    seen: set = set()
    index = 0
    while True:
        slots = list(DUAL_SLOTS)
        rng.shuffle(slots)
        for slot in slots:
            yield dual_case(rng, index, slot, seen)
            index += 1
