"""Invertible quasihomogeneous polynomials via their exponent matrices.

A polynomial W = Σ_i Π_j x_j^{a_ij} with as many monomials as variables is
stored as its square exponent matrix A_W = (a_ij) (row i = monomial i).
Coefficients are always normalized to 1; they can be scaled away and play no
role in anything computed here.

The weights q solve A_W·q = (1,…,1)ᵀ exactly.  Validity means: A_W is
non-singular, every q_i lies in (0, 1/2], and the variables split into
Fermat / chain / loop atoms (x^a, x₁^{a₁}x₂+…+x_N^{a_N},
x₁^{a₁}x₂+…+x_N^{a_N}x₁ with all a_i ≥ 2).  Weight 1/2 sits on the boundary
of the usual open range; it is accepted and flagged because chain tails
genuinely produce it.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

from . import linalg
from .errors import (
    DuplicateVariableError,
    NotFermatError,
    NotInvertibleError,
    NotSquareError,
    ParseError,
    WeightOutOfRangeError,
)

Matrix = tuple[tuple[int, ...], ...]

FERMAT = "fermat"
CHAIN = "chain"
LOOP = "loop"


class AtomicBlock(namedtuple("AtomicBlock", "kind variables exponents")):
    """One atom of the Thom-Sebastiani decomposition.

    ``variables`` lists 0-based variable indices in block order (along the
    chain, or around the loop starting from its smallest index);
    ``exponents[k]`` is the exponent of ``variables[k]`` in its own monomial.
    """

    __slots__ = ()


def compute_weights(exponents) -> tuple[Fraction, ...]:
    """Unique rational weights with A_W·q = 1ᵀ, each in (0, 1/2]."""
    n = len(exponents)
    if any(len(row) != n for row in exponents):
        raise NotSquareError("exponent matrix must be square")
    det, adj = linalg.adjugate(exponents)
    weights = [Fraction(sum(row), det) for row in adj]
    for i, q in enumerate(weights):
        if not 0 < q <= Fraction(1, 2):
            raise WeightOutOfRangeError(
                f"weight q_{i + 1} = {q} outside (0, 1/2]; polynomial is degenerate")
    return tuple(weights)


@lru_cache(maxsize=None)
def classify_atoms(exponents: Matrix) -> tuple[AtomicBlock, ...]:
    """Partition the variables into Fermat / chain / loop atoms.

    Each monomial must be x_h^a (a ≥ 2) or x_h^a·x_t (a ≥ 2, t ≠ h), each
    variable must head exactly one monomial and trail at most one; the
    resulting head→tail graph must consist of simple paths and cycles.
    Raises NotInvertibleError when no such decomposition exists.  Results
    are cached per exponent matrix, given as a tuple of row tuples.
    """
    n = len(exponents)
    head_exp: dict[int, int] = {}
    tail_of: dict[int, int | None] = {}
    for row in exponents:
        nz = [(j, e) for j, e in enumerate(row) if e != 0]
        if len(nz) == 1:
            (h, e), t = nz[0], None
        elif len(nz) == 2:
            (j1, e1), (j2, e2) = nz
            if e1 >= 2 and e2 == 1:
                h, e, t = j1, e1, j2
            elif e2 >= 2 and e1 == 1:
                h, e, t = j2, e2, j1
            else:
                raise NotInvertibleError(f"monomial {row} is not of atomic shape")
        else:
            raise NotInvertibleError(
                f"monomial {row} involves {len(nz)} variables; atoms involve at most 2")
        if e < 2:
            raise NotInvertibleError(f"monomial {row} has leading exponent {e} < 2")
        if h in head_exp:
            raise NotInvertibleError(f"variable x{h + 1} heads two monomials")
        head_exp[h] = e
        tail_of[h] = t
    if len(head_exp) != n:
        raise NotInvertibleError("some variable heads no monomial")
    trailed: set[int] = set()
    for t in tail_of.values():
        if t is not None:
            if t in trailed:
                raise NotInvertibleError(f"variable x{t + 1} trails two monomials")
            trailed.add(t)

    # paths start where nothing points; once they are walked, whatever is
    # left lies on cycles, and a cycle is walked from its least index
    blocks = []
    seen: set[int] = set()
    for start in sorted(range(n), key=trailed.__contains__):
        if start in seen:
            continue
        walk, nxt = [start], tail_of[start]
        while nxt is not None and nxt != start:
            walk.append(nxt)
            nxt = tail_of[nxt]
        seen.update(walk)
        kind = LOOP if nxt == start else FERMAT if len(walk) == 1 else CHAIN
        blocks.append(AtomicBlock(kind, tuple(walk), tuple(head_exp[v] for v in walk)))
    blocks.sort(key=lambda b: b.variables[0])
    return tuple(blocks)


class InvertiblePolynomial:
    """A validated, immutable invertible polynomial with exact weights: equal
    when exponents and variable names are, hashed by the exponents alone."""

    def __init__(self, exponents: Matrix, weights: tuple[Fraction, ...], var_names):
        self.__dict__.update(exponents=exponents, weights=weights, var_names=var_names)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"InvertiblePolynomial is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents and self.var_names == other.var_names

    def __hash__(self) -> int:
        return hash((self.exponents,))

    def __repr__(self) -> str:
        return f"InvertiblePolynomial({str(self)!r})"

    @classmethod
    def from_exponents(cls, rows, var_names=None) -> "InvertiblePolynomial":
        exponents = tuple(tuple(int(e) for e in row) for row in rows)
        n = len(exponents)
        weights = compute_weights(exponents)
        classify_atoms(exponents)
        if var_names is None:
            var_names = tuple(f"x{i + 1}" for i in range(n))
        else:
            var_names = tuple(var_names)
            if len(var_names) != n:
                raise NotSquareError("need one name per variable")
        return cls(exponents, weights, var_names)

    @property
    def n_vars(self) -> int:
        return len(self.exponents)

    def atoms(self) -> tuple[AtomicBlock, ...]:
        return classify_atoms(self.exponents)

    @property
    def is_fermat(self) -> bool:
        return all(b.kind == FERMAT for b in self.atoms())

    def fermat_exponents(self) -> tuple[int, ...]:
        """Per-variable exponent d_i for a pure Fermat polynomial."""
        if self._fermat_exponents is None:
            raise NotFermatError(f"{self} is not of pure Fermat type")
        return self._fermat_exponents

    @cached_property
    def _fermat_exponents(self) -> tuple[int, ...] | None:
        """Each column's one nonzero entry, or None unless pure Fermat."""
        return tuple(map(max, zip(*self.exponents))) if self.is_fermat else None

    @cached_property
    def weight_sum(self) -> Fraction:
        """Σ q_i, the age of the grading element j_W."""
        return sum(self.weights, Fraction(0))

    @property
    def has_boundary_weight(self) -> bool:
        """True when some q_i = 1/2 (accepted, but on the range boundary)."""
        return any(q == Fraction(1, 2) for q in self.weights)

    def transpose(self) -> "InvertiblePolynomial":
        rows = tuple(zip(*self.exponents))
        return InvertiblePolynomial.from_exponents(rows, self.var_names)

    def __str__(self) -> str:
        terms = []
        for row in self.exponents:
            factors = []
            for j, e in enumerate(row):
                if e == 1:
                    factors.append(self.var_names[j])
                elif e > 1:
                    factors.append(f"{self.var_names[j]}^{e}")
            terms.append("*".join(factors))
        return " + ".join(terms)


_NAMES_LISTED = 100  # missing variables named in a ParseError, at most

_TOKEN = re.compile(r"(?P<var>x\d+)|(?P<int>\d+)|(?P<op>[+*^])|(?P<bad>\S)", re.ASCII)

# per state, the error for a token it has no move for, and its moves.  A
# factor ends at any token after it but the '^' of its exponent, so a
# repeated variable is reported before a grammar error.
_VAR, _AFTER_VAR, _EXPONENT, _AFTER_EXPONENT = range(4)
_MOVES = (
    ("expected var", {"var": _AFTER_VAR}),
    ("trailing input", {"^": _EXPONENT, "*": _VAR, "+": _VAR, "end": _VAR}),
    ("expected int", {"int": _AFTER_EXPONENT}),
    ("trailing input", {"*": _VAR, "+": _VAR, "end": _VAR}),
)


def parse_digits(digits: str, offset: int) -> int:
    """int(digits); ParseError at ``offset`` past Python's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", offset) from None


def parse_polynomial(text: str) -> InvertiblePolynomial:
    """Parse ``x1^4 + x2^4`` style text into a validated polynomial.

    Grammar: poly := term ('+' term)*, term := factor ('*' factor)*,
    factor := var ('^' posint)?, var := 'x' posint, posint := [0-9]+, with
    ASCII whitespace between tokens; any other character is an error, found
    before any error of the grammar.  Monomial rows are ordered by first
    occurrence; N is the largest variable index and every index 1..N must
    appear.
    """
    tokens = [(m["op"] or m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise ParseError("empty polynomial", 0)
    for kind, value, offset in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", offset)
    terms: list[dict[int, int]] = []
    term: dict[int, int] = {}
    state = _VAR
    for kind, value, offset in tokens + [("end", "", len(text))]:
        error, moves = _MOVES[state]
        if state in (_AFTER_VAR, _AFTER_EXPONENT) and moves.get(kind) != _EXPONENT:
            if index in term:
                raise DuplicateVariableError(
                    f"variable x{index + 1} repeated in one monomial", var_offset)
            term[index] = exponent
            if kind != "*":
                terms.append(term)
                term = {}
        if kind not in moves:
            raise ParseError(error, offset)
        state = moves[kind]
        if kind == "var":
            index, var_offset, exponent = parse_digits(value[1:], offset) - 1, offset, 1
            if index < 0:
                raise ParseError("variable indices start at 1", offset)
        elif kind == "int":
            exponent = parse_digits(value, offset)
            if exponent == 0:
                raise ParseError("exponents must be positive", offset)
    used = sorted({i for term in terms for i in term})
    n = used[-1] + 1
    if len(used) < n:
        # the gaps between used indices, without listing every index below n
        gaps = (i for a, b in zip([-1] + used, used) for i in range(a + 1, b))
        names = [f"x{i + 1}" for i in islice(gaps, _NAMES_LISTED)]
        more = n - len(used) - len(names)
        tail = f" and {more} more" if more else ""
        raise ParseError(f"variables {', '.join(names)}{tail} never appear", 0)
    if len(terms) != n:
        raise NotSquareError(
            f"{len(terms)} monomials but {n} variables; invertible polynomials need equal counts")
    rows = [tuple(term.get(j, 0) for j in range(n)) for term in terms]
    return InvertiblePolynomial.from_exponents(rows)
