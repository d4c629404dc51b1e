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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class AtomicBlock:
    """One atom of the Thom-Sebastiani decomposition.

    ``variables`` lists 0-based variable indices in block order (along the
    chain, or around the loop starting from its smallest index);
    ``exponents[k]`` is the exponent of ``variables[k]`` in its own monomial.
    """

    kind: str
    variables: tuple[int, ...]
    exponents: tuple[int, ...]


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
    indeg = {j: 0 for j in range(n)}
    for t in tail_of.values():
        if t is not None:
            indeg[t] += 1
            if indeg[t] > 1:
                raise NotInvertibleError(f"variable x{t + 1} trails two monomials")

    blocks = []
    seen: set[int] = set()
    # paths: start anywhere nothing points to, follow tails to the end
    for start in range(n):
        if indeg[start] == 0 and start not in seen:
            path = [start]
            seen.add(start)
            while tail_of[path[-1]] is not None:
                path.append(tail_of[path[-1]])  # type: ignore[arg-type]
                seen.add(path[-1])
            kind = FERMAT if len(path) == 1 else CHAIN
            blocks.append(AtomicBlock(kind, tuple(path),
                                      tuple(head_exp[v] for v in path)))
    # whatever is left lies on cycles
    for start in range(n):
        if start not in seen:
            cycle = [start]
            seen.add(start)
            nxt = tail_of[start]
            while nxt != start:
                cycle.append(nxt)  # type: ignore[arg-type]
                seen.add(nxt)  # type: ignore[arg-type]
                nxt = tail_of[nxt]  # type: ignore[index]
            blocks.append(AtomicBlock(LOOP, tuple(cycle),
                                      tuple(head_exp[v] for v in cycle)))
    blocks.sort(key=lambda b: b.variables[0])
    return tuple(blocks)


@dataclass(frozen=True)
class InvertiblePolynomial:
    """A validated invertible polynomial with exact weights."""

    exponents: Matrix  # alone in the hash: the weights follow from it
    weights: tuple[Fraction, ...] = field(hash=False, compare=False)
    var_names: tuple[str, ...] = field(hash=False)

    @classmethod
    def from_exponents(cls, rows, var_names=None) -> "InvertiblePolynomial":
        exponents = tuple(tuple(int(e) for e in row) for row in rows)
        n = len(exponents)
        if any(len(row) != n for row in exponents):
            raise NotSquareError("exponent matrix must be square")
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
        if not self.is_fermat:
            raise NotFermatError(f"{self} is not of pure Fermat type")
        # each column holds its variable's exponent and zeros
        return tuple(max(col) for col in zip(*self.exponents))

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

_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|([+*^]))")


def parse_digits(digits: str, offset: int) -> int:
    """int(digits); ParseError at ``offset`` past Python's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", offset) from None


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


def parse_polynomial(text: str) -> InvertiblePolynomial:
    """Parse ``x1^4 + x2^4`` style text into a validated polynomial.

    Grammar: poly := term ('+' term)*, term := factor ('*' factor)*,
    factor := var ('^' posint)?, var := 'x' posint.  Monomial rows are
    ordered by first occurrence; N is the largest variable index and every
    index 1..N must appear.
    """
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
