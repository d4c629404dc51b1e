import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lgmirror as lg
from lgmirror import cli, polynomial
from lgmirror.errors import (
    DuplicateVariableError,
    NotInvertibleError,
    NotSquareError,
    ParseError,
    SingularMatrixError,
    WeightOutOfRangeError,
)
from oracles import (
    determinant,
    matrix_inverse,
    outcome,
    random_chain_or_loop,
    reference_parse_polynomial,
)


QUARTIC = "x1^4 + x2^4 + x3^4 + x4^4"
CHAIN = "x1^3*x2 + x2^2*x3 + x3^2"
LOOP = "x1^2*x2 + x2^2*x3 + x3^2*x1"


def test_weights_fermat_quartic():
    assert lg.compute_weights(((4, 0, 0, 0), (0, 4, 0, 0),
                               (0, 0, 4, 0), (0, 0, 0, 4))) == (F(1, 4),) * 4


def test_weights_chain_has_boundary_value():
    poly = lg.parse_polynomial(CHAIN)
    assert poly.weights == (F(1, 4), F(1, 4), F(1, 2))
    assert poly.has_boundary_weight


def test_weights_loop():
    assert lg.parse_polynomial(LOOP).weights == (F(1, 3),) * 3


def test_weights_singular_matrix():
    with pytest.raises(SingularMatrixError):
        lg.compute_weights(((2, 0), (2, 0)))


def test_weights_out_of_range():
    # q_1 = 1 > 1/2
    with pytest.raises(WeightOutOfRangeError):
        lg.compute_weights(((1, 0), (0, 2)))


def test_classify_fermat():
    poly = lg.parse_polynomial(QUARTIC)
    atoms = poly.atoms()
    assert [a.kind for a in atoms] == ["fermat"] * 4
    assert poly.is_fermat
    assert poly.fermat_exponents() == (4, 4, 4, 4)


def test_classify_chain():
    atoms = lg.classify_atoms(((3, 1, 0), (0, 2, 1), (0, 0, 2)))
    assert atoms == (lg.AtomicBlock("chain", (0, 1, 2), (3, 2, 2)),)


def test_classify_loop():
    atoms = lg.classify_atoms(((2, 1, 0), (0, 2, 1), (1, 0, 2)))
    assert atoms == (lg.AtomicBlock("loop", (0, 1, 2), (2, 2, 2)),)


def test_classify_mixed_sum():
    poly = lg.parse_polynomial("x1^4 + x2^3*x3 + x3^2")
    kinds = [a.kind for a in poly.atoms()]
    assert kinds == ["fermat", "chain"]
    assert not poly.is_fermat
    with pytest.raises(lg.NotFermatError):
        poly.fermat_exponents()


def test_classify_rejects_three_variable_monomial():
    with pytest.raises(NotInvertibleError):
        lg.classify_atoms(((2, 1, 1), (0, 2, 0), (0, 0, 2)))


def test_classify_rejects_quadratic_cross_term():
    with pytest.raises(NotInvertibleError):
        lg.classify_atoms(((1, 1), (0, 2)))


def random_atom_sum(rng):
    """(rows, blocks): a sum of random Fermat, chain and loop atoms on
    shuffled variables, its monomials shuffled, and the blocks it was built
    from as ``classify_atoms`` orders them."""
    kinds = [rng.choice(["fermat", "chain", "loop"]) for _ in range(rng.randint(1, 4))]
    lengths = [1 if kind == "fermat" else rng.randint(2, 4) for kind in kinds]
    labels = list(range(sum(lengths)))
    rng.shuffle(labels)
    rows, blocks = [], []
    for kind, length in zip(kinds, lengths):
        variables, labels = labels[:length], labels[length:]
        exponents = [rng.randint(2, 6) for _ in variables]
        for k, (v, a) in enumerate(zip(variables, exponents)):
            row = [0] * sum(lengths)
            rows.append(row)
            row[v] = a
            if kind == "chain" and k + 1 < length or kind == "loop":
                row[variables[(k + 1) % length]] = 1
        if kind == "loop":  # a loop is read from its least variable
            k = variables.index(min(variables))
            variables = variables[k:] + variables[:k]
            exponents = exponents[k:] + exponents[:k]
        blocks.append(lg.AtomicBlock(kind, tuple(variables), tuple(exponents)))
    rng.shuffle(rows)
    return tuple(map(tuple, rows)), tuple(sorted(blocks, key=lambda b: b.variables[0]))


def test_classify_matches_random_atom_sums():
    rng = random.Random(4242)
    for _ in range(500):
        rows, blocks = random_atom_sum(rng)
        assert lg.classify_atoms(rows) == blocks


def test_classify_rejects_malformed_rows():
    # one or two monomials of a random atom sum of three or more variables
    # are replaced; row i heads x_{h+1}, and t is some other variable
    rng = random.Random(4343)
    for case in range(200):
        rows = []
        while len(rows) < 3:
            rows = [list(row) for row in random_atom_sum(rng)[0]]
        n = len(rows)
        i, j = rng.sample(range(n), 2)
        h = rows[i].index(max(rows[i]))
        t, u = rng.sample([v for v in range(n) if v != h], 2)
        if case % 4 == 0:
            rows[i] = [2 * (v == h) + (v in (t, u)) for v in range(n)]
            match = "involves 3 variables"
        elif case % 4 == 1:
            a, b = rng.choice([(1, 1), (2, 2), (3, 2)])
            rows[i] = [a * (v == h) + b * (v == t) for v in range(n)]
            match = "is not of atomic shape"
        elif case % 4 == 2:
            rows[j] = list(rows[i])
            match = f"variable x{h + 1} heads two monomials"
        else:
            g = rows[j].index(max(rows[j]))
            t = rng.choice([v for v in range(n) if v not in (h, g)])
            for k, head in ((i, h), (j, g)):
                rows[k] = [rows[k][head] * (v == head) + (v == t) for v in range(n)]
            match = f"variable x{t + 1} trails two monomials"
        with pytest.raises(NotInvertibleError, match=match):
            lg.classify_atoms(tuple(map(tuple, rows)))


def test_transpose_fermat_is_self():
    poly = lg.parse_polynomial(QUARTIC)
    assert poly.transpose() == poly


def test_equality_ignores_weights_but_not_names():
    poly = lg.parse_polynomial(CHAIN)
    same = lg.InvertiblePolynomial(poly.exponents, (F(0),) * 3, poly.var_names)
    assert same == poly and hash(same) == hash(poly)
    renamed = lg.InvertiblePolynomial.from_exponents(poly.exponents, ("y1", "y2", "y3"))
    assert renamed != poly


def test_transpose_chain():
    dual = lg.parse_polynomial(CHAIN).transpose()
    assert str(dual) == "x1^3 + x1*x2^2 + x2*x3^2"
    assert dual.weights == (F(1, 3),) * 3


def test_parse_row_order_and_matrix():
    poly = lg.parse_polynomial(CHAIN)
    assert poly.exponents == ((3, 1, 0), (0, 2, 1), (0, 0, 2))


def test_parse_whitespace_insensitive():
    assert lg.parse_polynomial("x1 ^ 4+x2^4 + x3 ^4 +  x4^4").exponents == \
        lg.parse_polynomial(QUARTIC).exponents


def test_parse_missing_variable():
    with pytest.raises(ParseError, match=r"^variables x2 never appear \(at byte 0\)$"):
        lg.parse_polynomial("x1^2 + x3^2")
    with pytest.raises(ParseError, match=r"^variables x1, x3, x4 never appear "):
        lg.parse_polynomial("x2^2 + x5^2")


@pytest.mark.parametrize("index", [30_000_000, 10 ** 12])
def test_parse_huge_variable_index_fails_fast(index):
    # the missing variables are the gaps between used indices; none of the
    # indices below the largest is listed, and the message stays short
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"x100 and {index - 101} more never appear"):
        lg.parse_polynomial(f"x{index}")
    assert time.perf_counter() - start < 1.0


def test_parse_duplicate_variable_in_monomial():
    with pytest.raises(DuplicateVariableError):
        lg.parse_polynomial("x1^2*x1 + x2^3")


def test_parse_not_square():
    with pytest.raises(NotSquareError):
        lg.parse_polynomial("x1^4 + x2^4 + x1^2*x2^2")


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as info:
        lg.parse_polynomial("x1^4 + ?")
    assert info.value.offset == 7


def test_parse_rejects_zero_exponent():
    with pytest.raises(ParseError):
        lg.parse_polynomial("x1^0 + x2^2")


# pieces of W text, valid and not, and whitespace; joined at random they make
# every error of the grammar and, now and then, a polynomial
_W_PIECES = ["x1", "x2", "x3", "x0", "x", "x12", "1", "2", "4", "0", "07",
             "^", "*", "+", " ", "  ", "\t", "?", "y", "-", "(", "x1^2", "x2^3 + ",
             "x1*x1", "x2^2*x2", "x1*x1^2", "^2"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_W_PIECES), max_size=12).map("".join))
@example("x1*x1^2^2")  # the repeat is reported before the stray '^'
def test_parse_matches_the_reference_parser(text):
    # the same exponent matrix, or the same error type, message and offset
    assert outcome(lg.parse_polynomial, text) == outcome(reference_parse_polynomial, text)


# --- randomized Thom-Sebastiani sums ----------------------------------------

_block = st.one_of(
    st.tuples(st.just("fermat"), st.lists(st.integers(2, 9), min_size=1, max_size=1)),
    st.tuples(st.just("chain"), st.lists(st.integers(2, 9), min_size=1, max_size=4)),
    st.tuples(st.just("loop"), st.lists(st.integers(2, 9), min_size=2, max_size=4)),
)


def _assemble(blocks, seed):
    """Exponent matrix of a Thom-Sebastiani sum, rows in shuffled order."""
    rows = []
    expected = []
    start = 0
    for kind, exps in blocks:
        size = len(exps)
        if kind == "chain" and size == 1:
            kind = "fermat"  # a length-one chain is a plain power
        variables = tuple(range(start, start + size))
        expected.append(lg.AtomicBlock(kind, variables, tuple(exps)))
        start += size
    n = start
    for kind, exps, variables in ((b.kind, b.exponents, b.variables)
                                  for b in expected):
        for k, (v, a) in enumerate(zip(variables, exps)):
            row = [0] * n
            row[v] = a
            if kind == "chain" and k + 1 < len(variables):
                row[variables[k + 1]] = 1
            if kind == "loop":
                row[variables[(k + 1) % len(variables)]] = 1
            rows.append(tuple(row))
    random.Random(seed).shuffle(rows)
    return tuple(rows), tuple(expected)


@settings(max_examples=120, deadline=None)
@given(st.lists(_block, min_size=1, max_size=4), st.integers(0, 2 ** 16))
def test_random_sum_weights_atoms_transpose(blocks, seed):
    total = sum(len(exps) for _, exps in blocks)
    if total > 8:
        blocks = blocks[:1]
    rows, expected = _assemble(blocks, seed)
    poly = lg.InvertiblePolynomial.from_exponents(rows)
    # exact quasihomogeneity
    for row in poly.exponents:
        assert sum(e * q for e, q in zip(row, poly.weights)) == 1
    assert poly.atoms() == expected
    assert poly.transpose().transpose() == poly
    # a valid polynomial parses back to itself (up to its own row order)
    again = lg.parse_polynomial(str(poly))
    assert again == poly


@settings(max_examples=60, deadline=None)
@given(st.lists(_block, min_size=1, max_size=3), st.integers(0, 2 ** 16))
def test_random_sum_classification_matches_parse(blocks, seed):
    total = sum(len(exps) for _, exps in blocks)
    if total > 8:
        blocks = blocks[:1]
    rows, _ = _assemble(blocks, seed)
    poly = lg.InvertiblePolynomial.from_exponents(rows)
    reparsed = lg.parse_polynomial(str(poly))
    assert reparsed.atoms() == poly.atoms()
    # Fermat type is exactly the diagonal-matrix case
    diagonal = all(sum(1 for e in row if e) == 1 for row in poly.exponents)
    assert poly.is_fermat == diagonal


# --- one elimination per polynomial ------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def solves(monkeypatch):
    """Every matrix handed to ``linalg.adjugate`` through polynomial's binding."""
    seen, adjugate = [], polynomial.linalg.adjugate

    def counted(matrix):
        seen.append(matrix)
        return adjugate(matrix)

    monkeypatch.setattr(polynomial.linalg, "adjugate", counted)
    return seen


SOLVE_CASES = [(spec, command) for spec in ("quartic", "chain", "loop")
               for command in cli.COMMANDS]


@pytest.mark.parametrize("spec,command", SOLVE_CASES,
                         ids=[f"{spec}-{command}" for spec, command in SOLVE_CASES])
def test_every_command_solves_a_w_once(spec, command, solves, capsys):
    # parsing W solves A_W; Wᵀ, |det A_W| and the dual map reuse that solve
    for flags in ((), ("--json",)):
        solves.clear()
        cli.main([command, str(GOLDEN / f"{spec}.lg"), *flags])
        assert len(solves) == 1, flags


def test_a_built_polynomial_is_not_solved_again(solves):
    quartic, chain, loop = map(lg.parse_polynomial, (QUARTIC, CHAIN, LOOP))
    group = lg.closure([lg.exponential_grading(quartic),
                        lg.MonomialSymmetry.from_cycles([(0, 1, 2)], 4)])
    solves.clear()
    for poly in (quartic, chain, loop):
        assert poly.transpose().transpose() == poly
        lg.diagonal_group(poly)
    lg.full_comparison(quartic, group)
    lg.nonabelian_dual(group, quartic)
    assert solves == []


def test_a_constructed_polynomial_solves_once_when_asked(solves):
    parsed = lg.parse_polynomial(CHAIN)
    built = lg.InvertiblePolynomial(parsed.exponents, parsed.weights, parsed.var_names)
    solves.clear()
    assert built.adjugate == parsed.adjugate
    assert built.transpose().adjugate == parsed.transpose().adjugate
    assert built.adjugate is built.adjugate and len(solves) == 1


def test_from_exponents_errors_keep_their_order():
    # each matrix comes with too few names, an error that only a sound matrix reaches
    cases = [(((2, 0, 0), (0, 2)), NotSquareError, "exponent matrix must be square"),
             (((2, 0), (2, 0)), SingularMatrixError, "singular"),
             (((1, 0), (0, 2)), WeightOutOfRangeError,
              r"^weight q_1 = 1 outside \(0, 1/2\]; polynomial is degenerate$"),
             (((2, 1, 1), (0, 4, 0), (0, 0, 4)), NotSquareError, "one name per variable")]
    for rows, error, match in cases:
        with pytest.raises(error, match=match):
            lg.InvertiblePolynomial.from_exponents(rows, ("y1",))
    with pytest.raises(NotInvertibleError, match="involves 3 variables"):
        lg.InvertiblePolynomial.from_exponents(((2, 1, 1), (0, 4, 0), (0, 0, 4)))


def assert_transpose_matches_a_fresh_solve(poly):
    dual = poly.transpose()
    fresh = lg.InvertiblePolynomial.from_exponents(zip(*poly.exponents), poly.var_names)
    assert (dual.exponents, dual.var_names, dual.weights, dual.atoms(), dual.adjugate) == \
        (fresh.exponents, fresh.var_names, fresh.weights, fresh.atoms(), fresh.adjugate)
    again = dual.transpose()
    assert again == poly
    assert (again.weights, again.atoms(), again.adjugate) == \
        (poly.weights, poly.atoms(), poly.adjugate)
    # the kept solve is det A_W and det A_W·A_W⁻¹ by Fraction elimination
    det, adj = poly.adjugate
    assert det == determinant(poly.exponents)
    assert [list(row) for row in adj] == \
        [[det * x for x in row] for row in matrix_inverse(poly.exponents)]


def test_transpose_matches_a_fresh_solve():
    # the chains and loops of test_dual_lattice.py: A_W is never symmetric
    rng = random.Random(4242)
    polys = [random_chain_or_loop(rng) for _ in range(8)]
    assert all(poly.exponents != poly.transpose().exponents for poly in polys)
    rng = random.Random(1906)
    kinds = {"fermat": (1, 1), "chain": (2, 4), "loop": (2, 4)}
    for _ in range(200):
        blocks = []
        for kind in rng.choices(list(kinds), k=rng.randint(1, 3)):
            size = rng.randint(*kinds[kind])
            blocks.append((kind, [rng.randint(2, 9) for _ in range(size)]))
        while sum(len(exps) for _, exps in blocks) > 8:
            blocks.pop()
        rows, _ = _assemble(blocks, rng.randrange(2 ** 16))
        names = None if rng.random() < 0.5 else [f"y{i}" for i in range(len(rows))]
        polys.append(lg.InvertiblePolynomial.from_exponents(rows, names))
    assert sum(poly.exponents != poly.transpose().exponents for poly in polys) > 150
    for poly in polys:
        assert_transpose_matches_a_fresh_solve(poly)
