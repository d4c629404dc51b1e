import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import lgmirror as lg
from lgmirror.errors import (
    DuplicateVariableError,
    NotInvertibleError,
    NotSquareError,
    ParseError,
    SingularMatrixError,
    WeightOutOfRangeError,
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
