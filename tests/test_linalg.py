"""Differential test of the integer adjugate against Fraction elimination.

``adjugate`` is a fraction-free Gauss-Jordan elimination on integers; the
oracle inverts and takes determinants over the rationals, so det and
adj = det·A⁻¹ must agree exactly, and both must find the same matrices
singular.
"""

import random

import pytest

from lgmirror.errors import SingularMatrixError
from lgmirror.linalg import adjugate
from oracles import determinant, matrix_inverse


def random_matrix(rng, n):
    """Sparse-ish integer entries in −9..9, so zero pivots, row swaps and
    singular matrices all turn up."""
    return [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
            for _ in range(n)]


def test_adjugate_matches_fraction_elimination():
    rng = random.Random(1968)
    singular = swapped = 0
    for _ in range(1000):
        n = rng.randint(1, 7)
        matrix = random_matrix(rng, n)
        det = determinant(matrix)
        if det == 0:
            singular += 1
            assert matrix_inverse(matrix) is None
            with pytest.raises(SingularMatrixError, match="singular"):
                adjugate(matrix)
            continue
        swapped += matrix[0][0] == 0
        got_det, adj = adjugate(matrix)
        assert got_det == det
        assert adj == [[x * det for x in row] for row in matrix_inverse(matrix)]
    # the seed covers both kinds of matrix and pivots found below the top row
    assert singular >= 100 and swapped >= 100


def test_adjugate_of_exponent_matrices():
    # x1^2*x2 + x2^3*x3 + x3^4 (a chain): det 24, weights adj·1/det
    det, adj = adjugate([[2, 1, 0], [0, 3, 1], [0, 0, 4]])
    assert det == 24
    assert [sum(row) for row in adj] == [9, 6, 6]
    # the only pivot sits below the top row: one swap, so det is −1
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])


def test_non_square_is_rejected():
    with pytest.raises(SingularMatrixError, match="not square"):
        adjugate([[1, 2, 3], [4, 5, 6]])
