"""Exact integer elimination for exponent matrices.

Everything the library needs from A_W⁻¹ (the weights of W and Wᵀ, the dual
lattice map A_W⁻ᵀ and so G^diag_W) is read off det A_W and the integer
adjugate adj A_W = det A_W · A_W⁻¹: one fraction-free elimination per W.
A diagonal group is a lattice mod M, read off its Hermite normal form.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import SingularMatrixError


def adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det A, adj A) for a square integer matrix; SingularMatrixError when
    A is singular or not square.

    Row reduces [A | I] so that every entry stays a minor of it: a step
    with pivot p after pivot p' sets x ← (p·x − a·b)/p', an exact division.
    It ends at [d·I | d·(PA)⁻¹·P] with d = det(PA) = ±det A for the row
    permutation P, and d·(PA)⁻¹·P = d·A⁻¹.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise SingularMatrixError("system is not square")
    rows = [[int(v) for v in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(matrix)]
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top = rows[col]
        p = top[col]
        for r in range(n):
            if r != col:
                a = rows[r][col]
                rows[r] = [(p * x - a * b) // prev for x, b in zip(rows[r], top)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in rows]


def hermite(rows: Sequence[Sequence[int]], mod: int) -> list[tuple[int, ...]]:
    """Upper-triangular Hermite normal form of the lattice the rows and
    mod·ℤⁿ span (Cohen §2.4.2), fully reduced, so one lattice has one
    basis: row i is zero left of column i, its pivot divides ``mod``, and
    its entry in each later column j lies in [0, h_jj).  Unimodular Euclid
    steps against a pivot that starts at mod·e_i zero column i in every
    other row; then each row is reduced by the rows below it."""
    n = len(rows[0])
    pool, basis = [[x % mod for x in row] for row in rows], []
    for i in range(n):
        pivot = [mod * (i == j) for j in range(n)]
        for k, v in enumerate(pool):
            while v[i]:  # a row is reduced again only when it changes
                q = pivot[i] // v[i]
                pivot, v = v, [a - q * b for a, b in zip(pivot, v)]
                pool[k] = [x % mod for x in v]
        basis.append(pivot[:i + 1] + [x % mod for x in pivot[i + 1:]])
    return [reduce_by(row, basis, mod, i + 1) for i, row in enumerate(basis)]


def reduce_by(vector: Sequence[int], basis: Sequence[Sequence[int]], mod: int,
              first: int = 0) -> tuple[int, ...]:
    """The least member of vector + the span of ``basis``'s rows from
    ``first`` on, for an upper-triangular basis with pivots dividing
    ``mod``: coordinate i, in order, is taken down to its residue mod h_ii
    by row i, which leaves the coordinates before it alone."""
    v = tuple(vector)
    for i in range(first, len(basis)):
        q = v[i] // basis[i][i]
        if q:
            v = tuple([(x - q * y) % mod for x, y in zip(v, basis[i])])
    return v
