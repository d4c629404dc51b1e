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


def hermite(rows: Sequence[Sequence[int]], mod: int) -> list[list[int]]:
    """Upper-triangular Hermite normal form of the lattice the rows and
    mod·ℤⁿ span (Cohen §2.4.2), reduced mod ``mod``: row i is zero left of
    column i and its pivot divides ``mod``.  Unimodular Euclid steps against
    a pivot that starts at mod·e_i zero column i in every other row."""
    n = len(rows[0])
    pool, basis = [[x % mod for x in row] for row in rows], []
    for i in range(n):
        pivot = [mod * (i == j) for j in range(n)]
        for k, v in enumerate(pool):
            while v[i]:
                q = pivot[i] // v[i]
                pivot, v = v, [a - q * b for a, b in zip(pivot, v)]
            pool[k] = [x % mod for x in v]
        basis.append(pivot[:i + 1] + [x % mod for x in pivot[i + 1:]])
    return basis
