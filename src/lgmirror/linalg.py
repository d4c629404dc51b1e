"""Exact integer elimination for exponent matrices.

Everything the library needs from A_W⁻¹ (the weights, the generators of
G^diag_W, the dual lattice map A_W⁻ᵀ) is read off det A_W and the integer
adjugate adj A_W = det A_W · A_W⁻¹, found by one fraction-free elimination.
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
