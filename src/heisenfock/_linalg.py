"""``determinant``: the exact determinant of a small square matrix.

Works for ``fractions.Fraction`` and for :class:`~heisenfock.scalars.Scalar`;
entries only need +, -, *, / and truthiness.  Sizes here are single digits,
so plain Gaussian elimination is plenty.
"""

from __future__ import annotations

from typing import List, Sequence


def determinant(matrix: Sequence[Sequence]):
    """Exact determinant by fraction-free-unfriendly but exact elimination."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    rows: List[List] = [list(row) for row in matrix]
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    det = None
    sign = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            zero = rows[0][0] - rows[0][0]
            return zero
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        det = pivot if det is None else det * pivot
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                rows[r] = [rows[r][c] - factor * rows[col][c] for c in range(n)]
    return det if sign > 0 else -det

