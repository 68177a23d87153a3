"""Determinants and invariant factors by minors, kept as test oracles.

`invariant_factors_by_minors` reads the invariant factors off the gcds of
the k-by-k minors, so it shares no reduction path with
`snclab.intlinalg.smith_normal_form` and checks it on small matrices.
`determinant` is fraction-free (Bareiss) elimination.  `exponent_matrix`
is a presentation's dense generators-by-relators matrix of exponent sums.
"""

from itertools import combinations
from math import gcd

from snclab.intlinalg import IntMatrix
from snclab.presentations import Presentation


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors_by_minors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k-by-k minors."""
    limit = min(m.rows, m.cols)
    factors = []
    prev = 1
    for k in range(1, limit + 1):
        g = 0
        for rows_sel in combinations(range(m.rows), k):
            for cols_sel in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows(
                    [[m.entries[i][j] for j in cols_sel] for i in rows_sel]
                )
                g = gcd(g, determinant(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    factors += [0] * (limit - len(factors))
    return tuple(factors)


def exponent_matrix(p: Presentation) -> IntMatrix:
    """Generators-by-relators matrix of exponent sums."""
    grid = [[0] * len(p.relators) for _ in range(p.generators)]
    for j, col in enumerate(p.exponent_columns()):
        for g, v in col.items():
            grid[g][j] = v
    return IntMatrix.from_rows(grid, len(p.relators))


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and abs(determinant(m)) == 1
