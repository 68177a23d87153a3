"""Exact integer matrices, Smith normal form and unit-pivot reduction.

Everything here is arbitrary-precision: entries are Python ints and the
row/column transforms are kept unimodular.  The pivot policy is fixed
(smallest absolute value, ties broken by row-major position) so repeated
runs produce bit-identical transforms.

Homology and abelianization first split the +-1 pivots off a sparse
matrix with `reduce_unit_pivots` and run `smith_normal_form` and `rank`
only on the residual block, which for simplicial boundaries is usually
empty or a few entries.  The reduction reports its pivot rows, so homology
can walk the boundaries from the top dimension down and hand each one
only the columns the boundary above left uncleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .qlinalg import row_reduce


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix; the carrier for boundary and relation maps."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entry grid")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count does not match entry grid")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        return cls(len(data), width, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        data = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return IntMatrix(self.rows, other.cols, data)


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, by `qlinalg.row_reduce`."""
    return len(row_reduce([[Fraction(x) for x in row] for row in m.entries], m.cols))


@dataclass(frozen=True)
class SmithNormalForm:
    """diag with d1 | d2 | ..., and unimodular L, R with L*M*R = diag(diag)."""

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix

    @property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)

    @property
    def rank(self) -> int:
        return len(self.nonzero)


def _find_pivot(a: list[list[int]], s: int, rows: int, cols: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(s, rows):
        for j in range(s, cols):
            v = abs(a[i][j])
            if v != 0 and (best_val is None or v < best_val):
                best = (i, j)
                best_val = v
    return best


def smith_normal_form(m: IntMatrix) -> SmithNormalForm:
    """Smith normal form with transforms.

    Pivots are chosen by smallest absolute value, ties by row-major
    position, which pins down the (non-unique) transforms.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    left = [list(row) for row in IntMatrix.identity(rows).entries]
    right = [list(row) for row in IntMatrix.identity(cols).entries]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        # row dst += q * row src
        arow, lsrc = a[src], left[src]
        for k in range(cols):
            a[dst][k] += q * arow[k]
        for k in range(rows):
            left[dst][k] += q * lsrc[k]

    def col_add(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in right:
            row[dst] += q * row[src]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    s = 0
    limit = min(rows, cols)
    while s < limit:
        pos = _find_pivot(a, s, rows, cols)
        if pos is None:
            break
        row_swap(s, pos[0])
        col_swap(s, pos[1])
        if a[s][s] < 0:
            row_negate(s)
        d = a[s][s]
        # one euclidean pass over column s and row s; leftover remainders
        # are strictly smaller pivots, so restart the stage on them
        # (re-pivoting only between passes keeps entry growth tame)
        touched = False
        for i in range(s + 1, rows):
            if a[i][s] != 0:
                row_add(i, s, -(a[i][s] // d))
                if a[i][s] != 0:
                    touched = True
        for j in range(s + 1, cols):
            if a[s][j] != 0:
                col_add(j, s, -(a[s][j] // d))
                if a[s][j] != 0:
                    touched = True
        if touched:
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(s + 1, rows):
            for j in range(s + 1, cols):
                if a[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(s, offender, 1)
            continue
        s += 1

    diag = tuple(a[i][i] if i < cols else 0 for i in range(limit))
    return SmithNormalForm(diag, IntMatrix.from_rows(left, rows), IntMatrix.from_rows(right, cols))


def reduce_unit_pivots(
    columns: Sequence[dict[int, int]], rows: int
) -> tuple[tuple[int, ...], IntMatrix]:
    """Split off the unit pivots: M is equivalent to diag(1, ..., 1) + residual.

    `columns` lists the matrix's columns as sparse `row -> nonzero int`
    dicts over `rows` rows.  Columns are taken in order; each pivots on a
    +-1 entry, choosing the row with the fewest entries (ties: lowest row)
    to limit fill-in, and integer column operations clear the rest of that
    row, after which the pivot's row and column are dropped.  Every step is
    unimodular, so rank and nonzero invariant factors of M are
    `len(pivots)` ones followed by those of the residual; `pivots` lists
    the pivot rows in the order they were taken.  Columns left without a
    unit entry are retried after a pass in which a pivot changed them, so
    the residual has no +-1 entry.  It keeps the surviving nonzero columns
    in order, on the rows they touch.
    """
    cols = [{i: v for i, v in c.items() if v} for c in columns]
    where: list[set[int]] = [set() for _ in range(rows)]
    for j, c in enumerate(cols):
        for i in c:
            where[i].add(j)
    pivots: list[int] = []
    pending = list(range(len(cols)))
    while pending:
        retry = set()
        for j in pending:
            col = cols[j]
            candidates = [i for i, v in col.items() if v in (1, -1)]
            if not candidates:
                continue
            pivot = min(candidates, key=lambda i: (len(where[i]), i))
            u = col[pivot]
            for other in sorted(where[pivot] - {j}):
                target = cols[other]
                q = target[pivot] * u
                for i, v in col.items():
                    new = target.get(i, 0) - q * v
                    if new:
                        target[i] = new
                        where[i].add(other)
                    else:
                        del target[i]
                        where[i].discard(other)
                retry.add(other)
            for i in col:
                where[i].discard(j)
            cols[j] = {}
            pivots.append(pivot)
        pending = sorted(retry)
    rest = [c for c in cols if c]
    used = sorted({i for c in rest for i in c})
    grid = [[c.get(i, 0) for c in rest] for i in used]
    return tuple(pivots), IntMatrix.from_rows(grid, len(rest))
