"""Exact integer matrices, Smith normal form and unit-pivot reduction.

Everything here is arbitrary-precision: entries are Python ints, and
every row and column operation is unimodular.  `smith_normal_form`
computes the diagonal alone, since its callers read only the invariant
factors and the rank; the transforms are not kept.  `rank` is read off
that diagonal, so no Fraction is made here.  The pivot policy is
fixed (smallest absolute value, ties broken by row-major position).

Homology and abelianization first split the +-1 pivots off a sparse
matrix with `reduce_unit_pivots` and run `smith_normal_form` and `rank`
only on the residual block, which for simplicial boundaries is usually
empty or a few entries.  The reduction reports its pivot rows, so homology
can walk the boundaries from the top dimension down and hand each one
only the columns the boundary above left uncleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


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


@dataclass(frozen=True)
class SmithNormalForm:
    """The diagonal d1 | d2 | ... of the Smith normal form, zeros last."""

    diagonal: tuple[int, ...]

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
    """The Smith normal form's diagonal, by unimodular row and column
    operations whose transforms are not kept.

    Pivots are chosen by smallest absolute value, ties by row-major
    position.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    s = 0
    limit = min(rows, cols)
    while s < limit:
        pos = _find_pivot(a, s, rows, cols)
        if pos is None:
            break
        a[s], a[pos[0]] = a[pos[0]], a[s]
        for row in a:
            row[s], row[pos[1]] = row[pos[1]], row[s]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
        pivot_row = a[s]
        d = pivot_row[s]
        # one euclidean pass over column s and row s; leftover remainders
        # are strictly smaller pivots, so restart the stage on them
        # (re-pivoting only between passes keeps entry growth tame)
        touched = False
        for i in range(s + 1, rows):
            if a[i][s] != 0:
                q = a[i][s] // d
                a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
                touched = touched or a[i][s] != 0
        for j in range(s + 1, cols):
            if pivot_row[j] != 0:
                q = pivot_row[j] // d
                for row in a:
                    row[j] -= q * row[s]
                touched = touched or pivot_row[j] != 0
        if touched:
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = next((row for row in a[s + 1:] if any(x % d for x in row[s + 1:])), None)
        if offender is not None:
            a[s] = [x + y for x, y in zip(pivot_row, offender)]
            continue
        s += 1

    return SmithNormalForm(tuple(a[i][i] if i < cols else 0 for i in range(limit)))


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero invariant factors of
    `smith_normal_form`, so no Fraction is made."""
    return smith_normal_form(m).rank


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
    cols = [c.copy() if all(c.values()) else {i: v for i, v in c.items() if v} for c in columns]
    where: list[set[int]] = [set() for _ in range(rows)]
    for j, c in enumerate(cols):
        for i in c:
            where[i].add(j)
    pivots: list[int] = []
    pending: Sequence[int] = range(len(cols))
    while pending:
        retry = set()
        for j in pending:
            col = cols[j]
            pivot = fewest = -1
            for i, v in col.items():
                if v == 1 or v == -1:
                    n = len(where[i])
                    if pivot < 0 or n < fewest or n == fewest and i < pivot:
                        pivot, fewest = i, n
            if pivot < 0:
                continue
            for i in col:
                where[i].discard(j)
            u = col[pivot]
            for other in sorted(where[pivot]):
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
            cols[j] = {}
            pivots.append(pivot)
        pending = sorted(retry)
    rest = [c for c in cols if c]
    used = sorted({i for c in rest for i in c})
    grid = [[c.get(i, 0) for c in rest] for i in used]
    return tuple(pivots), IntMatrix.from_rows(grid, len(rest))
