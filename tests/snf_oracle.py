"""Smith normal form with its transforms, kept as a test oracle.

`snclab.intlinalg.smith_normal_form` computes the diagonal alone, which is
all homology and abelianization read.  This is the earlier version that
also keeps the unimodular row and column transforms L and R, with the same
pivot policy (smallest absolute value, ties broken by row-major position),
so a test can check L * M * R = diag and that its diagonal is the
engine's.  The matrix helpers here are the ones only these checks use.
"""

from dataclasses import dataclass

from snclab.intlinalg import IntMatrix, _find_pivot


def zero(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    data = tuple(
        tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols)) for j in range(b.cols))
        for i in range(a.rows)
    )
    return IntMatrix(a.rows, b.cols, data)


@dataclass(frozen=True)
class SmithForm:
    """diag with d1 | d2 | ..., and unimodular L, R with L*M*R = diag(diag)."""

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix


def smith_form_with_transforms(m: IntMatrix) -> SmithForm:
    """Smith normal form with transforms.

    Pivots are chosen by smallest absolute value, ties by row-major
    position, which pins down the (non-unique) transforms.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    left = [list(row) for row in identity(rows).entries]
    right = [list(row) for row in identity(cols).entries]

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
    return SmithForm(diag, IntMatrix.from_rows(left, rows), IntMatrix.from_rows(right, cols))
