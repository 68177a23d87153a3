"""Earlier versions of the geometry kernel, kept as test oracles.

`row_reduce` is Fraction Gauss-Jordan elimination, and `solve_affine`,
`nullspace` and `fraction_key` (a subspace's key from the Fraction
equations of its basis's null space) read it; `snclab.qlinalg` computes
the same solutions and keys by integer elimination.

`Constraint` is the oracle's own row type, coeffs . x <= rhs (or < rhs
when strict); the engine takes the same constraints as the (row, strict)
pairs of `pairs`.  `feasible_point` is Fourier-Motzkin
elimination with every row normalized by the absolute value of its
leading coefficient, and `substitute` writes a constraint in a subspace's
parameters x = p + B u by Fraction dot products.  The integer kernel in
`snclab.qlinalg` must return exactly the same witnesses, and rows equal to
these up to a positive scale.

`cut` meets a subspace with a hyperplane given in its parameters, making
one Fraction per coordinate of the result over the least common
denominator of the subspace's point and basis.  `AffineSubspace.cut`,
which stays in integers, must give the same point, basis and integer form.

`contains_point` and `contains` test incidence by a subspace's implicit
equations, in Fractions; `snclab.voronoi.SubspaceArrangement` decides
incidence from integer distance classes and must agree with them.

`bisector(sites, i, j)` is the integer bisector row of two sites over
`SiteSet.integer_sites`, written out from its formula; `SiteSet.rows`
substitutes the same rows into a span from columns of its own, and must
give `span.row(*bisector(...))` for every pair.  `equidistance_subspace`
solves H(J) from J's bisector rows by `solve_affine`; the walk in
`snclab.voronoi` cuts it out of its parent and must give the same point
and basis.

`voronoi_complex` is the enumeration with eager witnesses: every H(J)
substitutes each bisector of min(J) into its parameters and runs
Fourier-Motzkin for a witness, point or not, and each child is cut out by
the Fraction `cut`.  It returns the complex of its faces and its own map
of every non-empty H(J).  `snclab.voronoi` must find the same faces,
spans and witnesses, and its span walk the same subspaces.

`line_children` is the walk's earlier line test: the bounds of all the
rows at once, from the engine's Fourier-Motzkin bound routine
(`qlinalg._tightest`), then the face and the children read off them.
`snclab.voronoi._line_children`, one pass that stops at the first
crossing, must return the same face test and children.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Optional, Sequence

from snclab import qlinalg
from snclab.qlinalg import AffineSubspace, Vector, primitive, vec, whole_space
from snclab.voronoi import SiteSet, VoronoiComplex


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def row_reduce(work: list[list[Fraction]], ncols: int) -> list[int]:
    """Bring work to reduced row-echelon form over its first ncols columns,
    in place, and return the pivot columns; the rows below the last pivot
    row are zero in those columns."""
    m = len(work)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, m):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def solve_affine(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve rows * x = rhs: (particular solution, basis of the homogeneous
    solution space), free variables in ascending column order, or None when
    inconsistent."""
    m = len(rows)
    if m == 0:
        raise ValueError("empty system; caller should special-case it")
    n = len(rows[0])
    work = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = row_reduce(work, n)
    for i in range(len(pivots), m):
        if work[i][n] != 0:
            return None
    free_cols = [c for c in range(n) if c not in pivots]
    point = [Fraction(0)] * n
    for row_idx, col in enumerate(pivots):
        point[col] = work[row_idx][n]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row_idx, col in enumerate(pivots):
            v[col] = -work[row_idx][fc]
        basis.append(tuple(v))
    return tuple(point), tuple(basis)


def nullspace(rows: Sequence[Sequence[Fraction]], n: int) -> tuple[Vector, ...]:
    if not rows:
        return tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )
    solved = solve_affine(rows, [Fraction(0)] * len(rows))
    assert solved is not None
    return solved[1]


def fraction_key(span: AffineSubspace) -> tuple[tuple[int, ...], ...]:
    """The primitive integer rows of the reduced row-echelon form of span's
    implicit equations [A | b], the rows of A spanning the null space of
    its basis and b = A p, denominators cleared; the whole space has the
    empty key."""
    den, point, basis = span.integer_form
    if len(basis) == len(point):
        return ()
    normals = nullspace(basis, len(point))
    work = [list(a) + [dot(a, point) / den] for a in normals]
    rank = len(row_reduce(work, span.ambient_dim))
    return tuple(primitive(row) for row in work[:rank])


@dataclass(frozen=True)
class Constraint:
    """coeffs . x <= rhs, or < rhs when strict; the entries are integers or
    Fractions."""

    coeffs: Sequence
    rhs: object
    strict: bool = False

    @property
    def row(self) -> tuple:
        """(*coeffs, rhs), the row format of the engine."""
        return (*self.coeffs, self.rhs)


def pairs(constraints: Sequence[Constraint]) -> list[tuple]:
    """The (row, strict) pairs that the engine's `feasible` and
    `feasible_point` take."""
    return [(c.row, c.strict) for c in constraints]


def substitute(c: Constraint, subspace: AffineSubspace) -> Constraint:
    """c rewritten in the parameters of the subspace (x = p + B u)."""
    base = dot(c.coeffs, subspace.point)
    new_coeffs = tuple(dot(c.coeffs, b) for b in subspace.basis)
    return Constraint(new_coeffs, c.rhs - base, c.strict)


def cut(span: AffineSubspace, c: Constraint) -> Optional[AffineSubspace]:
    """The meet of span with the hyperplane whose equation in span's
    parameters is c, or None; span itself when c is the zero row with
    rhs 0.  Over (D, P, B), the point and basis scaled by their least
    common denominator D, the new point is (lead P + rhs B_t) / (lead D)
    and each other basis vector (lead B_i - f_i B_t) / (lead D)."""
    t = next((i for i, x in enumerate(c.coeffs) if x != 0), None)
    if t is None:
        return span if c.rhs == 0 else None
    den = lcm(*(x.denominator for v in (span.point, *span.basis) for x in v))
    point, *basis = ([x.numerator * (den // x.denominator) for x in v]
                     for v in (span.point, *span.basis))
    pivot, lead, rhs = basis[t], c.coeffs[t], c.rhs
    den *= lead
    return AffineSubspace(
        tuple(Fraction(lead * x + rhs * y, den) for x, y in zip(point, pivot)),
        tuple(
            tuple(Fraction(lead * x - f * y, den) for x, y in zip(b, pivot))
            for i, (f, b) in enumerate(zip(c.coeffs, basis))
            if i != t
        ),
    )


def line_children(
    rows: Sequence[tuple[int, int]], indices: Sequence[int]
) -> tuple[bool, list[int]]:
    """On a line H(J), from the rows (a, b), a u <= b, of every site k
    (zero for k in J): whether J is a face, and the later sites k whose
    row k is 0 <= 0 or attains an end of the closed face's segment, from
    the tightest non-strict bounds of all the rows."""
    bounds = qlinalg._tightest(zip(rows, repeat(False)), 0)
    if bounds is None:
        return False, []
    lower, upper = bounds
    open_face = rows.count((0, 0)) == len(indices) and (
        lower is None or upper is None or upper[0] * lower[1] > lower[0] * upper[1]
    )
    children = []
    for k in range(indices[-1] + 1, len(rows)):
        a, b = rows[k]
        end = upper if a > 0 else lower
        if (a, b) == (0, 0) or a and end and b * end[1] == end[0] * a:
            children.append(k)
    return open_face, children


def bisector(sites: SiteSet, i: int, j: int) -> tuple[tuple[int, ...], int]:
    """The integer row (a, b) = (2L(Y_j - Y_i), |Y_j|^2 - |Y_i|^2) over
    `sites.integer_sites` (L, Y): a.x <= b exactly when x is at least as
    close to site i as to site j (the rational row
    2(y_j - y_i).x <= |y_j|^2 - |y_i|^2 times L^2)."""
    scale, points = sites.integer_sites
    yi, yj = points[i], points[j]
    return (tuple(2 * scale * (q - p) for p, q in zip(yi, yj)),
            sum(q * q for q in yj) - sum(p * p for p in yi))


def equidistance_subspace(sites: SiteSet, j_set: Sequence[int]) -> Optional[AffineSubspace]:
    """H(J): the locus equidistant to every site in J, or None when empty."""
    indices = sorted(set(j_set))
    if len(indices) == 1:
        return whole_space(sites.dim)
    base = indices[0]
    rows, rhs = [], []
    for other in indices[1:]:
        a, b = bisector(sites, base, other)
        rows.append(list(a))
        rhs.append(b)
    solved = solve_affine(rows, rhs)
    if solved is None:
        return None
    return AffineSubspace(solved[0], solved[1])


def contains_point(span: AffineSubspace, x: Sequence[Fraction]) -> bool:
    """Whether x satisfies every implicit equation of span."""
    normals, rhs = span.implicit()
    p = vec(x)
    return all(dot(a, p) == b for a, b in zip(normals, rhs))


def contains(big: AffineSubspace, small: AffineSubspace) -> bool:
    """Whether big contains small: its point and directions satisfy big's
    implicit equations."""
    normals, _ = big.implicit()
    return contains_point(big, small.point) and all(
        dot(a, v) == 0 for a in normals for v in small.basis
    )


def _normalized(c: Constraint) -> Constraint:
    scale = None
    for x in c.coeffs:
        if x != 0:
            scale = abs(x)
            break
    if scale is None:
        scale = abs(c.rhs) if c.rhs != 0 else Fraction(1)
    if scale in (0, 1):
        return c
    return Constraint(tuple(x / scale for x in c.coeffs), c.rhs / scale, c.strict)


def feasible_point(constraints: Sequence[Constraint], nvars: int) -> Optional[Vector]:
    """A rational point satisfying every constraint, or None.  Rows of
    Python ints are read as Fractions, so every division is exact."""
    levels: list[list[Constraint]] = [
        [Constraint(tuple(map(Fraction, c.coeffs)), Fraction(c.rhs), c.strict)
         for c in constraints]
    ]
    for k in range(nvars):
        uppers, lowers, rest = [], [], []
        for c in levels[-1]:
            a = c.coeffs[k]
            if a > 0:
                uppers.append(c)
            elif a < 0:
                lowers.append(c)
            else:
                rest.append(c)
        new: dict[tuple, Constraint] = {}
        for c in rest:
            nc = _normalized(c)
            key = (nc.coeffs, nc.rhs)
            if key not in new or (nc.strict and not new[key].strict):
                new[key] = nc
        for lo in lowers:
            for up in uppers:
                al, au = lo.coeffs[k], up.coeffs[k]
                coeffs = tuple(au * x - al * y for x, y in zip(lo.coeffs, up.coeffs))
                nc = _normalized(
                    Constraint(coeffs, au * lo.rhs - al * up.rhs, lo.strict or up.strict)
                )
                key = (nc.coeffs, nc.rhs)
                if key not in new or (nc.strict and not new[key].strict):
                    new[key] = nc
        levels.append(list(new.values()))
    for c in levels[-1]:
        if not (0 < c.rhs if c.strict else 0 <= c.rhs):
            return None
    values: list[Fraction] = [Fraction(0)] * nvars
    for k in range(nvars - 1, -1, -1):
        lo_bound = up_bound = None
        lo_strict = up_strict = False
        for c in levels[k]:
            a = c.coeffs[k]
            if a == 0:
                continue
            residual = c.rhs - sum(c.coeffs[j] * values[j] for j in range(k + 1, nvars))
            bound = residual / a
            if a > 0:
                if up_bound is None or bound < up_bound or (bound == up_bound and c.strict):
                    up_bound, up_strict = bound, c.strict
            elif lo_bound is None or bound > lo_bound or (bound == lo_bound and c.strict):
                lo_bound, lo_strict = bound, c.strict
        if lo_bound is None and up_bound is None:
            values[k] = Fraction(0)
        elif lo_bound is None:
            values[k] = up_bound - 1 if up_strict else up_bound
        elif up_bound is None:
            values[k] = lo_bound + 1 if lo_strict else lo_bound
        elif lo_bound == up_bound:
            values[k] = lo_bound
        else:
            values[k] = (lo_bound + up_bound) / 2
    return tuple(values)


@dataclass(frozen=True)
class VoronoiFace:
    """A face with its witness computed when it was built."""

    sites: frozenset[int]
    span: AffineSubspace
    witness: Vector
    ambient_dim: int

    @property
    def dim(self) -> int:
        return self.span.dim

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.span.dim


def voronoi_complex(
    site_set: SiteSet,
) -> tuple[VoronoiComplex, dict[frozenset[int], AffineSubspace]]:
    """The face lattice over the J with non-empty H(J), each face's witness
    found by Fourier-Motzkin as the face is tested, and every non-empty
    H(J), |J| >= 2."""
    n = len(site_set)
    faces: dict[frozenset[int], VoronoiFace] = {}
    subspaces: dict[frozenset[int], AffineSubspace] = {}
    level = [((i,), whole_space(site_set.dim)) for i in range(n)]
    while level:
        extended = []
        for indices, span in level:
            key = frozenset(indices)
            if len(indices) >= 2:
                subspaces[key] = span
            cuts = {
                k: substitute(Constraint(*bisector(site_set, indices[0], k), strict=True), span)
                for k in range(n)
                if k not in indices
            }
            witness_params = qlinalg.feasible_point(pairs(cuts.values()), span.dim)
            if witness_params is not None:
                witness = span.parametrize(witness_params)
                faces[key] = VoronoiFace(key, span, witness, site_set.dim)
            for k in range(indices[-1] + 1, n):
                child = cut(span, cuts[k])
                if child is not None:
                    extended.append((indices + (k,), child))
        level = extended
    return VoronoiComplex(site_set, faces), subspaces
