"""Exact rational linear algebra: solvers, affine subspaces, feasibility.

No predicate ever touches floating point.  An affine subspace holds one
integer form (a common denominator, an integer point and integer basis
rows, with no common factor), and makes its Fraction point and basis only
when they are read.  It compares and hashes by a canonical key (the
primitive integer reduced row-echelon form of its equations, by
`row_reduce`, the one elimination routine), computed once per object.
A constraint has one format, the row (*a, b) for a.x <= b (a.x = b in a
cut), integer for integer input.  `AffineSubspace.row` writes one in a
subspace's parameters by integer arithmetic on its form, and `cut` meets
the subspace with the hyperplane of such a row, with no solve and no
Fraction: the Voronoi enumeration and the subspace arrangement cut out
each H(J + k) and each meet so, and no library path calls `intersect`,
the Fraction fold.  The feasibility engine takes (row, strict) pairs,
strict for a.x < b: Fourier-Motzkin elimination over mixed strict and non-strict inequalities on primitive
integer rows, one routine for both entry points, and it runs in integers
throughout.  `feasible` decides the last variable by comparing its
tightest bounds as integer pairs; `feasible_point` goes on to
back-substitute a witness, fixing each variable as a numerator over one
common denominator from the same tightest-bounds routine, and makes one
Fraction per returned coordinate.  That is enough for the desk scales
targeted here (a handful of variables, tens of constraints).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


def vec(values: Sequence) -> Vector:
    return tuple(Fraction(v) for v in values)


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
    """Solve rows * x = rhs.

    Returns (particular solution, basis of the homogeneous solution space)
    or None when inconsistent.  The basis comes from the reduced echelon
    form with free variables in ascending column order, so the output is
    deterministic.
    """
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


def primitive(row: Sequence) -> tuple[int, ...]:
    """The primitive integer row that is a positive multiple of a rational
    (or integer) row: denominators cleared, then the gcd divided out.  The
    zero row stays zero."""
    try:  # an integer row, the common case, has nothing to clear
        g, ints = gcd(*row), row
    except TypeError:  # a Fraction entry
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def nullspace(rows: Sequence[Sequence[Fraction]], n: int) -> tuple[Vector, ...]:
    if not rows:
        return tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )
    solved = solve_affine(rows, [Fraction(0)] * len(rows))
    assert solved is not None
    return solved[1]


class AffineSubspace:
    """An affine subspace of Q^n, held in integers: `integer_form` is
    (D, P, B), the point P / D plus the span of the rows B[t] / D, with
    D > 0 and gcd(D, every entry of P and B) = 1, so that for a rational
    point and basis D is their least common denominator.  The rational
    `point` and `basis`, the implicit equations and the canonical `key`
    are derived from it when first read, once per object.

    Equality and hashing go through `key`, a canonical form of the subspace
    as a set, so two representations of one subspace are interchangeable
    as dict keys.  The object is frozen apart from its first-use caches.
    """

    def __init__(self, point: Sequence, basis: Sequence[Sequence]):
        """point + span(basis), for rational (or integer) entries."""
        den = lcm(*(x.denominator for v in (point, *basis) for x in v))

        def scaled(v: Sequence) -> tuple[int, ...]:
            return tuple(x.numerator * (den // x.denominator) for x in v)

        object.__setattr__(self, "integer_form", (den, scaled(point), tuple(map(scaled, basis))))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"AffineSubspace(point={self.point!r}, basis={self.basis!r})"

    @property
    def ambient_dim(self) -> int:
        return len(self.integer_form[1])

    @property
    def dim(self) -> int:
        return len(self.integer_form[2])

    @cached_property
    def point(self) -> Vector:
        den, point, _ = self.integer_form
        return tuple(Fraction(x, den) for x in point)

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        den, _, basis = self.integer_form
        return tuple(tuple(Fraction(x, den) for x in b) for b in basis)

    def parametrize(self, params: Sequence[Fraction]) -> Vector:
        out = list(self.point)
        for c, b in zip(params, self.basis):
            for k in range(len(out)):
                out[k] += c * b[k]
        return tuple(out)

    @cached_property
    def key(self) -> tuple[tuple[int, ...], ...]:
        """The primitive integer rows of the reduced row-echelon form of the
        implicit equations [A | b], denominators cleared.  The whole space
        has the empty key."""
        normals, rhs = self.implicit()
        work = [list(a) + [b] for a, b in zip(normals, rhs)]
        rank = len(row_reduce(work, self.ambient_dim))
        return tuple(primitive(row) for row in work[:rank])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.key == other.key

    def __hash__(self):
        return hash((self.ambient_dim, self.key))

    def implicit(self) -> tuple[tuple[Vector, ...], tuple[Fraction, ...]]:
        """Equations (A, b) with A x = b cutting out exactly this subspace."""
        return self._implicit

    @cached_property
    def _implicit(self) -> tuple[tuple[Vector, ...], tuple[Fraction, ...]]:
        # the rows B span what the basis B / D spans
        den, point, basis = self.integer_form
        if len(basis) == len(point):
            return (), ()
        normals = nullspace(basis, len(point))
        return normals, tuple(dot(nrm, point) / den for nrm in normals)

    def row(self, a: Sequence, b) -> tuple:
        """The row (*coeffs, rhs) of a.x <= b, or of a.x = b, in this
        subspace's parameters u: with x = (P + B u) / D (`integer_form`) it
        is (a.B_0, ..., a.B_d-1, D b - a.P), D > 0 times the row in u, by
        integer dot products when a and b are integers."""
        den, point, basis = self.integer_form
        return (*[sum(map(mul, a, v)) for v in basis], den * b - sum(map(mul, a, point)))

    def cut(self, row: Sequence) -> Optional["AffineSubspace"]:
        """The meet with the hyperplane a.x = b, or None; row is its equation
        (*coeffs, rhs) in this subspace's parameters, `self.row(a, b)` or a
        row of `SiteSet.rows`, integer when a and b are.  It pivots on the
        first nonzero coefficient and reads the row only through ratios, so
        any positive or negative multiple of it gives the same cut; a row
        with a Fraction entry (an implicit equation, from `intersect`) is
        brought to its primitive integer row first.  In `solve_affine`'s
        echelon form the parameters are the free coordinates, and the cut
        keeps that form: it is `solve_affine` on the stacked equations.  It
        runs in integers: over the integer form (D, P, B) the new point is
        (lead P + rhs B_t) / (lead D) and each other basis vector
        (lead B_i - f_i B_t) / (lead D), with the gcd of all these
        numerators and lead D divided out, signed so that the new D is
        positive."""
        if Fraction in map(type, row):
            row = primitive(row)
        *coeffs, rhs = row
        for t, lead in enumerate(coeffs):
            if lead:
                break
        else:
            return self if rhs == 0 else None
        den, point, basis = self.integer_form
        pivot = basis[t]
        den *= lead
        point = [lead * x + rhs * y for x, y in zip(point, pivot)]
        basis = [[lead * x - f * y for x, y in zip(b, pivot)]
                 for i, (f, b) in enumerate(zip(coeffs, basis)) if i != t]
        g = gcd(den, *point)
        for b in basis:
            if g == 1:
                break
            g = gcd(g, *b)
        if den < 0:
            g = -g
        return _integral(den // g, tuple([x // g for x in point]),
                         tuple([tuple([x // g for x in b]) for b in basis]))

    def intersect(self, other: "AffineSubspace") -> Optional["AffineSubspace"]:
        """The meet with other, or None: this subspace cut by each implicit
        equation of other in turn."""
        meet: Optional[AffineSubspace] = self
        for a, b in zip(*other.implicit()):
            meet = meet.cut(meet.row(a, b))
            if meet is None:
                break
        return meet


def _integral(den: int, point: tuple[int, ...], basis: tuple[tuple[int, ...], ...]):
    """The subspace with integer form (den, point, basis), already canonical."""
    span = object.__new__(AffineSubspace)
    object.__setattr__(span, "integer_form", (den, point, basis))
    return span


def whole_space(n: int) -> AffineSubspace:
    return _integral(1, (0,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def _tightest(rows, k: int, fixed: Sequence[int] = (), den: int = 1):
    """The tightest bounds that rows put on variable k once the later
    variables are fixed at fixed[j] / den, den > 0 (fixed[j] = 0 for
    j <= k; with fixed empty nothing is fixed, and k = -1 means the rows
    have no variables).  Row a . x <= b leaves x_k the bound
    (b den - a . fixed) / (a_k den), kept as the integer pair (p, q),
    q = |a_k| > 0: the bound p / (q den).  Pairs are compared by
    cross-multiplication, and of two equal bounds a strict one wins.

    Returns (lower, upper), each (p, q, strict) or None when no row bounds
    that side; or None when the rows contradict: a row without x_k fails,
    or the lower bound lies above the upper one, or on it when either is
    strict."""
    lower = upper = None
    for row, strict in rows:
        a = row[k] if k >= 0 else 0
        b = row[-1] * den - sum(map(mul, row, fixed)) if fixed else row[-1]
        if a > 0:  # x_k <= b / a
            if upper is None or b * upper[1] < upper[0] * a or (
                strict and b * upper[1] == upper[0] * a
            ):
                upper = (b, a, strict)
        elif a < 0:  # x_k >= -b / -a
            b, a = -b, -a
            if lower is None or b * lower[1] > lower[0] * a or (
                strict and b * lower[1] == lower[0] * a
            ):
                lower = (b, a, strict)
        elif b < 0 or (strict and b == 0):
            return None
    if lower is not None and upper is not None:
        gap = upper[0] * lower[1] - lower[0] * upper[1]
        if gap < 0 or (gap == 0 and (lower[2] or upper[2])):
            return None
    return lower, upper


def _eliminate(constraints: Sequence[tuple[Sequence, bool]], nvars: int):
    """Fourier-Motzkin elimination (Schrijver, Theory of Linear and Integer
    Programming, 1986, section 12.2) of variables 0..nvars-2.  Returns
    (levels, bounds), or None when the system is infeasible: levels[k]
    holds the rows over variables k.., and bounds are the last variable's
    tightest lower and upper bounds.  Each row [a | b] is kept as the
    primitive integer row of its class up to positive scale (`primitive`),
    so the elimination runs on integers and combined rows are deduplicated
    on that row; strictness propagates through combined rows.  The last
    level bounds the last variable alone, and the system is feasible when
    `_tightest` finds those bounds consistent."""
    levels = [[(primitive(row), strict) for row, strict in constraints]]
    for k in range(nvars - 1):
        uppers, lowers = [], []
        new: dict[tuple[int, ...], bool] = {}
        for row, strict in levels[-1]:
            if row[k] > 0:
                uppers.append((row, strict))
            elif row[k] < 0:
                lowers.append((row, strict))
            else:
                new[row] = new.get(row, False) or strict
        for lo, lo_strict in lowers:
            al = lo[k]
            for up, up_strict in uppers:
                au = up[k]
                # au*lo - al*up eliminates variable k (al < 0 < au)
                combined = [au * x - al * y for x, y in zip(lo, up)]
                g = gcd(*combined)
                row = tuple(x // g for x in combined) if g > 1 else tuple(combined)
                new[row] = new.get(row, False) or lo_strict or up_strict
        levels.append(list(new.items()))
    bounds = _tightest(levels[-1], nvars - 1)
    return None if bounds is None else (levels, bounds)


def feasible(constraints: Sequence[tuple[Sequence, bool]], nvars: int) -> bool:
    """Whether some rational point satisfies every constraint: the
    elimination of `feasible_point` without its witness."""
    return _eliminate(constraints, nvars) is not None


def feasible_point(constraints: Sequence[tuple[Sequence, bool]], nvars: int) -> Optional[Vector]:
    """A rational point satisfying every (row, strict) pair, or None.

    The witness is back-substituted through `_eliminate`'s levels, last
    variable first, in integers: the variables already fixed are numerators
    over one common denominator, each level's tightest bounds come from
    `_tightest`, and the variable takes the midpoint of two bounds, their
    common value when they meet, a one-sided bound (or one step inside it
    when strict), or 0 when unbounded.  These are the values of the earlier
    Fraction back-substitution, kept as the tests' oracle, computed without
    its Fractions: only the returned coordinates are Fractions, one each.
    """
    eliminated = _eliminate(constraints, nvars)
    if eliminated is None:
        return None
    levels, (lower, upper) = eliminated
    fixed, den = [0] * nvars, 1
    for k in range(nvars - 1, -1, -1):
        if lower is None and upper is None:
            num, q = 0, 1
        elif upper is None:
            p, q, strict = lower
            num = p + q * den if strict else p
        elif lower is None:
            p, q, strict = upper
            num = p - q * den if strict else p
        elif upper[0] * lower[1] == lower[0] * upper[1]:
            num, q = lower[0], lower[1]
        else:
            (p, ql, _), (pu, qu, _) = lower, upper
            num, q = p * qu + pu * ql, 2 * ql * qu
        # the value is num / (q den): rescale the fixed numerators to it
        if q != 1:
            den *= q
            fixed = [x * q for x in fixed]
        fixed[k] = num
        if k:
            lower, upper = _tightest(levels[k - 1], k - 1, fixed, den)
    return tuple(Fraction(x, den) for x in fixed)
