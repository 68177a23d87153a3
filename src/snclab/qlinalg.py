"""Exact rational linear algebra: solvers, affine subspaces, feasibility.

No predicate ever touches floating point.  An affine subspace holds one
integer form (a common denominator, an integer point and integer basis
rows, with no common factor), and makes its Fraction point and basis only
when they are read.  It compares and hashes by a canonical key (the
primitive integer reduced row-echelon form of its equations), computed
once per object from its form by `_echelon`, the one elimination routine,
which `solve_affine` and the constructor's rank check also run.  A
constraint has one format, the row (*a, b) for a.x <= b (a.x = b in a
cut), integer for integer input.  `AffineSubspace.row` writes one in a
subspace's parameters by integer arithmetic on its form, and `cut` meets
the subspace with the hyperplane of such a row, with no solve and no
Fraction: the Voronoi enumeration cuts out each H(J + k) so, and no
library path calls `intersect`.  A cut is deferred: the row decides an
empty meet, the subspace itself, or the pivot and so the dimension, and
the child's integer form is derived from its parent's and the row only
when first read, so a reader of dimensions alone does no arithmetic on
forms.  The feasibility engine takes (row, strict) pairs, strict for
a.x < b: Fourier-Motzkin elimination over mixed strict and non-strict
inequalities on primitive integer rows, one routine for both entry
points, and it runs in integers throughout.  `feasible` decides the last
variable by comparing its tightest bounds as integer pairs;
`feasible_point` goes on to back-substitute a witness, fixing each
variable as a numerator over one common denominator from the same
tightest-bounds routine, and makes one Fraction per returned coordinate.
That is enough for the desk scales targeted here (a handful of variables,
tens of constraints).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]
IntegerForm = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]


def vec(values: Sequence) -> Vector:
    return tuple(Fraction(v) for v in values)


def _echelon(rows: Sequence[Sequence[int]], ncols: int) -> dict[int, tuple[int, ...]]:
    """The reduced row-echelon form of integer rows over their first ncols
    columns, keyed by pivot column in ascending order, each row primitive
    with a positive pivot; its size is the rank there.  Fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968, dividing by
    gcds, not exactly): lead row - f pivot row, lead > 0, clears a row."""
    work, done = [list(row) for row in rows], {}
    for col in range(ncols):
        i = next((i for i, row in enumerate(work) if row[col]), None)
        if i is None:
            continue
        pivot = work.pop(i)
        g = gcd(*pivot) if pivot[col] > 0 else -gcd(*pivot)
        lead, pivot = pivot[col] // g, [x // g for x in pivot]

        def cleared(row: list[int]) -> list[int]:
            if not (f := row[col]):
                return row
            row = [lead * x - f * y for x, y in zip(row, pivot)]
            g = gcd(*row)
            return [x // g for x in row] if g > 1 else row

        work = [cleared(row) for row in work]
        done = {c: cleared(row) for c, row in done.items()}
        done[col] = pivot
    return {col: tuple(row) for col, row in done.items()}


def solve_affine(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve rows * x = rhs.

    Returns (particular solution, basis of the homogeneous solution space)
    or None when inconsistent: `_echelon` of the primitive integer rows
    [a | b] over all their columns, so a pivot in the rhs column means no
    solution.  The basis comes from the reduced echelon form with free
    variables in ascending column order, so the output is deterministic.
    """
    if not rows:
        raise ValueError("empty system; caller should special-case it")
    n = len(rows[0])
    echelon = _echelon([primitive((*row, b)) for row, b in zip(rows, rhs)], n + 1)
    if n in echelon:
        return None
    point = [Fraction(0)] * n
    for col, row in echelon.items():
        point[col] = Fraction(row[n], row[col])
    basis = []
    for fc in range(n):
        if fc not in echelon:
            v = [Fraction(int(c == fc)) for c in range(n)]
            for col, row in echelon.items():
                v[col] = Fraction(-row[fc], row[col])
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


def integer_form(point: Sequence, vectors: Sequence[Sequence]) -> IntegerForm:
    """(D, P, B) for a rational (or integer) point and vectors: P / D and
    the B[t] / D over their least common denominator D > 0."""
    den = lcm(*(x.denominator for v in (point, *vectors) for x in v))

    def scaled(v: Sequence) -> tuple[int, ...]:
        return tuple(x.numerator * (den // x.denominator) for x in v)

    return den, scaled(point), tuple(map(scaled, vectors))


class AffineSubspace:
    """An affine subspace of Q^n, held in integers: `integer_form` is
    (D, P, B), the point P / D plus the span of the rows B[t] / D, with
    D > 0 and gcd(D, every entry of P and B) = 1, so that for a rational
    point and independent basis D is their least common denominator.  The
    rational `point` and `basis` and the canonical `key`, whose rows are
    the implicit equations, are derived from it when first read, once per
    object.  A cut (`cut`) holds its parent, its row and its pivot, with
    its `dim` and `ambient_dim`, until its form is first read.

    Equality and hashing go through `key`, a canonical form of the subspace
    as a set, so two representations of one subspace are interchangeable
    as dict keys.  The object is frozen apart from its first-use caches.
    """

    def __init__(self, point: Sequence, basis: Sequence[Sequence]):
        """point + span(basis), for rational (or integer) entries; a
        dependent basis or a basis vector of another length raises ValueError."""
        if any(len(b) != len(point) for b in basis):
            raise ValueError("basis vector length does not match the point's")
        form = integer_form(point, basis)
        if len(_echelon(form[2], len(form[1]))) < len(form[2]):
            raise ValueError("dependent basis: its vectors span fewer dimensions than they number")
        object.__setattr__(self, "integer_form", form)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"AffineSubspace(point={self.point!r}, basis={self.basis!r})"

    @cached_property
    def integer_form(self) -> IntegerForm:
        """(D, P, B), set by the constructor, or derived on first read, once,
        for a cut pending as (parent, row, pivot t) (`cut`).  In
        `solve_affine`'s echelon form the parameters are the free
        coordinates, and the cut keeps that form: it is `solve_affine` on
        the stacked equations.  It runs in integers: over the parent's form
        (D, P, B) the new point is (lead P + rhs B_t) / (lead D) and each
        other basis vector (lead B_i - f_i B_t) / (lead D), with the gcd of
        all these numerators and lead D divided out, signed so that the new
        D is positive; a caller's own row with a Fraction entry is brought
        to its primitive integer row first.  The form is stored before the
        pending cut is dropped, so a reader that finds no pending cut finds
        the form."""
        cache = self.__dict__
        pending = cache.get("_cut")
        if pending is None:
            return cache["integer_form"]
        parent, row, t = pending
        if Fraction in map(type, row):
            row = primitive(row)
        den, point, basis = parent.integer_form
        lead, rhs, pivot = row[t], row[-1], basis[t]
        den *= lead
        point = [lead * x + rhs * y for x, y in zip(point, pivot)]
        basis = [[lead * x - f * y for x, y in zip(b, pivot)]
                 for i, (f, b) in enumerate(zip(row, basis)) if i != t]
        g = gcd(den, *point)
        for b in basis:
            if g == 1:
                break
            g = gcd(g, *b)
        if den < 0:
            g = -g
        form = cache["integer_form"] = (den // g, tuple([x // g for x in point]),
                                        tuple([tuple([x // g for x in b]) for b in basis]))
        cache.pop("_cut", None)
        return form

    @cached_property
    def ambient_dim(self) -> int:
        return len(self.integer_form[1])

    @cached_property
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
        """The implicit equations [A | b] by `_echelon`, empty for the whole
        space.  With E = `_echelon` of B in the form (D, P, B) and L the
        lcm of its pivots E_p[p], each free column c gives the equation
        D a.x = a.P that writes x_c through the pivot coordinates: a_c = L,
        a_p = -(L / E_p[p]) E_p[c]."""
        den, point, basis = self.integer_form
        n = len(point)
        echelon = _echelon(basis, n)
        scale = lcm(*(row[p] for p, row in echelon.items()))
        equations = []
        for c in range(n):
            if c not in echelon:
                a = [0] * n
                a[c] = scale
                for p, row in echelon.items():
                    a[p] = -(scale // row[p]) * row[c]
                equations.append((*[den * x for x in a], sum(map(mul, a, point))))
        return tuple(_echelon(equations, n).values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.key == other.key

    def __hash__(self):
        return hash((self.ambient_dim, self.key))

    def implicit(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Integer equations (A, b) with A x = b cutting out exactly this
        subspace: the rows of `key`."""
        return tuple(row[:-1] for row in self.key), tuple(row[-1] for row in self.key)

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
        any positive or negative multiple of it gives the same cut.  The row
        alone decides the empty meet (0 = b, b != 0) and this subspace
        itself (0 = 0); any other cut is held as (this subspace, a copy of
        the row, the pivot) with its `dim` and `ambient_dim`, and its
        `integer_form` is derived only when it is first read, so a walk
        that reads only dimensions does no arithmetic on forms."""
        for t, lead in enumerate(row):
            if lead:
                break
        if t == len(row) - 1 or not lead:  # no coefficient is nonzero
            return None if lead else self
        span = object.__new__(AffineSubspace)
        cache = span.__dict__
        cache["_cut"] = (self, tuple(row), t)
        cache["dim"] = self.dim - 1
        cache["ambient_dim"] = self.ambient_dim
        return span

    def intersect(self, other: "AffineSubspace") -> Optional["AffineSubspace"]:
        """The meet with other, or None: this subspace cut by each implicit
        equation of other, an integer row, in turn."""
        meet: Optional[AffineSubspace] = self
        for a, b in zip(*other.implicit()):
            meet = meet.cut(meet.row(a, b))
            if meet is None:
                break
        return meet


def whole_space(n: int) -> AffineSubspace:
    """Q^n, with its integer form (1, 0, identity) set as `cut` sets a
    span's fields: the constructor's `integer_form` and rank check would
    only confirm that the identity is integral and independent.  Each call
    makes a new object, so first-read caches stay with one caller."""
    span = object.__new__(AffineSubspace)
    span.__dict__["integer_form"] = (
        1, (0,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    return span


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
