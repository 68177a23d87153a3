"""Exact rational linear algebra: solvers, affine subspaces, feasibility.

All coordinates are Fractions; no predicate ever touches floating point.
An affine subspace compares and hashes by a canonical key (the primitive
integer reduced row-echelon form of its equations, by `row_reduce`, the
one elimination routine), computed once per object.  It meets a
hyperplane by `cut`, one substitution and no solve: the Voronoi
enumeration makes one per (J, k), and `intersect` folds them.  The
feasibility engine is Fourier-Motzkin elimination over mixed strict and
non-strict inequalities, with rational witness extraction.  That is
enough for the desk scales targeted here (a handful of variables, tens
of constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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


def clear_denominators(row: Sequence[Fraction]) -> tuple[int, ...]:
    """A rational row times the lcm of its denominators.  When some entry
    is 1, as a pivot entry of a reduced echelon row is, the result is
    already primitive: no prime divides all of its entries."""
    den = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (den // x.denominator) for x in row)


def nullspace(rows: Sequence[Sequence[Fraction]], n: int) -> tuple[Vector, ...]:
    if not rows:
        return tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )
    solved = solve_affine(rows, [Fraction(0)] * len(rows))
    assert solved is not None
    return solved[1]


@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace of Q^n as point + span(basis).

    Equality and hashing go through `key`, a canonical form of the subspace
    as a set, so two representations of one subspace are interchangeable
    as dict keys.  The implicit equations and the key are computed once
    per object.
    """

    point: Vector
    basis: tuple[Vector, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.point)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def parametrize(self, params: Sequence[Fraction]) -> Vector:
        out = list(self.point)
        for c, b in zip(params, self.basis):
            for k in range(len(out)):
                out[k] += c * b[k]
        return tuple(out)

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        normals, rhs = self.implicit()
        p = vec(x)
        return all(dot(a, p) == b for a, b in zip(normals, rhs))

    def contains(self, other: "AffineSubspace") -> bool:
        normals, _ = self.implicit()
        return self.contains_point(other.point) and all(
            dot(a, v) == 0 for a in normals for v in other.basis
        )

    @cached_property
    def key(self) -> tuple[tuple[int, ...], ...]:
        """The primitive integer rows of the reduced row-echelon form of the
        implicit equations [A | b], denominators cleared.  The whole space
        has the empty key."""
        normals, rhs = self.implicit()
        work = [list(a) + [b] for a, b in zip(normals, rhs)]
        rank = len(row_reduce(work, self.ambient_dim))
        return tuple(clear_denominators(row) for row in work[:rank])

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
        n = self.ambient_dim
        if self.dim == n:
            return (), ()
        normals = nullspace([list(b) for b in self.basis], n)
        return normals, tuple(dot(nrm, self.point) for nrm in normals)

    def cut(self, c: "Constraint") -> Optional["AffineSubspace"]:
        """The meet with the hyperplane a.x = b, or None; c is its equation
        in this subspace's parameters, Constraint(a, b).substitute(self).
        It pivots on c's first nonzero coefficient.  In `solve_affine`'s
        echelon form the parameters are the free coordinates, and the cut
        keeps that form: it is `solve_affine` on the stacked equations."""
        t = next((i for i, x in enumerate(c.coeffs) if x != 0), None)
        if t is None:
            return self if c.rhs == 0 else None
        pivot, lead = self.basis[t], c.coeffs[t]
        step = c.rhs / lead
        return AffineSubspace(
            tuple(x + step * y for x, y in zip(self.point, pivot)),
            tuple(
                tuple(x - f / lead * y for x, y in zip(b, pivot))
                for i, (f, b) in enumerate(zip(c.coeffs, self.basis))
                if i != t
            ),
        )

    def intersect(self, other: "AffineSubspace") -> Optional["AffineSubspace"]:
        """The meet with other, or None: this subspace cut by each implicit
        equation of other in turn."""
        meet: Optional[AffineSubspace] = self
        for a, b in zip(*other.implicit()):
            meet = meet.cut(Constraint(a, b).substitute(meet))
            if meet is None:
                break
        return meet


def whole_space(n: int) -> AffineSubspace:
    return AffineSubspace(tuple(Fraction(0) for _ in range(n)), nullspace([], n))


@dataclass(frozen=True)
class Constraint:
    """coeffs . x <= rhs, or < rhs when strict."""

    coeffs: Vector
    rhs: Fraction
    strict: bool = False

    def substitute(self, subspace: AffineSubspace) -> "Constraint":
        """Rewrite in the parameters of the subspace (x = p + B u)."""
        base = dot(self.coeffs, subspace.point)
        new_coeffs = tuple(dot(self.coeffs, b) for b in subspace.basis)
        return Constraint(new_coeffs, self.rhs - base, self.strict)


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
    """A rational point satisfying every constraint, or None.

    Fourier-Motzkin elimination; strictness propagates through combined
    constraints.  Witnesses are reconstructed by back-substitution,
    picking midpoints (or unit offsets for one-sided bounds).
    """
    levels: list[list[Constraint]] = [list(constraints)]
    for k in range(nvars):
        current = levels[-1]
        uppers, lowers, rest = [], [], []
        for c in current:
            a = c.coeffs[k] if k < len(c.coeffs) else Fraction(0)
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
                # combine to eliminate variable k: au*lo - al*up (al<0<au)
                coeffs = tuple(
                    au * lo.coeffs[j] - al * up.coeffs[j] for j in range(len(lo.coeffs))
                )
                rhs = au * lo.rhs - al * up.rhs
                nc = _normalized(Constraint(coeffs, rhs, lo.strict or up.strict))
                key = (nc.coeffs, nc.rhs)
                if key not in new or (nc.strict and not new[key].strict):
                    new[key] = nc
        levels.append(list(new.values()))
    for c in levels[-1]:
        zero = Fraction(0)
        if c.strict:
            if not zero < c.rhs:
                return None
        else:
            if not zero <= c.rhs:
                return None
    # back-substitute a witness, last variable first
    values: list[Fraction] = [Fraction(0)] * nvars
    for k in range(nvars - 1, -1, -1):
        lo_bound = None
        lo_strict = False
        up_bound = None
        up_strict = False
        for c in levels[k]:
            a = c.coeffs[k] if k < len(c.coeffs) else Fraction(0)
            if a == 0:
                continue
            residual = c.rhs - sum(
                c.coeffs[j] * values[j] for j in range(k + 1, len(c.coeffs))
            )
            bound = residual / a
            if a > 0:
                if up_bound is None or bound < up_bound or (bound == up_bound and c.strict):
                    up_bound, up_strict = bound, c.strict
            else:
                if lo_bound is None or bound > lo_bound or (bound == lo_bound and c.strict):
                    lo_bound, lo_strict = bound, c.strict
        if lo_bound is None and up_bound is None:
            values[k] = Fraction(0)
        elif lo_bound is None:
            values[k] = up_bound - 1 if up_strict else up_bound
        elif up_bound is None:
            values[k] = lo_bound + 1 if lo_strict else lo_bound
        else:
            if lo_bound == up_bound:
                values[k] = lo_bound
            else:
                values[k] = (lo_bound + up_bound) / 2
    return tuple(values)


def feasible(constraints: Sequence[Constraint], nvars: int) -> bool:
    return feasible_point(constraints, nvars) is not None
