"""The Fraction-only geometry kernel, kept as a test oracle.

`feasible_point` is Fourier-Motzkin elimination with every row normalized
by the absolute value of its leading coefficient, and `substitute` writes
a constraint in a subspace's parameters x = p + B u by Fraction dot
products.  The integer kernel in `snclab.qlinalg` must return exactly the
same witnesses, and rows equal to these up to a positive scale.
"""

from fractions import Fraction
from typing import Optional, Sequence

from snclab.qlinalg import AffineSubspace, Constraint, Vector, dot


def substitute(c: Constraint, subspace: AffineSubspace) -> Constraint:
    """c rewritten in the parameters of the subspace (x = p + B u)."""
    base = dot(c.coeffs, subspace.point)
    new_coeffs = tuple(dot(c.coeffs, b) for b in subspace.basis)
    return Constraint(new_coeffs, c.rhs - base, c.strict)


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
    """A rational point satisfying every constraint, or None."""
    levels: list[list[Constraint]] = [list(constraints)]
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
