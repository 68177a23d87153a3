"""Rational solvers, affine subspaces, and Fourier-Motzkin feasibility."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernel
from fraction_kernel import Constraint, pairs
from snclab.qlinalg import (
    AffineSubspace,
    dot,
    feasible,
    feasible_point,
    nullspace,
    solve_affine,
    vec,
    whole_space,
)


def test_solve_affine_unique():
    point, basis = solve_affine([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert point == (F(2), F(1))
    assert basis == ()


def test_solve_affine_underdetermined():
    point, basis = solve_affine([[F(1), F(1), F(0)]], [F(2)])
    assert dot((F(1), F(1), F(0)), point) == 2
    assert len(basis) == 2
    for b in basis:
        assert dot((F(1), F(1), F(0)), b) == 0


def test_solve_affine_inconsistent():
    assert solve_affine([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_nullspace_dimensions():
    basis = nullspace([[F(1), F(2), F(3)]], 3)
    assert len(basis) == 2
    assert nullspace([], 2)[0] == (F(1), F(0))


def test_affine_subspace_relations():
    line = AffineSubspace((F(0), F(0)), ((F(1), F(1)),))
    point = AffineSubspace((F(2), F(2)), ())
    assert fraction_kernel.contains(line, point)
    assert not fraction_kernel.contains(point, line)
    other = AffineSubspace((F(5), F(5)), ((F(-2), F(-2)),))
    assert line == other
    shifted = AffineSubspace((F(0), F(1)), ((F(1), F(1)),))
    assert line != shifted
    assert line.intersect(shifted) is None
    cross = AffineSubspace((F(0), F(2)), ((F(1), F(-1)),))
    meet = line.intersect(cross)
    assert meet is not None and meet.dim == 0
    assert meet.point == (F(1), F(1))


def test_implicit_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        point = vec([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)])
        raw = [
            vec([F(rng.randint(-3, 3)) for _ in range(n)]) for _ in range(k)
        ]
        rows = [r for r in raw if any(x != 0 for x in r)]
        sub_pt, sub_basis = solve_affine(rows, [dot(r, point) for r in rows]) if rows else (
            point, whole_space(n).basis
        )
        sub = AffineSubspace(sub_pt, sub_basis)
        normals, rhs = sub.implicit()
        assert all(dot(nrm, sub.point) == b for nrm, b in zip(normals, rhs))
        for b in sub.basis:
            assert all(dot(nrm, b) == 0 for nrm in normals)
        assert fraction_kernel.contains_point(sub, sub.parametrize([F(1)] * sub.dim))


def test_feasible_point_simple_polytope():
    # 0 <= x <= 1, 0 <= y <= 1, x + y < 3/2
    cs = [
        Constraint((F(-1), F(0)), F(0)),
        Constraint((F(1), F(0)), F(1)),
        Constraint((F(0), F(-1)), F(0)),
        Constraint((F(0), F(1)), F(1)),
        Constraint((F(1), F(1)), F(3, 2), strict=True),
    ]
    w = feasible_point(pairs(cs), 2)
    assert w is not None
    for c in cs:
        value = dot(c.coeffs, w)
        assert value < c.rhs if c.strict else value <= c.rhs


def test_infeasible_strict_system():
    # x < 0 and x > 0
    cs = [
        Constraint((F(1),), F(0), strict=True),
        Constraint((F(-1),), F(0), strict=True),
    ]
    assert feasible_point(pairs(cs), 1) is None
    # x <= 0 and x >= 0 meets only at 0, which a strict constraint kills
    cs2 = [
        Constraint((F(1),), F(0)),
        Constraint((F(-1),), F(0)),
        Constraint((F(1),), F(0), strict=True),
    ]
    assert feasible_point(pairs(cs2), 1) is None
    cs3 = [Constraint((F(1),), F(0)), Constraint((F(-1),), F(0))]
    assert feasible_point(pairs(cs3), 1) == (F(0),)


def test_unbounded_directions():
    # x >= 5, strict y > x: witnesses exist arbitrarily far out
    cs = [
        Constraint((F(-1), F(0)), F(-5)),
        Constraint((F(1), F(-1)), F(0), strict=True),
    ]
    w = feasible_point(pairs(cs), 2)
    assert w is not None and w[0] >= 5 and w[1] > w[0]


def test_randomized_witness_soundness():
    rng = random.Random(23)
    agree = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        cs = []
        for _ in range(rng.randint(1, 6)):
            coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            cs.append(
                Constraint(coeffs, F(rng.randint(-4, 4)), strict=rng.random() < 0.4)
            )
        w = feasible_point(pairs(cs), n)
        if w is None:
            # soundness of infeasibility is cross-checked by sampling
            for _ in range(40):
                x = tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n))
                ok = all(
                    (dot(c.coeffs, x) < c.rhs) if c.strict else (dot(c.coeffs, x) <= c.rhs)
                    for c in cs
                )
                assert not ok
        else:
            agree += 1
            for c in cs:
                value = dot(c.coeffs, w)
                assert value < c.rhs if c.strict else value <= c.rhs
    assert agree > 50


@st.composite
def rational_systems(draw):
    """0 to 3 variables and up to 8 rows, strict and non-strict, among them
    all-zero rows and rows repeated up to a positive scale.  The entries
    are Fractions, or Python ints as the kernel's callers pass them."""
    n = draw(st.integers(0, 3))
    if draw(st.booleans()):
        zero, entry, scales = 0, st.integers(-4, 4), st.integers(1, 5)
    else:
        zero, entry = F(0), st.builds(F, st.integers(-4, 4), st.integers(1, 3))
        scales = st.builds(F, st.integers(1, 5), st.integers(1, 5))
    rows = draw(st.lists(st.tuples(st.tuples(*[entry] * n), entry, st.booleans()), max_size=6))
    for _ in range(draw(st.integers(0, 8 - len(rows)))):
        if rows and draw(st.booleans()):
            coeffs, rhs, _ = draw(st.sampled_from(rows))
            scale = draw(scales)
            rows.append((tuple(scale * x for x in coeffs), scale * rhs, draw(st.booleans())))
        else:
            rows.append(((zero,) * n, draw(entry), draw(st.booleans())))
    rows = draw(st.permutations(rows))
    return n, [Constraint(a, b, strict) for a, b, strict in rows]


@settings(max_examples=400)
@given(rational_systems())
# one per value the back-substitution picks: unbounded (0), a strict and a
# non-strict upper bound alone, the same for a lower bound, bounds that meet,
# a midpoint, and a last variable bounded only through the level below it
@example((1, []))
@example((1, [Constraint((F(2),), F(3), strict=True)]))
@example((1, [Constraint((F(2),), F(3))]))
@example((1, [Constraint((F(-3),), F(1), strict=True)]))
@example((1, [Constraint((F(-3),), F(1))]))
@example((1, [Constraint((F(2),), F(1)), Constraint((F(-4),), F(-2))]))
@example((1, [Constraint((F(3),), F(2)), Constraint((F(-5),), F(1))]))
@example((2, [Constraint((F(1), F(-1, 2)), F(1, 3)),
              Constraint((F(-2), F(0)), F(-5, 7), strict=True)]))
# integer rows 2x + y <= 3, x >= 0, y >= 0: the witness (3/8, 3/2)
@example((2, [Constraint((2, 1), 3), Constraint((-1, 0), 0), Constraint((0, -1), 0)]))
def test_integer_feasible_point_is_the_fraction_oracle(drawn):
    n, system = drawn
    witness = feasible_point(pairs(system), n)
    expected = fraction_kernel.feasible_point(system, n)
    assert witness == expected
    # a float would compare equal to a Fraction of the same value
    assert witness is None or all(type(x) is F for x in witness + expected)


@settings(max_examples=400)
@given(rational_systems())
# a lower and an upper bound that meet, one of them strict; a strict 0 < 0
@example((1, [Constraint((F(-1),), F(0)), Constraint((F(2),), F(0), strict=True)]))
@example((1, [Constraint((F(-2),), F(-1), strict=True), Constraint((F(1),), F(1, 2))]))
@example((0, [Constraint((), F(0), strict=True)]))
def test_feasible_decides_as_the_fraction_oracle(drawn):
    n, system = drawn
    assert feasible(pairs(system), n) == (fraction_kernel.feasible_point(system, n) is not None)


@st.composite
def integer_systems(draw, count=1):
    """count systems of 1 to 3 integer rows over one space of 1 to 3 variables."""
    n = draw(st.integers(1, 3))
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(-4, 4))
    return n, [draw(st.lists(row, min_size=1, max_size=3)) for _ in range(count)]


def fold_cuts(n, system):
    """The whole space cut by each row of system in turn, or None."""
    sub = whole_space(n)
    for a, b in system:
        sub = sub.cut(sub.row(vec(a), F(b)))
        if sub is None:
            return None
    return sub


def stacked_intersect(s1, s2):
    """The meet by one solve of both implicit systems stacked (the former
    body of AffineSubspace.intersect)."""
    if not s1.basis:
        return s1 if fraction_kernel.contains(s2, s1) else None
    if not s2.basis:
        return s2 if fraction_kernel.contains(s1, s2) else None
    a1, b1 = s1.implicit()
    a2, b2 = s2.implicit()
    rows = list(a1) + list(a2)
    rhs = list(b1) + list(b2)
    if not rows:
        return AffineSubspace(s1.point, s1.basis)
    solved = solve_affine(rows, rhs)
    return None if solved is None else AffineSubspace(solved[0], solved[1])


@given(integer_systems())
def test_cut_fold_is_solve_affine(drawn):
    n, (system,) = drawn
    folded = fold_cuts(n, system)
    solved = solve_affine([vec(a) for a, _ in system], vec([b for _, b in system]))
    if solved is None:
        assert folded is None
    else:
        assert folded is not None and (folded.point, folded.basis) == solved


@given(integer_systems(count=2))
def test_intersect_is_stacked_solve(drawn):
    n, systems = drawn
    s1, s2 = (fold_cuts(n, system) for system in systems)
    if s1 is None or s2 is None:
        return
    meet, expected = s1.intersect(s2), stacked_intersect(s1, s2)
    if expected is None:
        assert meet is None
    else:
        assert meet is not None and (meet.point, meet.basis) == (expected.point, expected.basis)


RATIONAL = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def spans_and_cuts(draw):
    """A subspace of Q^1..Q^3 in solve_affine's echelon form through a
    rational point, and a row in its parameters: all ints or with Fraction
    entries, with negative and zero leading coefficients, or all zero."""
    n = draw(st.integers(1, 3))
    point = tuple(draw(RATIONAL) for _ in range(n))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n))
    rows = [vec(r) for r in rows if any(r)]
    basis = solve_affine(rows, [dot(r, point) for r in rows])[1] if rows else whole_space(n).basis
    span = AffineSubspace(point, basis)
    entry = st.integers(-4, 4) if draw(st.booleans()) else st.one_of(st.integers(-4, 4), RATIONAL)
    if draw(st.integers(0, 4)) == 0:
        coeffs = (0,) * span.dim
    else:
        coeffs = tuple(draw(entry) for _ in range(span.dim))
    return span, Constraint(coeffs, draw(entry))


@settings(max_examples=400)
@given(spans_and_cuts())
@example((whole_space(2), Constraint((0, 0), 0)))
@example((whole_space(2), Constraint((0, 0), 1)))
@example((AffineSubspace((F(1, 3), F(2, 7)), whole_space(2).basis), Constraint((-3, 2), F(5, 2))))
def test_integer_cut_is_the_fraction_cut(drawn):
    span, c = drawn
    got, want = span.cut(c.row), fraction_kernel.cut(span, c)
    if want is None or want is span:
        assert got is want
        return
    assert got.point == want.point and got.basis == want.basis
    assert got.integer_form == want.integer_form
    assert got == want and hash(got) == hash(want)
    den, point, basis = got.integer_form
    assert den > 0 and gcd(den, *point, *(x for b in basis for x in b)) == 1


@given(spans_and_cuts(), st.data())
def test_row_is_the_fraction_substitution_scaled(drawn, data):
    # a.x <= b in the span's parameters is the Fraction substitution times
    # the span's denominator D, and integer for integer a and b
    span, _ = drawn
    entry = st.one_of(st.integers(-4, 4), RATIONAL)
    a = data.draw(st.tuples(*[entry] * span.ambient_dim))
    b = data.draw(entry)
    got = span.row(a, b)
    want = fraction_kernel.substitute(Constraint(a, b), span).row
    assert got == tuple(span.integer_form[0] * x for x in want)
    if all(type(x) is int for x in (*a, b)):
        assert all(type(x) is int for x in got)


def test_spans_from_ints_and_fractions_are_one_span():
    cases = [((0, 0), ((1, 0), (0, 1))), ((3, -2), ((1, 1),)), ((5, 0, 7), ()),
             ((2, 4), ((2, -6),))]
    for point, basis in cases:
        ints = AffineSubspace(point, basis)
        fracs = AffineSubspace(vec(point), tuple(map(vec, basis)))
        assert ints == fracs and hash(ints) == hash(fracs)
        assert ints.integer_form == fracs.integer_form
        assert ints.point == fracs.point and ints.basis == fracs.basis
    assert whole_space(2) == AffineSubspace((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))
    assert whole_space(2).integer_form == (1, (0, 0), ((1, 0), (0, 1)))
    halves = AffineSubspace((F(1, 2), F(-3, 4)), ((F(1), F(5, 6)),))
    assert halves.integer_form == (12, (6, -9), ((12, 10),))


def test_affine_subspace_is_frozen():
    span = AffineSubspace((F(1, 2), F(0)), ((F(1), F(1)),))
    for name in ("point", "basis", "integer_form", "key", "dim"):
        with pytest.raises(FrozenInstanceError):
            setattr(span, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(span, name)
    assert span.integer_form == (2, (1, 0), ((2, 2),))
    assert span.point == (F(1, 2), F(0))
