"""Rational solvers, affine subspaces, and Fourier-Motzkin feasibility."""

import random
import sys
import threading
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernel
from fraction_kernel import Constraint, dot, nullspace, pairs
from snclab import qlinalg
from snclab.qlinalg import (
    AffineSubspace,
    feasible,
    feasible_point,
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


def counted_derivations(monkeypatch):
    """The rows of the cuts whose integer form is derived from now on: the
    first-use cache calls its function only for a pending cut."""
    derived = []
    cache = AffineSubspace.integer_form
    derive = cache.func

    def counted(span):
        derived.append(vars(span)["_cut"][1])
        return derive(span)

    monkeypatch.setattr(cache, "func", counted)
    return derived


def test_a_cut_reads_its_dimensions_without_its_form(monkeypatch):
    derived = counted_derivations(monkeypatch)
    whole = whole_space(3)
    assert whole.cut((0, 0, 0, 0)) is whole and whole.cut([0, 0, 0, 7]) is None
    span = whole.cut((2, -1, 0, 5))
    child = span.cut((0, 3, 4))
    assert (span.dim, span.ambient_dim, child.dim, child.ambient_dim) == (2, 3, 1, 3)
    assert child.cut((0, 0)) is child and child.cut((0, 1)) is None
    assert derived == []
    # forcing the child derives its parent's form too, each once
    form = child.integer_form
    assert derived == [(0, 3, 4), (2, -1, 0, 5)]
    assert child.integer_form is form == (6, (15, 0, 8), ((3, 6, 0),))
    assert span.integer_form == (2, (5, 0, 0), ((1, 2, 0), (0, 0, 2)))
    assert len(derived) == 2 and (child.dim, child.ambient_dim) == (1, 3)


@st.composite
def cut_chains(draw):
    """A span of spans_and_cuts and one to three rows, each in the
    parameters of the span the rows before it cut out (fewer when a cut is
    empty, the span itself or a point)."""
    span, first = draw(spans_and_cuts())
    entry = st.one_of(st.integers(-4, 4), RATIONAL)
    chain, rows, count = span, [first], draw(st.integers(1, 3))
    while len(rows) < count:
        chain = fraction_kernel.cut(chain, rows[-1])
        if chain is None or not chain.dim:
            break
        rows.append(Constraint(tuple(draw(entry) for _ in range(chain.dim)), draw(entry)))
    return span, rows


@settings(max_examples=300)
@given(cut_chains(), st.booleans())
@example((whole_space(3), [Constraint((1, 2, -1), 3), Constraint((0, 5), F(1, 2)),
                           Constraint((-3,), 2)]), True)
@example((whole_space(3), [Constraint((1, 2, -1), 3), Constraint((0, 5), F(1, 2)),
                           Constraint((-3,), 2)]), False)
def test_chained_cuts_forced_in_either_order_are_the_fraction_cuts(drawn, child_first):
    span, rows = drawn
    lazy, eager = [span], [span]
    for c in rows:
        got, want = lazy[-1].cut(c.row), fraction_kernel.cut(eager[-1], c)
        if want is None or want is eager[-1]:
            assert got is (None if want is None else lazy[-1])
            break
        assert (got.dim, got.ambient_dim) == (want.dim, want.ambient_dim)
        lazy.append(got)
        eager.append(want)
    for got in reversed(lazy) if child_first else lazy:
        got.integer_form
    for got, want in zip(lazy, eager):
        assert got.integer_form == want.integer_form
        assert got == want and hash(got) == hash(want)


def test_threads_racing_to_a_pending_cut_read_one_form():
    # a cut stores its form before it drops the pending cut, so a thread
    # that finds the cut no longer pending finds the form (the first-use
    # cache takes no lock on Python 3.12 and later)
    rows = [(3, -1, 2, 7), (5, 2, -4), (-2, 9)]

    def chain():
        spans = [whole_space(3)]
        for row in rows:
            spans.append(spans[-1].cut(row))
        return spans[1:]

    expected = [span.integer_form for span in chain()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            spans, seen = chain(), []

            def force():
                seen.append([span.integer_form for span in reversed(spans)][::-1])

            threads = [threading.Thread(target=force) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [expected] * 4
            assert not any("_cut" in vars(span) for span in spans)
    finally:
        sys.setswitchinterval(interval)


def test_a_cut_keeps_its_row_not_the_callers_list():
    row = [2, -2, 1]
    span = whole_space(2).cut(row)
    row[:] = [0, 1, 5]
    assert span.integer_form == (2, (1, 0), ((2, 2),))


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
    # whole_space sets its form without the constructor's checks: it is the
    # checked span's, for every dimension
    for n in range(1, 6):
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        fast, checked = whole_space(n), AffineSubspace((0,) * n, identity)
        assert fast.integer_form == checked.integer_form == (1, (0,) * n, identity)
        assert fast.key == checked.key == ()
        assert fast == checked and hash(fast) == hash(checked)
        assert (fast.dim, fast.ambient_dim) == (n, n)
        assert fast is not whole_space(n)
    halves = AffineSubspace((F(1, 2), F(-3, 4)), ((F(1), F(5, 6)),))
    assert halves.integer_form == (12, (6, -9), ((12, 10),))


def test_affine_subspace_is_frozen():
    # a span from the constructor, and the same span as a cut, which stays
    # frozen both while its form is pending and once it is derived
    span = AffineSubspace((F(1, 2), F(0)), ((F(1), F(1)),))
    lazy = whole_space(2).cut((2, -2, 1))
    for forced in (False, True):
        for s in (span, lazy):
            for name in ("point", "basis", "integer_form", "key", "dim", "ambient_dim", "_cut"):
                with pytest.raises(FrozenInstanceError):
                    setattr(s, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(s, name)
        assert ("integer_form" in vars(lazy)) is forced
        assert lazy.integer_form == span.integer_form == (2, (1, 0), ((2, 2),))
    assert lazy == span and hash(lazy) == hash(span) and "_cut" not in vars(lazy)
    assert span.point == (F(1, 2), F(0))


# --- one integer elimination routine ------------------------------------


@st.composite
def independent_spans(draw):
    """A subspace of Q^1..Q^5 through a point, all ints or with Fraction
    entries, spanned by drawn vectors, each kept when it raises the rank by
    the Fraction row reduction."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4) if draw(st.booleans()) else st.one_of(st.integers(-4, 4), RATIONAL)
    point = tuple(draw(entry) for _ in range(n))
    basis = []
    for _ in range(draw(st.integers(0, n + 1))):
        v = tuple(draw(entry) for _ in range(n))
        if len(fraction_kernel.row_reduce([vec(b) for b in (*basis, v)], n)) > len(basis):
            basis.append(v)
    return AffineSubspace(point, basis)


@settings(max_examples=300)
@given(independent_spans())
@example(whole_space(3))
@example(AffineSubspace((F(1, 2), 0, F(-3, 5)), ()))
def test_key_is_the_fraction_key(span):
    assert span.key == fraction_kernel.fraction_key(span)
    assert all(type(x) is int for row in span.key for x in row)


@given(integer_systems(), st.booleans())
def test_keys_along_a_cut_chain_are_the_fraction_keys(drawn, rational):
    n, (system,) = drawn
    span = whole_space(n)
    while span is not None:
        assert span.key == fraction_kernel.fraction_key(span)
        if not system:
            break
        a, b = system.pop()
        span = span.cut(span.row(vec(a) if rational else a, F(b, 3) if rational else b))


@st.composite
def linear_systems(draw):
    """1 to 4 equations over 1 to 4 variables, all ints or with Fraction
    entries; a multiple of the first row with its own rhs is often added,
    so consistent and inconsistent dependent systems are both drawn."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3) if draw(st.booleans()) else st.one_of(st.integers(-3, 3), RATIONAL)
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.append(tuple(2 * x for x in rows[0]))
    return rows, [draw(entry) for _ in rows]


@settings(max_examples=400)
@given(linear_systems())
@example(([(1, 1), (2, 2)], [1, 3]))
@example(([(1, 1), (2, 2)], [1, 2]))
@example(([(0, 0)], [0]))
@example(([(0, 0)], [F(1, 2)]))
def test_solve_affine_is_the_fraction_solve(drawn):
    rows, rhs = drawn
    solved = solve_affine(rows, rhs)
    assert solved == fraction_kernel.solve_affine(rows, rhs)
    assert solved is None or all(type(x) is F for v in (solved[0], *solved[1]) for x in v)


@given(independent_spans(), st.data())
def test_a_dependent_basis_raises(span, data):
    basis = list(span.basis)
    factors = [data.draw(st.integers(-2, 2)) for _ in basis]
    combination = tuple(sum((f * b[c] for f, b in zip(factors, basis)), F(0))
                        for c in range(span.ambient_dim))
    basis.insert(data.draw(st.integers(0, len(basis))), combination)
    with pytest.raises(ValueError):
        AffineSubspace(span.point, basis)


def test_a_dependent_basis_is_no_span():
    # a line given by two parallel vectors was once taken for the plane
    for basis in [((1, 0), (2, 0)), ((0, 0),), ((1, 2), (1, 2)), ((1, 0), (0, 1), (1, 1)),
                  ((F(1, 2), F(1, 3)), (3, 2))]:
        with pytest.raises(ValueError):
            AffineSubspace((0, 1), basis)


def test_a_basis_of_another_length_is_no_span():
    # a longer vector once passed for its first coordinates, so this span
    # compared equal to the x-axis; a shorter one was accepted as well
    with pytest.raises(ValueError, match="length"):
        AffineSubspace((0, 0), ((1, 0, 5),))
    with pytest.raises(ValueError, match="length"):
        AffineSubspace((0, 0, 0), ((1, 0),))
    with pytest.raises(ValueError, match="length"):
        AffineSubspace((0, 0, 0), ((1, 0, 0), (0, 1)))
    assert AffineSubspace((0, 0), ((1, 0),)).dim == 1


def test_keys_and_equations_hold_no_fraction():
    # the rational row reduction and its helpers are gone from the engine,
    # and keys and implicit equations are integer rows for Fraction spans
    # and for cuts by Fraction rows alike
    for name in ("row_reduce", "nullspace", "dot"):
        assert not hasattr(qlinalg, name), name
    halves = AffineSubspace((F(1, 2), F(-3, 4), F(2, 3)), ((F(1), F(5, 6), F(0)),))
    spans = [whole_space(3), halves, whole_space(3).cut((F(1, 2), F(2, 3), F(-1, 5), F(7, 4))),
             AffineSubspace((F(1, 7), F(2), F(0)), ())]
    for span in spans:
        normals, rhs = span.implicit()
        assert len(normals) == len(rhs) == span.ambient_dim - span.dim
        for value in (*span.key, *normals, rhs):
            assert all(type(x) is int for x in value)
