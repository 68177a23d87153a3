"""Canonical subspace keys and the per-complex subspace arrangement.

The memoised meets and containments are checked against a parametric
oracle that solves point + basis systems directly and never touches the
implicit equations, the canonical key or the arrangement.
"""

import functools
import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    FOUR_SITES_1D,
    RING_SITES,
    STRIP_SITES,
    THREE_SITES_1D,
    TRIANGLE_SITES,
    TWO_SITES_1D,
)
from snclab.qlinalg import AffineSubspace, dot, solve_affine
from snclab.snc import BlowupLedger, SncError, _verify_stage_disjointness, blowup_ledger, build_snc
from snclab.voronoi import (
    GenericityError,
    SiteSet,
    SubspaceArrangement,
    SubspaceRecord,
    VoronoiError,
    _check_intersection_closure,
    classify_subspaces,
    voronoi_complex,
)

# --- oracle -------------------------------------------------------------


def in_span(basis, v):
    if not basis:
        return all(x == 0 for x in v)
    return solve_affine(list(zip(*basis)), list(v)) is not None


def param_contains(big, small):
    diff = [x - y for x, y in zip(small.point, big.point)]
    return in_span(big.basis, diff) and all(in_span(big.basis, b) for b in small.basis)


def param_meet(s1, s2):
    """Solve p1 + B1 u = p2 + B2 v for (u, v); None when inconsistent."""
    n = s1.ambient_dim
    k1 = s1.dim
    if k1 + s2.dim == 0:
        return s1 if s1.point == s2.point else None
    rows = [[b[i] for b in s1.basis] + [-b[i] for b in s2.basis] for i in range(n)]
    rhs = [y - x for x, y in zip(s1.point, s2.point)]
    solved = solve_affine(rows, rhs)
    if solved is None:
        return None
    uv, kernel = solved
    directions = [tuple(sum(w[j] * s1.basis[j][i] for j in range(k1)) for i in range(n))
                  for w in kernel]
    spanning = []
    for d in directions:  # keep an independent subset
        if not in_span(spanning, d):
            spanning.append(d)
    return AffineSubspace(s1.parametrize(uv[:k1]), tuple(spanning))


def same_set(s1, s2):
    return s1.dim == s2.dim and param_contains(s1, s2) and param_contains(s2, s1)


# --- hash / eq contract -------------------------------------------------

small = st.integers(-4, 4)
rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def subspaces(draw, n=None):
    """H = {x : A x = A p} for random integer rows A and rational p."""
    n = n or draw(st.integers(1, 4))
    point = tuple(draw(st.lists(rationals, min_size=n, max_size=n)))
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n))
    rows = [r for r in rows if any(r)]
    if not rows:
        basis = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
        return AffineSubspace(point, basis)
    p, basis = solve_affine(rows, [dot(r, point) for r in rows])
    return AffineSubspace(p, basis)


@st.composite
def rewritten(draw, sub):
    """The same set with a recombined basis and a shifted base point."""
    k = sub.dim
    # unit lower-triangular times an invertible diagonal: invertible over Q
    lower = [[F(1) if i == j else (draw(small) if j < i else F(0)) for j in range(k)]
             for i in range(k)]
    scale = [draw(rationals.filter(lambda x: x != 0)) for _ in range(k)]
    basis = tuple(
        tuple(sum(lower[i][j] * scale[i] * sub.basis[j][c] for j in range(k))
              for c in range(sub.ambient_dim))
        for i in range(k)
    )
    shift = [draw(rationals) for _ in range(k)]
    return AffineSubspace(sub.parametrize(shift), basis[::-1])


@given(st.data())
def test_rewritten_subspace_is_equal_and_hashes_equal(data):
    sub = data.draw(subspaces())
    other = data.draw(rewritten(sub))
    assert same_set(sub, other)
    assert sub == other
    assert hash(sub) == hash(other)
    assert sub.key == other.key
    assert all(math.gcd(*row) == 1 and row[next(i for i, x in enumerate(row) if x)] > 0
               for row in sub.key)
    assert len({sub, other}) == 1
    assert {sub: "first", other: "second"} == {sub: "second"}


@given(st.data())
def test_equality_matches_set_equality(data):
    n = data.draw(st.integers(1, 3))
    s1 = data.draw(subspaces(n))
    s2 = data.draw(subspaces(n))
    assert (s1 == s2) == same_set(s1, s2)
    if s1 == s2:
        assert hash(s1) == hash(s2)


@given(st.data())
def test_shifted_off_the_subspace_is_not_equal(data):
    sub = data.draw(subspaces())
    if sub.dim == sub.ambient_dim:
        return
    normal = sub.implicit()[0][0]
    moved = AffineSubspace(tuple(x + c for x, c in zip(sub.point, normal)), sub.basis)
    assert not same_set(sub, moved)
    assert sub != moved
    assert len({sub, moved}) == 2


def test_equality_needs_the_same_ambient_space():
    assert AffineSubspace((F(0),), ((F(1),),)) != AffineSubspace(
        (F(0), F(0)), ((F(1), F(0)), (F(0), F(1)))
    )


def test_lru_cache_around_contains_terminates(monkeypatch):
    cached = functools.lru_cache(maxsize=None)(AffineSubspace.contains)
    monkeypatch.setattr(AffineSubspace, "contains", cached)
    line = AffineSubspace((F(0), F(0)), ((F(1), F(1)),))
    twin = AffineSubspace((F(0), F(0)), ((F(1), F(1)),))
    other = AffineSubspace((F(5), F(5)), ((F(-2), F(-2)),))
    point = AffineSubspace((F(2), F(2)), ())
    assert line.contains(point) and twin.contains(point) and other.contains(point)
    assert line == twin == other
    assert cached.cache_info().hits == 2


# --- memoised meets and containment against the oracle ------------------


def check_arrangement(vc):
    arrangement = vc.arrangement
    spans = vc.subspaces
    meets = []
    for j1, j2 in combinations(sorted(spans, key=sorted), 2):
        meet = arrangement.meet(j1, j2)
        expected = param_meet(spans[j1], spans[j2])
        assert (meet is None) == (expected is None)
        assert meet == spans[j1].intersect(spans[j2])
        if meet is not None:
            assert same_set(meet, expected)
            meets.append(meet)
            key = arrangement.lookup(meet)
            assert key == next((j for j, s in spans.items() if same_set(s, meet)), None)
    for j in spans:
        for other in list(spans.values()) + meets:
            assert arrangement.contains(j, other) == param_contains(spans[j], other)
            assert arrangement.contains(j, other) == spans[j].contains(other)


@pytest.mark.parametrize(
    "sites",
    [TWO_SITES_1D, THREE_SITES_1D, FOUR_SITES_1D, TRIANGLE_SITES, STRIP_SITES, RING_SITES],
    ids=["two_1d", "three_1d", "four_1d", "triangle", "strip", "ring"],
)
def test_memoised_facts_match_oracle_on_corpus(sites):
    vc = voronoi_complex(sites)
    build_snc(vc, vc.cell_indices())  # fills the memo first
    check_arrangement(vc)


@settings(max_examples=12)
@given(st.data())
def test_memoised_facts_match_oracle_on_random_sites(data):
    dim = data.draw(st.sampled_from([1, 2, 2, 3]))
    n = data.draw(st.integers(2, {1: 5, 2: 6, 3: 5}[dim]))
    points = data.draw(
        st.lists(st.tuples(*[st.integers(0, 20)] * dim), min_size=n, max_size=n, unique=True)
    )
    vc = voronoi_complex(SiteSet.build(dim, points))
    try:
        vc.arrangement
    except GenericityError:
        return
    if vc.is_simple():
        try:
            build_snc(vc, vc.cell_indices())
        except (VoronoiError, SncError):
            pass  # a failing self-check still leaves memoised facts to compare
    check_arrangement(vc)


# --- negative tests for the rewired self-checks -------------------------

VC_TRIANGLE = voronoi_complex(TRIANGLE_SITES)
VC_STRIP = voronoi_complex(STRIP_SITES)


def record(vc, sites):
    key = frozenset(sites)
    return SubspaceRecord(key, vc.subspaces[key])


def test_stage_disjointness_rejects_overlapping_stage_0_centers():
    q = record(VC_STRIP, {0, 1, 2})
    assert q.dim == 0
    with pytest.raises(SncError, match="stage-0 centers .* overlap outside"):
        _verify_stage_disjointness(VC_STRIP, BlowupLedger(1, (q, q)))


def test_stage_disjointness_needs_the_covering_point():
    # two parasitic lines of cell 0 meet at H{1,2,3,4}; without that point
    # in the ledger their overlap is not covered by an earlier center
    vc = voronoi_complex(
        SiteSet.build(3, [[6, 31, 1], [7, 31, 28], [8, 4, 16], [24, 27, 0], [30, 24, 13]])
    )
    full = blowup_ledger(vc, 0)
    pruned = BlowupLedger(0, tuple(c for c in full.centers if c.sites != {1, 2, 3, 4}))
    with pytest.raises(SncError, match=r"stage-1 centers H\[1, 2, 3\] and H\[1, 2, 4\]"):
        _verify_stage_disjointness(vc, pruned)


def test_intersection_closure_rejects_essential_union():
    parasitic = [record(VC_TRIANGLE, {0, 1}), record(VC_TRIANGLE, {1, 2})]
    with pytest.raises(VoronoiError, match=r"is essential H\[0, 1, 2\]"):
        _check_intersection_closure(VC_TRIANGLE, parasitic)


def test_intersection_closure_rejects_essential_meet():
    # the bisector of sites 2 and 3 runs through the circumcentre (1, 1)
    # of sites 0, 1, 4, so H{0,1} and H{2,3} meet exactly in H{0,1,4}
    vc = voronoi_complex(SiteSet.build(2, [[0, 0], [2, 0], [4, 2], [0, 4], [0, 2]]))
    parasitic = [record(vc, {0, 1}), record(vc, {2, 3})]
    with pytest.raises(VoronoiError, match=r"equals essential H\[0, 1, 4\]"):
        _check_intersection_closure(vc, parasitic)
    _check_intersection_closure(vc, parasitic + [record(vc, {0, 1, 4})])


def test_genericity_error_names_the_first_pair():
    # evenly spaced sites: H{0,3} = H{1,2}, H{0,4} = H{1,3}, H{1,4} = H{2,3}
    vc = voronoi_complex(SiteSet.build(1, [[0], [1], [2], [3], [4]]))
    message = r"H\[0, 3\] and H\[1, 2\] span the same subspace"
    with pytest.raises(GenericityError, match=message):
        vc.arrangement
    table = list(vc.subspaces.items())
    rng = random.Random(8)
    for _ in range(5):
        rng.shuffle(table)
        with pytest.raises(GenericityError, match=message):
            SubspaceArrangement(dict(table))


def test_genericity_error_names_a_vertex_on_another_bisector():
    # the Voronoi vertex H{3,5,6} = (23/2, 7/2) lies on the bisector H{1,4};
    # no two index sets share a subspace, so the arrangement accepts it
    sites = [[0, 1], [4, 11], [5, 7], [7, 3], [10, 14], [11, 8], [12, 8]]
    vc = voronoi_complex(SiteSet.build(2, sites))
    vc.arrangement
    message = r"H\[1, 4\] contains H\[3, 5, 6\] although their index sets are disjoint"
    with pytest.raises(GenericityError, match=message):
        classify_subspaces(vc, 3)
