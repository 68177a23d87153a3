"""Canonical subspace keys and the per-complex subspace arrangement.

The arrangement's meets, containments and exceptional sets are checked
against a parametric oracle that solves point + basis systems directly and
never touches the implicit equations, the canonical key or the arrangement.
Its self-checks are checked against the geometric versions they replace,
and its distance partitions against canonical-key equality.
"""

import functools
import math
import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernel
from fraction_kernel import dot, solve_affine
from corpus import (
    FOUR_SITES_1D,
    HIDDEN_CONTAINMENTS,
    RING_SITES,
    STRIP_SITES,
    THREE_SITES_1D,
    TRIANGLE_SITES,
    TWO_SITES_1D,
    seeded_sites,
)
from snclab import qlinalg, voronoi
from snclab.qlinalg import AffineSubspace
from snclab.snc import (
    Chart,
    SncCheckError,
    SncError,
    _verify_ledger_match,
    _verify_stage_disjointness,
    build_snc,
)
from snclab.voronoi import (
    GenericityError,
    SiteSet,
    SubspaceArrangement,
    SubspaceRecord,
    VoronoiCheckError,
    VoronoiError,
    _check_intersection_closure,
    _overlapping_pairs,
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


def test_lru_cache_around_contains_terminates():
    cached = functools.lru_cache(maxsize=None)(fraction_kernel.contains)
    line = AffineSubspace((F(0), F(0)), ((F(1), F(1)),))
    twin = AffineSubspace((F(0), F(0)), ((F(1), F(1)),))
    other = AffineSubspace((F(5), F(5)), ((F(-2), F(-2)),))
    point = AffineSubspace((F(2), F(2)), ())
    assert cached(line, point) and cached(twin, point) and cached(other, point)
    assert line == twin == other
    assert cached.cache_info().hits == 2


# --- index-algebra incidence against the oracle --------------------------


def check_arrangement(vc):
    arrangement = vc.arrangement
    spans = vc.subspaces
    ordered = lattice(spans)
    pairs = [frozenset(p) for p in combinations(range(len(vc.sites)), 2)]
    for q in spans:
        hidden = any(not p <= q and param_contains(spans[p], spans[q]) for p in pairs)
        assert (q in arrangement.exceptional) == hidden
    for j1, j2 in combinations(ordered, 2):
        expected = param_meet(spans[j1], spans[j2])
        if j1 & j2:
            meet = spans.get(j1 | j2)
            assert (meet is None) == (expected is None)
            assert meet is None or same_set(meet, expected)
            continue
        meet = arrangement.disjoint_meet(j1, j2)
        assert (meet is None) == (expected is None)
        key = arrangement.lookup(j1, j2)
        if meet is None:
            assert key is None
            continue
        dim, partition = meet
        assert (dim, partition) == (expected.dim, distance_partition(vc.sites, expected))
        assert key == next((j for j, s in spans.items() if same_set(s, expected)), None)
        for j in ordered:
            assert any(j <= c for c in partition) == param_contains(spans[j], expected)
    above = set()
    for q in spans:
        containers = [j for j in ordered if param_contains(spans[j], spans[q])]
        assert arrangement.containing(q) == containers
        for j in spans:
            assert arrangement.within(q, j) == (j in containers)
        if q in arrangement.exceptional:
            above.update(containers)
    assert arrangement.above_exceptional == above
    by_dim = sorted(spans, key=lambda j: (spans[j].dim, sorted(j)))
    assert [r.sites for r in arrangement.records_by_dim] == by_dim
    expected = []
    for d in range(1, vc.dim - 1):
        for a, b in combinations([j for j in by_dim if spans[j].dim == d], 2):
            meet = param_meet(spans[a], spans[b])
            if meet is not None:
                covers = {j for j in spans if spans[j].dim < d and param_contains(spans[j], meet)}
                expected.append((a, b, meet.dim, covers))
    assert list(arrangement.meeting_pairs) == expected


@pytest.mark.parametrize(
    "sites",
    [TWO_SITES_1D, THREE_SITES_1D, FOUR_SITES_1D, TRIANGLE_SITES, STRIP_SITES, RING_SITES],
    ids=["two_1d", "three_1d", "four_1d", "triangle", "strip", "ring"],
)
def test_memoised_facts_match_oracle_on_corpus(sites):
    vc = voronoi_complex(sites)
    build_snc(vc, vc.cell_indices())  # fills the memo first
    check_arrangement(vc)


@pytest.mark.parametrize("name", ["crossing_axes", "crossing_axes_vertex"])
def test_memoised_facts_match_oracle_on_crossing_lines(name):
    # disjoint same-stage lines that meet, with and without a covering point
    check_arrangement(voronoi_complex(HIDDEN_CONTAINMENTS[name]))


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


def star_of(cell, vc):
    return frozenset(r.sites for r in classify_subspaces(vc, cell).essential)


def all_but(vc, *parasitic):
    """The forged star that leaves exactly the given index sets parasitic."""
    return frozenset(vc.subspaces) - {frozenset(p) for p in parasitic}


def test_stage_disjointness_needs_the_covering_point():
    # two parasitic lines of cell 0 meet at H{1,2,3,4}; with that point in
    # the star it leaves the ledger, and their overlap is not covered by an
    # earlier center
    vc = voronoi_complex(
        SiteSet.build(3, [[6, 31, 1], [7, 31, 28], [8, 4, 16], [24, 27, 0], [30, 24, 13]])
    )
    star = star_of(0, vc)
    _verify_stage_disjointness(vc, 0, star)
    with pytest.raises(SncError, match=r"stage-1 centers H\[1, 2, 3\] and H\[1, 2, 4\]"):
        _verify_stage_disjointness(vc, 0, star | {frozenset({1, 2, 3, 4})})


def test_intersection_closure_rejects_essential_union():
    star = all_but(VC_TRIANGLE, {0, 1}, {1, 2})
    with pytest.raises(VoronoiError, match=r"is essential H\[0, 1, 2\]"):
        _check_intersection_closure(VC_TRIANGLE, star)


def test_intersection_closure_rejects_essential_meet():
    # the bisector of sites 2 and 3 runs through the circumcentre (1, 1)
    # of sites 0, 1, 4, so H{0,1} and H{2,3} meet exactly in H{0,1,4}
    vc = voronoi_complex(SiteSet.build(2, [[0, 0], [2, 0], [4, 2], [0, 4], [0, 2]]))
    with pytest.raises(VoronoiError, match=r"equals essential H\[0, 1, 4\]"):
        _check_intersection_closure(vc, all_but(vc, {0, 1}, {2, 3}))
    _check_intersection_closure(vc, all_but(vc, {0, 1}, {2, 3}, {0, 1, 4}))


VC_SPATIAL = voronoi_complex(seeded_sites(11, 5, 3))


@pytest.mark.parametrize("key, parasitic, message", [
    ({0, 1, 2}, [{0, 1}, {1, 2}], r"H\[0, 1\] and H\[1, 2\] is essential H\[0, 1, 2\]$"),
    ({0, 1, 2, 3}, [{0, 1, 2}, {1, 2, 3}],
     r"H\[0, 1, 2\] and H\[1, 2, 3\] is essential H\[0, 1, 2, 3\]$"),
    ({0, 1, 2, 3}, [{0, 1}, {1, 2, 3}],
     r"H\[0, 1\] and H\[1, 2, 3\] is essential H\[0, 1, 2, 3\]$"),
], ids=["line", "point_from_lines", "point_from_plane_and_line"])
def test_intersection_closure_rejects_overlapping_parasitic_pairs(key, parasitic, message):
    # synthetic 3D stars: a line or a point of the star whose two parasitic
    # subsets share a site and cover it
    star = all_but(VC_SPATIAL, *parasitic)
    assert frozenset(key) in star
    with pytest.raises(VoronoiCheckError, match=message):
        _check_intersection_closure(VC_SPATIAL, star)
    _check_intersection_closure(VC_SPATIAL, star | {frozenset(parasitic[0])})


def test_overlapping_pairs_are_the_parasitic_pairs_meeting_in_the_star():
    # the candidates read off each star key are every pair of parasitic
    # index sets, in record order, that shares a site and meets in a star
    # key: no disjoint pair, and none meeting in a parasitic subset
    vc = VC_SPATIAL
    keys = [r.sites for r in vc.arrangement.records]
    line, point = frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})
    rng = random.Random(35)
    stars = [frozenset({line}), frozenset({point}), frozenset({line, point}),
             all_but(vc, {0, 1}, {1, 2}), all_but(vc, {0, 1}, {2, 3}, {0, 2}),
             *(star_of(cell, vc) for cell in vc.cell_indices()),
             *(frozenset(rng.sample(keys, rng.randint(1, len(keys)))) for _ in range(20))]
    for star in stars:
        parasitic = [j for j in keys if j not in star]
        expected = {(a, b) for a, b in combinations(parasitic, 2) if a & b and a | b in star}
        assert _overlapping_pairs(star) == expected


def test_genericity_error_names_the_first_pair():
    # evenly spaced sites: H{0,3} = H{1,2}, H{0,4} = H{1,3}, H{1,4} = H{2,3}
    vc = voronoi_complex(SiteSet.build(1, [[0], [1], [2], [3], [4]]))
    message = r"H\[0, 3\] and H\[1, 2\] span the same subspace"
    with pytest.raises(GenericityError, match=message):
        vc.arrangement
    table = list(vc.subspaces.items())
    partitions = list(vc._spans[1].items())
    rng = random.Random(8)
    for _ in range(5):
        rng.shuffle(table)
        rng.shuffle(partitions)
        with pytest.raises(GenericityError, match=message):
            SubspaceArrangement(vc.sites, dict(table), dict(partitions))


def test_genericity_error_names_a_vertex_on_another_bisector():
    # the Voronoi vertex H{3,5,6} = (23/2, 7/2) lies on the bisector H{1,4};
    # no two index sets share a subspace, so the arrangement accepts it
    sites = [[0, 1], [4, 11], [5, 7], [7, 3], [10, 14], [11, 8], [12, 8]]
    vc = voronoi_complex(SiteSet.build(2, sites))
    vc.arrangement
    message = r"H\[1, 4\] contains H\[3, 5, 6\] although their index sets are disjoint"
    with pytest.raises(GenericityError, match=message):
        classify_subspaces(vc, 3)


# --- the geometric self-checks as the reference ---------------------------
#
# The checks as they read geometry before incidence came from the index
# sets: a canonical-key table over every H(J), solved meets and solved
# containment, every pair examined.  The index-algebra checks must reach
# the same verdicts and name the same first failure.


def lattice(spans):
    return sorted(spans, key=lambda j: (len(j), sorted(j)))


class GeometricArrangement:
    def __init__(self, spans):
        self.spans = spans
        self.index = {}
        for key in lattice(spans):
            first = self.index.setdefault(spans[key], key)
            if first != key:
                raise GenericityError(f"H{sorted(first)} and H{sorted(key)} span the same subspace")
        self.meets = {}

    def meet(self, j1, j2):
        if (j1, j2) not in self.meets:
            self.meets[j1, j2] = self.spans[j1].intersect(self.spans[j2])
        return self.meets[j1, j2]

    def contains(self, j, span):
        return fraction_kernel.contains(self.spans[j], span)


def geometric_contains(reference, big, small):
    if big.sites <= small.sites:
        return True
    if big.sites & small.sites:
        return False
    if reference.contains(big.sites, small.span):
        raise GenericityError(
            f"H{sorted(big.sites)} contains H{sorted(small.sites)} although their "
            f"index sets are disjoint"
        )
    return False


def geometric_classify(vc, reference, cell):
    essential_keys = {key for key in vc.faces if cell in key and len(key) >= 2}
    records = [SubspaceRecord(key, vc.subspaces[key]) for key in lattice(vc.subspaces)]
    essential = [r for r in records if r.sites in essential_keys]
    parasitic = [r for r in records if r.sites not in essential_keys]
    parent = {}
    for record in essential:
        if record.dim > vc.dim - 2:
            continue
        supers = [p for p in parasitic
                  if p.dim > record.dim and geometric_contains(reference, p, record)]
        minimal = [p for p in supers
                   if not any(q is not p and geometric_contains(reference, p, q) for q in supers)]
        if len(minimal) != 1 or minimal[0].dim != record.dim + 1:
            raise VoronoiCheckError(
                f"essential H{sorted(record.sites)} of cell {cell} has no unique "
                f"minimal parasitic parent of dimension {record.dim + 1}"
            )
        parent[record.sites] = minimal[0].sites
    geometric_closure(reference, parasitic)
    return [r.sites for r in essential], [r.sites for r in parasitic], parent


def geometric_closure(reference, parasitic):
    keys = {p.sites for p in parasitic}
    for p1, p2 in combinations(parasitic, 2):
        if p1.sites & p2.sites:
            union = p1.sites | p2.sites
            if union in reference.spans and union not in keys:
                raise VoronoiCheckError(
                    f"intersection of parasitic H{sorted(p1.sites)} and H{sorted(p2.sites)} "
                    f"is essential H{sorted(union)}"
                )
            continue
        meet = reference.meet(p1.sites, p2.sites)
        if meet is None:
            continue
        key = reference.index.get(meet)
        if key is not None and key not in keys:
            raise VoronoiCheckError(
                f"intersection of parasitic H{sorted(p1.sites)} and "
                f"H{sorted(p2.sites)} equals essential H{sorted(key)}"
            )


def geometric_stage(vc, reference, ledger):
    cell, centers = ledger
    for d in range(0, max(vc.dim - 1, 0)):
        for a, b in combinations([c for c in centers if c.dim == d], 2):
            meet = reference.meet(a.sites, b.sites)
            if meet is None:
                continue
            if not any(c.dim < d and reference.contains(c.sites, meet) for c in centers):
                generic = a.dim + b.dim - vc.dim
                if not a.sites & b.sites and meet.dim > generic:
                    raise GenericityError(
                        f"H{sorted(a.sites)} and H{sorted(b.sites)} meet in dimension "
                        f"{meet.dim}, above the generic {generic}"
                    )
                if not a.sites & b.sites:
                    raise SncError(
                        f"stage-{d} centers H{sorted(a.sites)} and H{sorted(b.sites)} of cell "
                        f"{cell} are disjoint but meet in dimension {meet.dim} outside every "
                        f"earlier center; the gluing construction covers only inputs whose "
                        f"disjoint same-stage centers do not meet"
                    )
                raise SncCheckError(
                    f"stage-{d} centers H{sorted(a.sites)} and H{sorted(b.sites)} of cell "
                    f"{cell} overlap outside every earlier center"
                )


def geometric_ledger_match(reference, ledger_a, ledger_b, glue_key):
    def restriction(ledger):
        return sorted(
            (c.sites for c in ledger[1]
             if glue_key <= c.sites
             or (not c.sites & glue_key and reference.contains(glue_key, c.span))),
            key=sorted,
        )

    if restriction(ledger_a) != restriction(ledger_b):
        raise SncCheckError(
            f"ledgers of cells {ledger_a[0]} and {ledger_b[0]} disagree on their "
            f"shared face {sorted(glue_key)}"
        )


def outcome(check, *args):
    try:
        return "ok", check(*args)
    except (VoronoiError, SncError) as exc:
        return type(exc).__name__, str(exc)


def ledger_of(vc, cell, star):
    """The ledger of cell as (cell, centers): every record outside star,
    sorted by (dimension, index set)."""
    records = [r for r in vc.arrangement.records if r.sites not in star]
    return cell, tuple(sorted(records, key=lambda r: (r.dim, sorted(r.sites))))


def chart_of(cell, star):
    """The chart of cell whose star is forged: its faces are star with the
    cell itself."""
    return Chart(cell, (frozenset({cell}), *star))


def compare_with_geometry(sites, rng, rounds=6):
    """Every parent, closure, stage and ledger verdict of the index-algebra
    checks equals the geometric one, first-failure message included, on
    the true stars, on them with one key dropped or added, and on random
    subsets of the index sets; the geometric checks read the records
    outside each star."""
    vc = voronoi_complex(sites)
    table = outcome(lambda: vc.arrangement and None)
    assert table == outcome(lambda: GeometricArrangement(vc.subspaces) and None)
    if table[0] != "ok":
        return
    reference = GeometricArrangement(vc.subspaces)
    records = list(vc.arrangement.records)
    keys = [r.sites for r in records]
    cells = list(vc.cell_indices())
    stars = {}
    for cell in cells:
        verdict = outcome(classify_subspaces, vc, cell)
        if verdict[0] == "ok":
            rep = verdict[1]
            stars[cell] = frozenset(r.sites for r in rep.essential)
            verdict = ("ok", ([r.sites for r in rep.essential], [r.sites for r in rep.parasitic],
                              rep.minimal_parasitic_parent))
        assert verdict == outcome(geometric_classify, vc, reference, cell)
    if len(records) < 2:
        return

    def random_star():
        return frozenset(rng.sample(keys, rng.randint(0, len(keys))))

    for _ in range(rounds):
        cell = rng.choice(cells)
        base = stars[cell] if cell in stars else frozenset(rng.sample(keys, len(keys) - 2))
        dropped = base - {rng.choice(sorted(base, key=sorted))} if base else base
        added = base | {rng.choice(keys)}
        for star in (base, dropped, added, random_star()):
            chart, ledger = chart_of(cell, star), ledger_of(vc, cell, star)
            parasitic = [r for r in records if r.sites not in star]
            assert (outcome(_check_intersection_closure, vc, star)
                    == outcome(geometric_closure, reference, parasitic))
            assert (outcome(_verify_stage_disjointness, vc, cell, star)
                    == outcome(geometric_stage, vc, reference, ledger))
            other = rng.choice(cells)
            glue = frozenset(rng.sample(cells, 2))
            for other_star in (stars[other] if other in stars else random_star(), random_star()):
                other_chart = chart_of(other, other_star)
                assert (outcome(_verify_ledger_match, vc, chart, other_chart, glue)
                        == outcome(geometric_ledger_match, reference, ledger,
                                   ledger_of(vc, other, other_star), glue))


@settings(max_examples=30)
@given(st.data())
def test_index_algebra_checks_match_geometry_on_random_sites(data):
    dim = data.draw(st.sampled_from([2, 2, 3]))
    n = data.draw(st.integers(3, 7) if dim == 2 else st.integers(4, 6))
    points = data.draw(
        st.lists(st.tuples(*[st.integers(0, 10)] * dim), min_size=n, max_size=n, unique=True)
    )
    compare_with_geometry(SiteSet.build(dim, points), random.Random(data.draw(st.integers(0, 99))))


@pytest.mark.parametrize("name", sorted(HIDDEN_CONTAINMENTS))
def test_index_algebra_checks_match_geometry_on_hidden_containments(name):
    compare_with_geometry(HIDDEN_CONTAINMENTS[name], random.Random(name), rounds=10)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_index_algebra_checks_match_geometry_in_4d(n):
    # two disjoint stage-2 planes of a 4D cell can meet in a point, the
    # generic dimension 2 * 2 - 4, outside every earlier center: both
    # checks refuse that as an input the gluing does not cover
    compare_with_geometry(seeded_sites(11, n, 4), random.Random(n), rounds=4)


def test_exceptional_sets_of_hidden_containments():
    arrangement = voronoi_complex(HIDDEN_CONTAINMENTS["random5_n10"]).arrangement
    assert arrangement.exceptional == {frozenset({1, 4, 8})}
    assert arrangement.within(frozenset({1, 4, 8}), frozenset({0, 5}))
    assert arrangement.above_exceptional == {
        frozenset(j) for j in ({0, 5}, {1, 4}, {1, 8}, {4, 8}, {1, 4, 8})
    }
    model = build_snc(voronoi_complex(HIDDEN_CONTAINMENTS["random5_n10"]), range(10))
    assert len(model.strata) == len(model.vc.faces)


def test_pair_work_does_not_grow_with_the_selection(monkeypatch):
    # every disjoint pair of same-stage lines is met once per arrangement,
    # however many charts read the result
    meets = []
    disjoint_meet = SubspaceArrangement.disjoint_meet

    def counted(self, j1, j2):
        meets.append((j1, j2))
        return disjoint_meet(self, j1, j2)

    monkeypatch.setattr(SubspaceArrangement, "disjoint_meet", counted)
    counts = []
    for selection in ([0], range(8)):
        vc = voronoi_complex(seeded_sites(11, 8, 3))
        meets.clear()
        build_snc(vc, selection)
        counts.append(len(meets))
    lines = [j for j, span in vc.subspaces.items() if span.dim == 1]
    disjoint = sum(not a & b for a, b in combinations(lines, 2))
    assert disjoint and counts == [disjoint] * 2


def test_planar_gluing_solves_nothing(monkeypatch):
    # every incidence comes from the index sets and the integer distance
    # partitions: no elimination, no cut and no Fraction geometry (no
    # intersect, no implicit equations, no canonical key, so no subspace is
    # hashed) in any cell or gluing.  The planar set has no exceptional set;
    # the 3D set's ledgers hold disjoint stage-1 lines, and random5_n10 has
    # an exceptional set, so both read meets of disjoint index sets off the
    # records' rows
    complexes = {
        "planar11": voronoi_complex(seeded_sites(11, 11, 2)),
        "spatial11_8": voronoi_complex(seeded_sites(11, 8, 3)),
        "random5_n10": voronoi_complex(HIDDEN_CONTAINMENTS["random5_n10"]),
    }
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    monkeypatch.setattr(qlinalg, "solve_affine", counting("solve_affine", qlinalg.solve_affine))
    monkeypatch.setattr(voronoi, "solve_affine", counting("solve_affine", voronoi.solve_affine))
    for name in ("intersect", "implicit", "cut"):
        monkeypatch.setattr(AffineSubspace, name, counting(name, getattr(AffineSubspace, name)))
    monkeypatch.setattr(AffineSubspace, "key", property(counting("key", AffineSubspace.key.func)))
    monkeypatch.setattr(SubspaceArrangement, "disjoint_meet",
                        counting("disjoint_meet", SubspaceArrangement.disjoint_meet))
    for name, vc in complexes.items():
        calls.clear()
        vc.subspaces  # the span walk cuts out every H(J) once, on first use
        assert set(calls) <= {"cut"}, name
        calls.clear()
        model = build_snc(vc, vc.cell_indices())
        assert len(model.charts) == len(vc.sites) and model.gluings
        assert (vc.arrangement.exceptional != frozenset()) == (name == "random5_n10")
        assert [c for c in calls if c != "disjoint_meet"] == [], name
        assert ("disjoint_meet" in calls) == (name != "planar11"), name


# --- the distance partition is the subspace -------------------------------


def partitions_and_spans(sites):
    """(partition, span) for every H(J) and every meet of disjoint J1, J2,
    the meets by `AffineSubspace.intersect`; each partition groups the
    sites by site 0's rows on the span."""
    spans = voronoi_complex(sites).subspaces
    out = [(distance_partition(sites, span), span) for span in spans.values()]
    for j1, j2 in combinations(spans, 2):
        meet = None if j1 & j2 else spans[j1].intersect(spans[j2])
        if meet is not None:
            out.append((distance_partition(sites, meet), meet))
    return out


def distance_partition(sites, span, base=0):
    return voronoi._partition(sites.rows(base, span.integer_form))


RECTANGLE = [(0, 0), (2, 0), (0, 4), (2, 4)]


@st.composite
def small_site_sets(draw):
    """Small coordinate ranges make degenerate sets common."""
    dim = draw(st.sampled_from([1, 2, 2, 3]))
    hi = draw(st.sampled_from([3, 6, 20]))
    n = draw(st.integers(2, {1: 6, 2: 6, 3: 5}[dim]))
    points = draw(
        st.lists(st.tuples(*[st.integers(0, hi)] * dim), min_size=n, max_size=n, unique=True)
    )
    return SiteSet.build(dim, points)


@settings(max_examples=60)
@given(small_site_sets())
def test_distance_partition_determines_the_subspace(sites):
    # partitions are equal exactly when the subspaces are, canonical keys
    # as the oracle
    pairs = partitions_and_spans(sites)
    assert len({p for p, _ in pairs}) == len({s for _, s in pairs}) == len(set(pairs))


@settings(max_examples=60)
@given(small_site_sets())
def test_distance_partition_does_not_depend_on_the_base_site(sites):
    # the rows of any site b are the squared distances less b's, so every
    # base groups the sites alike, on each H(J) and each meet
    for partition, span in partitions_and_spans(sites):
        for b in range(1, len(sites)):
            assert distance_partition(sites, span, b) == partition


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=6, max_size=8, unique=True))
def test_disjoint_meets_are_the_intersections(points):
    # small 3D sets, where disjoint H(J) often meet and E is often not
    # empty: each meet read off the records' rows, in either order, is
    # `AffineSubspace.intersect`'s meet, by dimension and distance partition
    sites = SiteSet.build(3, points)
    vc = voronoi_complex(sites)
    try:
        arrangement = vc.arrangement
    except GenericityError:
        return
    spans = vc.subspaces
    for j1, j2 in combinations(spans, 2):
        if j1 & j2:
            continue
        meet = spans[j1].intersect(spans[j2])
        expected = meet and (meet.dim, distance_partition(sites, meet))
        assert arrangement.disjoint_meet(j1, j2) == expected
        assert arrangement.disjoint_meet(j2, j1) == expected


@pytest.mark.parametrize("dim, points, first, second", [
    (1, [[0], [1], [2], [3], [4]], {0, 3}, {1, 2}),
    (2, RECTANGLE, {0, 2}, {1, 3}),
], ids=["five_1d", "rectangle"])
def test_distance_partition_of_coinciding_index_sets(dim, points, first, second):
    # H{0,3} = H{1,2} with 1D sites 0..4, where the classes are {0,3},
    # {1,2} and {4}; in the rectangle H{0,2} = H{1,3} although the classes
    # of the two index sets are disjoint
    sites = SiteSet.build(dim, points)
    vc = voronoi_complex(sites)
    a, b = frozenset(first), frozenset(second)
    assert vc.subspaces[a] == vc.subspaces[b]
    assert distance_partition(sites, vc.subspaces[a], min(a)) == {a, b}
    assert distance_partition(sites, vc.subspaces[b], min(b)) == {a, b}
    pairs = partitions_and_spans(sites)
    assert len({p for p, _ in pairs}) == len({s for _, s in pairs}) == len(set(pairs))
    message = f"H{sorted(first)} and H{sorted(second)} span the same subspace"
    with pytest.raises(GenericityError, match=re.escape(message)):
        vc.arrangement
