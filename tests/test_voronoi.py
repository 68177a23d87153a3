"""Exact Voronoi complexes: face lattice, duals, subspace classification."""

import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fraction_kernel
from fraction_kernel import Constraint, equidistance_subspace, pairs
from corpus import (
    FOUR_SITES_1D,
    HIDDEN_CONTAINMENTS,
    RING_OUTER,
    RING_SITES,
    SQUARE_SITES,
    STRIP_ROW,
    STRIP_SITES,
    THREE_SITES_1D,
    TRIANGLE_SITES,
    TWO_SITES_1D,
)
from snclab.complexes import AbelianGroup
from snclab.presentations import abelianization, pi1_presentation
from snclab.qlinalg import AffineSubspace, dot, feasible_point, whole_space
from snclab import voronoi
from snclab.voronoi import (
    GenericityError,
    NotSimpleError,
    SiteSet,
    VoronoiComplex,
    VoronoiError,
    VoronoiFace,
    classify_subspaces,
    delaunay_dual,
    select_subcomplex,
    voronoi_complex,
)

SIMPLE_CORPUS = {
    "two_1d": TWO_SITES_1D,
    "three_1d": THREE_SITES_1D,
    "four_1d": FOUR_SITES_1D,
    "triangle": TRIANGLE_SITES,
    "strip": STRIP_SITES,
    "ring": RING_SITES,
}


def d2(x, y):
    return sum((a - b) ** 2 for a, b in zip(x, y))


def nearest_set(sites, x):
    """The indices of the sites nearest to x, by exact squared distance."""
    dists = [d2(x, s) for s in sites.sites]
    best = min(dists)
    return frozenset(i for i, d in enumerate(dists) if d == best)


def random_rational_point(rng, dim, span=6, denom=7):
    return tuple(
        F(rng.randint(-4 * span, 4 * span), rng.randint(1, denom)) for _ in range(dim)
    )


def test_site_set_validation():
    with pytest.raises(VoronoiError, match="duplicate"):
        SiteSet.build(1, [[0], [0]])
    with pytest.raises(VoronoiError):
        SiteSet.build(2, [[0]])
    with pytest.raises(VoronoiError):
        SiteSet.build(1, [])


def test_two_sites_1d():
    vc = voronoi_complex(TWO_SITES_1D)
    keys = {tuple(sorted(f.sites)) for f in vc.face_list()}
    assert keys == {(0,), (1,), (0, 1)}
    mid = vc.faces[frozenset({0, 1})]
    assert mid.dim == 0
    assert mid.span.point == (F(1, 2),)
    assert vc.is_simple()


def test_single_site_has_no_proper_faces():
    vc = voronoi_complex(SiteSet.build(3, [[1, 2, 3]]))
    assert [tuple(f.sites) for f in vc.face_list()] == [(0,)]
    assert vc.faces[frozenset({0})].dim == 3


def test_triangle_vertex_is_circumcenter():
    vc = voronoi_complex(TRIANGLE_SITES)
    vertex = vc.faces[frozenset({0, 1, 2})]
    assert vertex.dim == 0
    assert vertex.span.point == (F(1, 2), F(1, 2))
    assert vc.is_simple()


def test_square_not_simple_with_witness():
    vc = voronoi_complex(SQUARE_SITES)
    w = vc.simplicity_witness()
    assert w is not None
    assert sorted(w.sites) == [0, 1, 2, 3]
    assert w.codim == 2
    assert len(w.sites) == 4


def test_bisector_linearization_is_exact():
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randint(1, 3)
        a = random_rational_point(rng, dim)
        b = random_rational_point(rng, dim)
        if a == b:
            continue
        sites = SiteSet(dim, (a, b))
        coeffs, rhs = sites.bisector(0, 1)
        x = random_rational_point(rng, dim)
        assert (d2(x, a) <= d2(x, b)) == (dot(coeffs, x) <= rhs)


def test_integer_substitution_is_the_fraction_substitution_scaled():
    # the integer bisector 2L(Y_k - Y_i).x <= |Y_k|^2 - |Y_i|^2 substituted
    # into H(J) by integer dot products is the rational bisector substituted
    # by Fractions, times L^2 D (D the common denominator of H(J))
    rng = random.Random(29)
    checked = 0
    for _ in range(30):
        dim = rng.randint(1, 3)
        pts = {random_rational_point(rng, dim) for _ in range(rng.randint(2, 6))}
        sites = SiteSet(dim, tuple(sorted(pts)))
        scale = sites.integer_sites[0]
        spans = [whole_space(dim), *voronoi_complex(sites).subspaces.values()]
        for span, (i, k) in product(spans, product(range(len(pts)), repeat=2)):
            if i == k:
                continue
            yi, yk = sites.sites[i], sites.sites[k]
            rational = Constraint(tuple(2 * (b - a) for a, b in zip(yi, yk)), dot(yk, yk) - dot(yi, yi))
            want = fraction_kernel.substitute(rational, span)
            got = span.row(*sites.bisector(i, k))
            # the same row is row k of site i's rows on the span
            assert sites.rows(i, span)[k] == got
            factor = scale * scale * span.integer_form[0]
            assert got == tuple(factor * x for x in want.row)
            assert all(type(x) is int for x in got)
            checked += 1
    assert checked > 1000


def test_enumeration_builds_no_fractions_it_does_not_read():
    # each H(J) is held in integers: the enumeration, the simplicity check,
    # the Delaunay dual and its Betti numbers never read a span's point or
    # basis, so none of them is built
    for dim, n, hi in ((2, 12, 97), (3, 9, 31)):
        rng = random.Random(41 + dim)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(0, hi) for _ in range(dim)))
        vc = voronoi_complex(SiteSet.build(dim, sorted(pts)))
        assert vc.simplicity_witness() is None
        delaunay_dual(vc, vc.cell_indices()).all_betti()
        spans = [*vc.subspaces.values(), *(f.span for f in vc.faces.values())]
        assert len(vc.subspaces) > 50
        assert not [s for s in spans if "point" in vars(s) or "basis" in vars(s)]
        # reading them builds them, equal to the solved H(J)
        key = min(vc.subspaces, key=sorted)
        solved = equidistance_subspace(vc.sites, sorted(key))
        assert (vc.subspaces[key].point, vc.subspaces[key].basis) == (solved.point, solved.basis)
        assert "point" in vars(vc.subspaces[key])


def test_partition_property_random_sites():
    rng = random.Random(1001)
    for _ in range(25):
        dim = rng.choice([1, 2, 2, 3])
        n = rng.randint(2, 8)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(F(rng.randint(0, 12)) for _ in range(dim)))
        sites = SiteSet(dim, tuple(sorted(pts)))
        for _ in range(20):
            x = random_rational_point(rng, dim)
            nearest = nearest_set(sites, x)
            assert len(nearest) >= 1
            # membership in each cell's half-space system agrees with the
            # distance semantics
            for i in range(n):
                in_cell = all(dot(a, x) <= b for a, b in
                              (sites.bisector(i, j) for j in range(n) if j != i))
                assert in_cell == (i in nearest)
            if len(nearest) >= 2:
                i, j = sorted(nearest)[:2]
                coeffs, rhs = sites.bisector(i, j)
                assert dot(coeffs, x) == rhs


def test_face_witnesses_and_spans():
    for name, sites in SIMPLE_CORPUS.items():
        vc = voronoi_complex(sites)
        for face in vc.face_list():
            assert nearest_set(sites, face.witness) == face.sites, name
            assert fraction_kernel.contains_point(face.span, face.witness)
            recomputed = equidistance_subspace(sites, sorted(face.sites))
            assert recomputed is not None
            assert recomputed == face.span


def test_simplicity_and_dual_dimension_matches_codimension():
    for name, sites in SIMPLE_CORPUS.items():
        vc = voronoi_complex(sites)
        assert vc.is_simple(), name
        for face in vc.face_list():
            assert len(face.sites) == face.codim + 1
        dual = delaunay_dual(vc)
        for k in range(dual.dim + 1):
            expected = sum(1 for f in vc.face_list() if f.codim == k)
            assert dual.n_cells(k) == expected


def test_delaunay_examples():
    assert delaunay_dual(voronoi_complex(TWO_SITES_1D)).cell_counts() == (2, 1)
    assert delaunay_dual(voronoi_complex(TRIANGLE_SITES)).cell_counts() == (3, 3, 1)
    with pytest.raises(NotSimpleError):
        delaunay_dual(voronoi_complex(SQUARE_SITES))


def test_delaunay_row_selection_is_path():
    vc = voronoi_complex(STRIP_SITES)
    d = delaunay_dual(vc, STRIP_ROW)
    assert d.cell_counts() == (3, 2)
    assert d.all_betti() == (1, 0)
    full = delaunay_dual(vc)
    assert full.cell_counts() == (4, 5, 2)
    assert full.all_betti() == (1, 0, 0)


def test_delaunay_ring_selection_is_circle():
    vc = voronoi_complex(RING_SITES)
    d = delaunay_dual(vc, RING_OUTER)
    assert d.cell_counts() == (4, 4)
    assert d.all_betti() == (1, 1)
    assert abelianization(pi1_presentation(d)) == AbelianGroup(1)


def test_closed_face_intersections_stay_in_lattice():
    # polyhedral-complex axiom at desk scale: whenever the closures of two
    # faces meet, some common face contains the meeting locus
    for name, sites in SIMPLE_CORPUS.items():
        vc = voronoi_complex(sites)
        faces = vc.face_list()
        for f1, f2 in combinations(faces, 2):
            union = f1.sites | f2.sites
            constraints = []
            base = sorted(union)[0]
            for k in union:
                if k == base:
                    continue
                coeffs, rhs = sites.bisector(base, k)
                constraints.append(Constraint(coeffs, rhs, strict=False))
                constraints.append(
                    Constraint(tuple(-c for c in coeffs), -rhs, strict=False)
                )
            for k in range(len(sites.sites)):
                if k in union:
                    continue
                coeffs, rhs = sites.bisector(base, k)
                constraints.append(Constraint(coeffs, rhs, strict=False))
            witness = feasible_point(pairs(constraints), sites.dim)
            if witness is None:
                continue
            nearest = nearest_set(sites, witness)
            assert union <= nearest
            assert frozenset(nearest) in vc.faces, name


def test_select_subcomplex_examples():
    vc = voronoi_complex(STRIP_SITES)
    site0 = STRIP_SITES.sites[0]
    assert select_subcomplex(vc, ((site0,),)) == (0,)
    segment = ((STRIP_SITES.sites[0], STRIP_SITES.sites[1]),)
    assert select_subcomplex(vc, segment) == (0, 1)
    inside_cell_2 = ((((F(15, 4)), F(0)),),)
    assert select_subcomplex(vc, inside_cell_2) == (2,)
    assert select_subcomplex(vc, ()) == ()
    far = (((F(1000), F(1000)),),)
    assert len(select_subcomplex(vc, far)) == 1


def test_select_subcomplex_closed_cells_share_boundary_points():
    vc = voronoi_complex(TWO_SITES_1D)
    midpoint = ((F(1, 2),),)
    assert select_subcomplex(vc, (midpoint,)) == (0, 1)


@pytest.mark.parametrize("dim, n, seed", [(2, 6, 31), (2, 7, 32), (3, 5, 33), (3, 6, 34)])
def test_select_systems_match_the_fraction_oracle(dim, n, seed, monkeypatch):
    """Every system select_subcomplex solves, on sites with coordinates up to
    10^6, gets the Fraction kernel's witness.  The region simplices are
    degenerate ones, a full one, and two through the midpoint m of site 0
    and its nearest site j, which lies on both closed cells: on the segment
    from m to j, cell 0's barycentric bounds meet (lo == up) at m."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, 10**6) for _ in range(dim)))
    sites = SiteSet.build(dim, sorted(pts))
    vc = voronoi_complex(sites)
    a, b, c, d = sites.sites[:4]
    j = min(range(1, n), key=lambda k: d2(sites.sites[k], a))
    m = tuple((x + y) / 2 for x, y in zip(a, sites.sites[j]))
    simplices = {
        "repeated vertex": (a, a, b),
        "point": (c,),
        "segment": (b, c),
        "4-point hull": (a, b, c, d),
        "boundary point": (m,),
        "boundary segment": (m, sites.sites[j]),
    }
    witnesses = []

    def checked(constraints, nvars):
        witness = feasible_point(constraints, nvars)
        oracle = [Constraint(row[:-1], row[-1], strict) for row, strict in constraints]
        assert witness == fraction_kernel.feasible_point(oracle, nvars)
        witnesses.append(witness)
        return witness

    monkeypatch.setattr(voronoi, "feasible_point", checked)
    selected = {}
    for name, simplex in simplices.items():
        witnesses.clear()
        selected[name] = select_subcomplex(vc, (simplex,))
        # one test per cell, in cell order, the simplex's own barycentrics
        assert len(witnesses) == n
        assert all(w is None or len(w) == len(simplex) - 1 for w in witnesses)
    assert {0, j} <= set(selected["boundary point"])
    assert {0, j} <= set(selected["boundary segment"])
    assert witnesses[0] == (F(0),)  # cell 0 meets the boundary segment at m alone


def test_select_builds_rows_once_per_simplex(monkeypatch):
    # cell i's rows on a simplex's hull are site 0's rows there minus site
    # 0's row i, entry by entry: one SiteSet.rows call per region simplex,
    # and every system holds cell i's own rows on the hull
    rng = random.Random(31)
    pts = set()
    while len(pts) < 7:
        pts.add((rng.randint(0, 10**6), rng.randint(0, 10**6)))
    sites = SiteSet.build(2, sorted(pts))
    vc = voronoi_complex(sites)
    a, b, c, d = sites.sites[:4]
    region = ((a, b, c), (), (d,), (b, d), (a, a, c))
    calls, systems = [], []
    rows = SiteSet.rows

    def counting_rows(site_set, i, span):
        calls.append(span)
        return rows(site_set, i, span)

    def recorded(constraints, nvars):
        witness = feasible_point(constraints, nvars)
        systems.append((constraints, witness))
        return witness

    monkeypatch.setattr(SiteSet, "rows", counting_rows)
    monkeypatch.setattr(voronoi, "feasible_point", recorded)
    selected = select_subcomplex(vc, region)
    assert len(calls) == 4
    monkeypatch.setattr(SiteSet, "rows", rows)
    for i in range(len(sites)):
        for hull in calls:
            system, witness = systems.pop(0)
            own = [(row, False) for k, row in enumerate(sites.rows(i, hull)) if k != i]
            assert system[:len(own)] == own
            if witness is not None:
                break
    assert systems == []
    # a vertex lies in the closed cells of its nearest sites
    assert {i for simplex in region for p in simplex for i in nearest_set(sites, p)} <= set(selected)


def test_classify_triangle_cell0():
    vc = voronoi_complex(TRIANGLE_SITES)
    rep = classify_subspaces(vc, 0)
    essential = {tuple(sorted(r.sites)) for r in rep.essential}
    parasitic = {tuple(sorted(r.sites)) for r in rep.parasitic}
    assert essential == {(0, 1), (0, 2), (0, 1, 2)}
    assert parasitic == {(1, 2)}
    assert rep.minimal_parasitic_parent == {frozenset({0, 1, 2}): frozenset({1, 2})}


def test_classify_two_sites_no_parasitic():
    vc = voronoi_complex(TWO_SITES_1D)
    for cell in (0, 1):
        rep = classify_subspaces(vc, cell)
        assert rep.parasitic == ()


def test_classify_four_collinear():
    vc = voronoi_complex(FOUR_SITES_1D)
    rep = classify_subspaces(vc, 1)
    essential = {tuple(sorted(r.sites)) for r in rep.essential}
    parasitic = {tuple(sorted(r.sites)) for r in rep.parasitic}
    assert essential == {(0, 1), (1, 2)}
    assert parasitic == {(0, 2), (0, 3), (1, 3), (2, 3)}
    # midpoints off the cell boundary, e.g. sites 0 and 2 meet at 1
    mid02 = next(r for r in rep.parasitic if r.sites == frozenset({0, 2}))
    assert mid02.span.point == (F(1),)


def test_classify_rejects_non_simple_and_non_generic():
    vc = voronoi_complex(SQUARE_SITES)
    with pytest.raises(NotSimpleError):
        classify_subspaces(vc, 0)
    # equal spacing makes distinct index sets share a bisector
    collinear = voronoi_complex(SiteSet.build(1, [[0], [1], [2], [3]]))
    with pytest.raises(GenericityError):
        classify_subspaces(collinear, 0)


def test_parasitic_parents_on_corpus():
    for name, sites in SIMPLE_CORPUS.items():
        vc = voronoi_complex(sites)
        m = vc.dim
        for cell in range(len(sites.sites)):
            rep = classify_subspaces(vc, cell)
            for record in rep.essential:
                if record.dim <= m - 2:
                    parent_key = rep.minimal_parasitic_parent[record.sites]
                    parent = next(r for r in rep.parasitic if r.sites == parent_key)
                    assert parent.dim == record.dim + 1
                    assert fraction_kernel.contains(parent.span, record.span)


def test_face_lattice_is_complete_under_probing():
    # any nearest-site set realized by a rational point must have been
    # enumerated as a face
    rng = random.Random(606)
    for _ in range(8):
        dim = rng.choice([1, 2, 2, 3])
        n = rng.randint(2, 6)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(F(rng.randint(0, 10)) for _ in range(dim)))
        sites = SiteSet(dim, tuple(sorted(pts)))
        vc = voronoi_complex(sites)
        for _ in range(30):
            x = random_rational_point(rng, dim, span=3)
            assert nearest_set(sites, x) in vc.faces
        # midpoints of site pairs often land on lower faces
        for i, j in combinations(range(n), 2):
            mid = tuple((a + b) / 2 for a, b in zip(sites.sites[i], sites.sites[j]))
            assert nearest_set(sites, mid) in vc.faces


def test_scale_guard_ten_sites_and_dim_four():
    # the documented working scale: around ten sites, ambient dim up to 4
    rng = random.Random(99)
    pts = set()
    while len(pts) < 10:
        pts.add((F(rng.randint(0, 30)), F(rng.randint(0, 30))))
    vc = voronoi_complex(SiteSet(2, tuple(sorted(pts))))
    assert sum(1 for f in vc.face_list() if len(f.sites) == 1) == 10
    pts4 = set()
    while len(pts4) < 6:
        pts4.add(tuple(F(rng.randint(0, 8)) for _ in range(4)))
    vc4 = voronoi_complex(SiteSet(4, tuple(sorted(pts4))))
    for face in vc4.face_list():
        assert nearest_set(vc4.sites, face.witness) == face.sites


def test_genericity_density_fuzz():
    # perturbing the degenerate square by small random rationals yields a
    # simple complex
    rng = random.Random(31337)
    for _ in range(8):
        wiggled = []
        for x, y in SQUARE_SITES.sites:
            wiggled.append(
                (
                    x + F(rng.randint(-20, 20), 997),
                    y + F(rng.randint(-20, 20), 991),
                )
            )
        vc = voronoi_complex(SiteSet.build(2, wiggled))
        assert vc.is_simple()


def brute_force_voronoi(sites: SiteSet):
    """Reference enumeration: every index subset in `combinations` order,
    each H(J) solved from scratch, each face tested by Fourier-Motzkin.
    Returns the complex of the faces and the map of every non-empty H(J)."""
    n = len(sites)
    faces, subspaces = {}, {}
    for size in range(1, n + 1):
        for indices in combinations(range(n), size):
            span = equidistance_subspace(sites, indices)
            if span is None:
                continue
            key = frozenset(indices)
            if size >= 2:
                subspaces[key] = span
            constraints = [
                (span.row(*sites.bisector(indices[0], k)), True)
                for k in range(n)
                if k not in indices
            ]
            params = feasible_point(constraints, span.dim)
            if params is not None:
                faces[key] = fraction_kernel.VoronoiFace(
                    key, span, span.parametrize(params), sites.dim
                )
    return VoronoiComplex(sites, faces), subspaces


def _lattice_fields(vc: VoronoiComplex, subspaces):
    witness = vc.simplicity_witness()
    return (
        [(k, f.witness, f.span.point, f.span.basis, f.ambient_dim) for k, f in vc.faces.items()],
        [(k, s.point, s.basis) for k, s in subspaces.items()],
        None if witness is None else (witness.sites, witness.witness, witness.span.point),
    )


# points on the circle x^2 + y^2 = 25
_CIRCLE = [(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (-4, 3), (-3, -4), (4, -3), (4, 3)]
# points on the sphere x^2 + y^2 + z^2 = 9
_SPHERE = [(3, 0, 0), (0, 3, 0), (0, 0, -3), (-3, 0, 0), (2, 2, 1), (-2, 1, 2), (1, -2, -2),
           (2, -1, 2)]


@st.composite
def degenerate_site_sets(draw):
    dim = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["random", "grid", "collinear", "cocircular", "cospherical"]))
    if shape == "grid":
        # squares and cubes: cocircular and cospherical sites
        pool = list(product(range(3), repeat=dim))
    elif shape == "collinear":
        base = draw(st.tuples(*[st.integers(-3, 3)] * dim))
        step = draw(st.tuples(*[st.integers(-2, 2)] * dim).filter(any))
        pool = [tuple(b + t * s for b, s in zip(base, step)) for t in range(-3, 4)]
    elif shape == "cocircular" and dim >= 2:
        # in 3D the circle's plane makes H(J) of three of its points a line
        # that the bisector of a fourth one contains
        height = draw(st.integers(-2, 2))
        pool = [p + (height,) * (dim - 2) for p in _CIRCLE]
    elif shape == "cospherical" and dim == 3:
        pool = _SPHERE
    else:
        pool = list(product(range(-3, 4), repeat=dim))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7, unique=True))
    return SiteSet.build(dim, points)


@given(degenerate_site_sets())
@example(SQUARE_SITES)
@example(SiteSet.build(2, [[0, 0], [1, 1], [2, 2], [0, 3], [3, 0]]))
@example(SiteSet.build(3, [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 3]]))
# in 4D the face test runs on 3-spaces, planes, lines and points
@example(SiteSet.build(4, [(0, 0, 0, 0), (3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0),
                           (0, 0, 0, 1), (1, 1, 1, 1)]))
@example(SiteSet.build(4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                           (0, 0, 1, 1), (1, 1, 1, 1)]))
# rational sites: the bisector rows are over the common denominator 21
@example(SiteSet.build(2, [(F(1, 3), 0), (F(2, 7), F(5, 3)), (F(-4, 7), F(1, 7)),
                           (F(5, 3), F(2, 3)), (0, F(-8, 7)), (F(1, 3), F(1, 7))]))
@example(SiteSet.build(3, [(F(1, 3), 0, F(2, 7)), (F(-5, 7), F(1, 3), 1), (0, F(4, 3), F(-1, 7)),
                           (F(2, 3), F(2, 3), F(2, 3)), (F(1, 7), F(-2, 3), 0)]))
@example(SiteSet.build(4, [(F(1, 3), 0, 0, F(1, 7)), (0, F(2, 7), F(-1, 3), 0),
                           (F(4, 3), F(1, 3), 0, F(-3, 7)), (0, 0, F(5, 7), F(2, 3)),
                           (F(-2, 3), F(1, 7), F(1, 3), 1), (F(1, 7), F(1, 7), F(1, 7), F(1, 7))]))
def test_pruned_enumeration_matches_brute_force(sites):
    vc = voronoi_complex(sites)
    assert _lattice_fields(vc, vc.subspaces) == _lattice_fields(*brute_force_voronoi(sites))


def test_enumeration_solves_only_nonempty_subspaces(monkeypatch):
    # no solve at all: each H(J + k) is H(J) cut by one bisector, and the
    # empty ones are recognised by that cut
    solves = []
    solve = voronoi.solve_affine

    def counting_solve(rows, rhs):
        solves.append(rows)
        return solve(rows, rhs)

    monkeypatch.setattr(voronoi, "solve_affine", counting_solve)
    rng = random.Random(11)
    pts = set()
    while len(pts) < 11:
        pts.add((rng.randint(0, 97), rng.randint(0, 97)))
    vc = voronoi_complex(SiteSet.build(2, sorted(pts)))
    assert vc.subspaces
    assert solves == []


def test_span_walk_builds_rows_only_at_the_whole_space(monkeypatch):
    # each walk builds each site's rows on the whole space, n calls, and
    # derives every child's from its parent's
    calls = []
    rows = SiteSet.rows

    def counting_rows(sites, i, span):
        calls.append((i, span))
        return rows(sites, i, span)

    monkeypatch.setattr(SiteSet, "rows", counting_rows)
    rng = random.Random(11)
    pts = set()
    while len(pts) < 11:
        pts.add((rng.randint(0, 97), rng.randint(0, 97)))
    vc = voronoi_complex(SiteSet.build(2, sorted(pts)))
    assert len(vc.faces) > 11
    assert calls == [(i, whole_space(2)) for i in range(11)]
    calls.clear()
    assert vc.subspaces
    assert calls == [(i, whole_space(2)) for i in range(11)]


@given(degenerate_site_sets())
@example(SiteSet.build(2, _CIRCLE))
@example(SiteSet.build(2, list(product(range(3), repeat=2))))
@example(SiteSet.build(3, list(product(range(2), repeat=3))))
@example(SiteSet.build(3, _SPHERE))
def test_lazy_witnesses_match_the_eager_enumeration(sites):
    # cocircular, grid, cube and cospherical sets above
    vc = voronoi_complex(sites)
    assert _lattice_fields(vc, vc.subspaces) == _lattice_fields(
        *fraction_kernel.voronoi_complex(sites)
    )


def assert_positive_multiple(rows, expected):
    """rows == c * expected, entry by entry, for one rational c > 0."""
    assert len(rows) == len(expected)
    flat = [x for r in expected for x in r]
    pivot = next((j for j, x in enumerate(flat) if x), None)
    if pivot is None:
        assert all(not any(r) for r in rows)
        return
    c = F([x for r in rows for x in r][pivot], flat[pivot])
    assert c > 0
    assert rows == [tuple(c * x for x in r) for r in expected]


@given(degenerate_site_sets())
@example(SiteSet.build(2, _CIRCLE))
@example(SiteSet.build(3, _SPHERE))
@example(SiteSet.build(3, [(1, 0, 0), (0, 2, 0), (0, 0, 3), (4, 4, 1), (2, 5, 3)]))
def test_cut_rows_are_the_rows_of_the_cut(sites):
    # both walks derive each child's rows from its parent's, up to one
    # positive factor: H(J) is H(J - max J) cut by row max J of min J's rows
    whole = whole_space(sites.dim)
    spans = {frozenset((i,)): whole for i in range(len(sites))} | voronoi_complex(sites).subspaces
    for key, child in spans.items():
        if len(key) < 2:
            continue
        indices = sorted(key)
        parent = spans[frozenset(indices[:-1])]
        rows = sites.rows(indices[0], parent)
        row = rows[indices[-1]]
        assert parent.cut(row).integer_form == child.integer_form
        expected = sites.rows(indices[0], child)
        derived = voronoi._cut_rows(rows, row)
        if not any(row[:-1]):  # site max J ties with min J on all of the parent
            assert derived is rows
        assert_positive_multiple(derived, expected)
        # rows that already carry a positive factor, as derived ones do
        scaled = [tuple(3 * x for x in r) for r in rows]
        assert_positive_multiple(voronoi._cut_rows(scaled, scaled[indices[-1]]), expected)
    rows = sites.rows(0, whole)
    assert voronoi._cut_rows(rows, (0,) * sites.dim + (5,)) is None
    assert voronoi._cut_rows(rows, (0,) * sites.dim + (-5,)) is None


def recorded_exceptional_sets(sites):
    """The span walk's partitions, checked against the partition of each
    span by site 0's rows, built on the span itself."""
    subspaces, partitions = voronoi_complex(sites)._spans
    assert partitions == {
        key: partition for key, span in subspaces.items()
        if (partition := voronoi._partition(sites.rows(0, span))) != {key}
    }
    return partitions


@given(degenerate_site_sets())
@example(SiteSet.build(2, _CIRCLE))
@example(SiteSet.build(3, _SPHERE))
def test_span_walk_records_the_exceptional_sets(sites):
    recorded_exceptional_sets(sites)


@pytest.mark.parametrize("name", sorted(HIDDEN_CONTAINMENTS))
def test_span_walk_records_hidden_containments(name):
    # every set but the crossing lines has an exceptional H(Q)
    assert bool(recorded_exceptional_sets(HIDDEN_CONTAINMENTS[name])) == (name != "crossing_axes")


@pytest.mark.parametrize(
    "seed, n, dim, hi, spans",
    [(5, 40, 2, 10**6, 10660), (11, 14, 3, 97, 1456)],
    ids=["planar5_40", "spatial11_14"],
)
def test_face_walk_is_output_sensitive(monkeypatch, seed, n, dim, hi, spans):
    # on generic sites the face walk visits the C(n, 2) bisectors of the
    # whole space, every later child of a face of dimension 2 or more, and
    # on a line only the rows that end its closed segment, two per Voronoi
    # edge, and cuts at most those; the span walk runs only when the span
    # map is read
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, hi) for _ in range(dim)))
    cuts = []
    cut = AffineSubspace.cut

    def counted(span, row):
        cuts.append(row)
        return cut(span, row)

    monkeypatch.setattr(AffineSubspace, "cut", counted)
    vc = voronoi_complex(SiteSet.build(dim, sorted(pts)))
    assert vc.simplicity_witness() is None
    delaunay_dual(vc, vc.cell_indices()).all_betti()
    assert "_spans" not in vars(vc)
    below_faces = sum(n - 1 - max(key) for key, face in vc.faces.items()
                      if face.dim >= 2 and len(key) >= 2)
    edges = sum(face.dim == 1 for face in vc.faces.values())
    assert len(cuts) <= n * (n - 1) // 2 + below_faces + 2 * edges
    assert len(vc.subspaces) == spans


@pytest.mark.parametrize(
    "seed, n, dim, hi",
    [(11, 11, 2, 97), (5, 40, 2, 10**6), (11, 8, 3, 97), (11, 14, 3, 97)],
    ids=["planar11_11", "planar5_40", "spatial11_8", "spatial11_14"],
)
def test_face_walk_cuts_only_what_it_keeps(monkeypatch, seed, n, dim, hi):
    # on generic sites the face walk derives a child's rows from its
    # parent's and cuts H(J) out of its parent only when J is a face or has
    # children, one cut per face with |J| >= 2; the span walk, the same walk
    # under the span rule, cuts once per non-empty H(J) with |J| >= 2
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, hi) for _ in range(dim)))
    cuts = []
    cut = AffineSubspace.cut

    def counted(span, row):
        cuts.append(row)
        return cut(span, row)

    monkeypatch.setattr(AffineSubspace, "cut", counted)
    vc = voronoi_complex(SiteSet.build(dim, sorted(pts)))
    assert vc.simplicity_witness() is None
    assert len(cuts) == sum(len(key) >= 2 for key in vc.faces)
    cuts.clear()
    vc.subspaces
    assert len(cuts) == len(vc.subspaces)


@pytest.mark.parametrize("name", ["planar11", "crossing_axes"])
def test_walks_and_meets_cut_with_plain_integer_rows(monkeypatch, name):
    # the face walk, the span walk and the disjoint meets hand `cut` the
    # row format of SiteSet.rows: a tuple of Python ints, no wrapper object
    if name == "planar11":
        rng = random.Random(11)
        pts = set()
        while len(pts) < 11:
            pts.add((rng.randint(0, 97), rng.randint(0, 97)))
        sites = SiteSet.build(2, sorted(pts))
    else:
        sites = HIDDEN_CONTAINMENTS[name]
    rows = []
    cut = AffineSubspace.cut

    def recorded(span, row):
        rows.append(row)
        return cut(span, row)

    monkeypatch.setattr(AffineSubspace, "cut", recorded)

    def plain():
        assert rows and all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)
        rows.clear()

    vc = voronoi_complex(sites)
    plain()
    assert vc.subspaces
    plain()
    arrangement = vc.arrangement
    lines = [r.sites for r in arrangement.records_by_dim if r.dim == 1]
    meets = [arrangement.meet(a, b) for a, b in combinations(lines, 2) if not a & b]
    assert any(meet is not None for meet in meets)
    plain()


def test_equal_faces_hash_equal():
    first = voronoi_complex(STRIP_SITES)
    again = voronoi_complex(SiteSet.build(2, STRIP_SITES.sites))
    # a witness read on one side only must not enter equality or hashing
    for face in first.face_list()[::2]:
        assert face.witness is face.witness
    for key, face in first.faces.items():
        other = again.faces[key]
        assert face is not other and face.site_set is not other.site_set
        assert face == other and hash(face) == hash(other)
    assert set(first.faces.values()) == set(again.faces.values())
    faces = list(first.faces.values())
    assert len(set(faces)) == len(faces)
