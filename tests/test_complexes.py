"""Delta-complex construction, validation, and exact homology."""

import json
import random
import time
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import (
    CIRCLE,
    FULL_2_SIMPLEX,
    NAMED_COMPLEXES,
    POINT,
    RP2,
    RP2_FACES,
    SPHERE_2,
    TORUS,
    random_pure_3d,
    suspension,
)
from snclab.complexes import (
    AbelianGroup,
    _faces,
    ComplexError,
    DeltaComplex,
    build_complex,
    closure,
    complex_from_json_dict,
    delta_isomorphic,
    from_simplices,
    nerve,
)
from snclab import complexes, intlinalg
from homology_oracles import nerve_cells, verdict
from snclab.intlinalg import IntMatrix, smith_normal_form
from snf_oracle import matmul, zero


def boundary_matrix(k: DeltaComplex, d: int) -> IntMatrix:
    """The dense oracle for the map C_d -> C_(d-1), summed straight from the
    face lists (face i with sign (-1)^i); for d = 0 a 0-row matrix."""
    if d <= 0 or d > k.dim:
        return zero(0 if d <= 0 else k.n_cells(d - 1), k.n_cells(max(d, 0)))
    grid = [[0] * k.n_cells(d) for _ in range(k.n_cells(d - 1))]
    for j, faces in enumerate(k.cells[d]):
        for i, f in enumerate(faces):
            grid[f][j] += (-1) ** i
    return IntMatrix.from_rows(grid, k.n_cells(d))


def test_single_vertex():
    k = build_complex([[None]])
    assert k.dim == 0
    assert k.cell_counts() == (1,)
    assert k.is_connected()


def test_circle_is_connected_cycle():
    assert CIRCLE.cell_counts() == (3, 3)
    assert CIRCLE.is_connected()


def test_dangling_face_reference():
    with pytest.raises(ComplexError, match="dangling"):
        build_complex([[None, None], [[0, 1]], [[0, 0, 7]]])


def test_wrong_arity():
    with pytest.raises(ComplexError, match="exactly"):
        build_complex([[None, None], [[0, 1, 1]]])


def _dense_verdict(cells):
    """The first cell on which the dense product d_(k-1) d_k is nonzero,
    as build_complex words it, or None."""
    vertices = tuple(() for _ in cells[0])
    k = DeltaComplex((vertices,) + tuple(tuple(map(tuple, layer)) for layer in cells[1:]))
    for d in range(2, k.dim + 1):
        composite = matmul(boundary_matrix(k, d - 1), boundary_matrix(k, d))
        for j in range(composite.cols):
            if any(composite.entries[i][j] for i in range(composite.rows)):
                return f"boundary composite is nonzero on cell ({d},{j})"
    return None


def _verdict(cells):
    try:
        build_complex(cells)
    except ComplexError as exc:
        return str(exc)
    return None


def test_nonzero_boundary_composite_names_cell():
    # edges v0-v1 and v1-v2; the fake triangle (e0, e0, e1) has nonzero
    # composite boundary equal to the boundary of e1
    with pytest.raises(ComplexError, match=r"\(2,0\)"):
        build_complex([[None] * 3, [[0, 1], [1, 2]], [[0, 0, 1]]])
    # the first triangle of the 2-simplex is fine, the second and third are not
    late = [[None] * 3, [[1, 0], [2, 0], [2, 1]], [[2, 1, 0], [0, 0, 1], [0, 0, 2]]]
    assert _verdict(late) == _dense_verdict(late) == "boundary composite is nonzero on cell (2,1)"
    # (a, a, b): the non-loop edge a cancels out of the boundary, which is
    # the loop b, so the composite vanishes
    cancelling = [[None] * 2, [[1, 0], [0, 0]], [[0, 0, 1]]]
    assert _verdict(cancelling) is _dense_verdict(cancelling) is None
    assert build_complex(cancelling).all_betti() == (1, 0, 0)


@given(
    st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), max_size=3),
    st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), max_size=3),
)
def test_sparse_composite_check_matches_dense_product(triangles, tetrahedra, four_cells):
    # two vertices, an edge each way and a loop at each vertex; the 3- and
    # 4-cells repeat faces often enough that d d = 0 holds below them
    cells = [[None] * 2, [[1, 0], [0, 0], [1, 1], [0, 1]], triangles]
    if tetrahedra:
        cells.append([[f % len(triangles) for f in t] for t in tetrahedra])
        if four_cells:
            cells.append([[f % len(tetrahedra) for f in c] for c in four_cells])
    assert _verdict(cells) == _dense_verdict(cells)


def test_building_a_complex_leaves_its_boundary_columns_unbuilt():
    # a nerve meets d d = 0 by construction and build_complex checks it on
    # the face lists, so no boundary is reduced until homology is read
    torus = [[None], [[0, 0], [0, 0], [0, 0]], [[0, 2, 1], [1, 2, 0]]]
    for k, betti in ((from_simplices(combinations(range(6), 5)), (1, 0, 0, 0, 1)),
                     (from_simplices(RP2_FACES), (1, 0, 0)),
                     (build_complex(torus), (1, 2, 1))):
        assert "_reduced" not in vars(k)
        assert k.all_betti() == betti
        assert "_reduced" in vars(k)


def test_homology_builds_only_the_columns_it_reduces(monkeypatch):
    # the columns of the k-cells that were pivot rows of d_(k+1) are
    # cleared before d_k is reduced, and their boundary is never built
    built = Counter()

    def counted(faces):
        built[len(faces) - 1] += 1
        return col(faces)

    col = complexes._col
    monkeypatch.setattr(complexes, "_col", counted)
    for k in (from_simplices(combinations(range(7), 6)),
              from_simplices(suspension(suspension(RP2_FACES, 7, 8), 9, 10)),
              from_simplices(random_pure_3d(3, 10, 30))):
        built.clear()
        k.all_betti()
        cleared = [0] + [len(pivots) for pivots, _ in k._reduced[1:]] + [0]
        assert built == {d: k.n_cells(d) - cleared[d] for d in range(1, k.dim + 1)}
        assert sum(cleared) > 0


def test_boundary_composites_vanish_on_corpus():
    for k in NAMED_COMPLEXES.values():
        for d in range(2, k.dim + 1):
            composite = matmul(boundary_matrix(k, d - 1), boundary_matrix(k, d))
            assert composite == zero(composite.rows, composite.cols)


def test_circle_homology():
    assert CIRCLE.homology(0) == AbelianGroup(1)
    assert CIRCLE.homology(1) == AbelianGroup(1)


def test_rp2_structure_and_homology():
    # independent structural verification that the face list is a closed
    # surface with chi = 1: every edge lies in exactly two triangles
    edge_count = {}
    for a, b, c in RP2_FACES:
        for e in ((a, b), (a, c), (b, c)):
            edge_count[e] = edge_count.get(e, 0) + 1
    assert set(edge_count.values()) == {2}
    assert RP2.cell_counts() == (6, 15, 10)
    assert RP2.euler_characteristic() == 1
    assert RP2.is_connected()
    # homology via the public route
    assert RP2.homology(1) == AbelianGroup(0, (2,))
    assert RP2.homology(2) == AbelianGroup(0)
    # and via direct Smith normal form of the explicit boundary matrices
    d1, d2 = boundary_matrix(RP2, 1), boundary_matrix(RP2, 2)
    s1, s2 = smith_normal_form(d1), smith_normal_form(d2)
    assert 15 - s1.rank - s2.rank == 0
    assert tuple(d for d in s2.nonzero if d > 1) == (2,)


def test_torus_homology():
    assert TORUS.all_betti() == (1, 2, 1)
    assert TORUS.homology(1) == AbelianGroup(2)


def test_sphere_homology():
    assert SPHERE_2.all_betti() == (1, 0, 1)


def test_out_of_range_degrees_give_zero_group():
    assert CIRCLE.homology(-1) == AbelianGroup(0)
    assert CIRCLE.homology(5) == AbelianGroup(0)
    assert CIRCLE.betti(-1) == CIRCLE.betti(2) == CIRCLE.betti(5) == 0


def test_euler_characteristic_equals_alternating_betti_sum():
    for name, k in NAMED_COMPLEXES.items():
        betti = k.all_betti()
        assert k.euler_characteristic() == sum(
            (-1) ** i * b for i, b in enumerate(betti)
        ), name


def test_q_acyclic():
    assert POINT.is_q_acyclic()
    assert RP2.is_q_acyclic()
    assert not CIRCLE.is_q_acyclic()
    assert FULL_2_SIMPLEX.is_q_acyclic()
    assert not TORUS.is_q_acyclic()


def test_q_acyclic_rejects_disconnected():
    two_points = from_simplices([(0,), (1,)])
    with pytest.raises(ComplexError, match="connected"):
        two_points.is_q_acyclic()


def test_json_round_trip():
    for k in (CIRCLE, RP2, TORUS):
        data = json.loads(k.to_json())
        again = complex_from_json_dict(data)
        assert again.cells == k.cells


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))  # 4 is not a multiple of 3
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    g = AbelianGroup.from_invariant_factors(1, [1, 2, 4])
    assert g.rank == 1 and g.torsion == (2, 4)
    assert str(AbelianGroup(2, (2,))) == "Z + Z + Z/2"
    assert str(AbelianGroup(0)) == "0"


def test_delta_isomorphic():
    other_circle = from_simplices([(5, 6), (6, 7), (5, 7)])
    assert delta_isomorphic(CIRCLE, other_circle)
    assert not delta_isomorphic(CIRCLE, FULL_2_SIMPLEX)
    path = from_simplices([(0, 1), (1, 2)])
    assert not delta_isomorphic(CIRCLE, path)
    assert delta_isomorphic(RP2, from_simplices(RP2_FACES))


@pytest.mark.parametrize("n", [9, 12])
def test_delta_isomorphic_refuses_cycle_against_triangle_and_cycle_fast(n):
    # every vertex has degree 2 on both sides, so only the edges between
    # placed vertices tell the two apart; trying every vertex bijection
    # took 5 s at n = 9
    cycle = from_simplices([(i, (i + 1) % n) for i in range(n)])
    split = from_simplices([(0, 1), (1, 2), (0, 2)]
                           + [(3 + i, 3 + (i + 1) % (n - 3)) for i in range(n - 3)])
    start = time.perf_counter()
    assert not delta_isomorphic(cycle, split)
    assert time.perf_counter() - start < 0.5


def _brute_isomorphic(fa, fb) -> bool:
    """Whether some vertex bijection carries the simplices of fa onto fb's."""
    va, vb = sorted(set().union(*fa)), sorted(set().union(*fb))
    if len(va) != len(vb):
        return False
    return any({frozenset(image[v] for v in s) for s in fa} == fb
               for image in (dict(zip(va, p)) for p in permutations(vb)))


def _random_family(rng, n):
    tops = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(rng.randint(2, 5))]
    return closure(tops + [[v] for v in range(n)])


def test_delta_isomorphic_agrees_with_vertex_permutations():
    rng = random.Random(13)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(3, 6)
        fa = _random_family(rng, n)
        if rng.random() < 0.5:
            keys = rng.sample(range(10, 10 + n), n)
            fb = frozenset(frozenset(keys[v] for v in s) for s in fa)
        else:  # a random family with the same face counts, where one turns up
            shape = Counter(map(len, fa))
            for _ in range(50):
                fb = _random_family(rng, n)
                if Counter(map(len, fb)) == shape:
                    break
        a, b = from_simplices(fa), from_simplices(fb)
        expected = _brute_isomorphic(fa, fb)
        assert delta_isomorphic(a, b) == expected, (sorted(map(sorted, fa)), sorted(map(sorted, fb)))
        seen[expected, a.cell_counts() == b.cell_counts()] += 1
    # both verdicts occur where the cell counts do not already decide
    assert seen[True, True] >= 100 and seen[False, True] >= 10, seen


def _shuffled(k, rng):
    """k with the cells of each dimension in a random order, face lists renumbered."""
    orders = [rng.sample(range(n), n) for n in k.cell_counts()]
    position = [{old: new for new, old in enumerate(order)} for order in orders]
    cells = [[None] * len(orders[0])] + [
        [[position[d - 1][f] for f in k.cells[d][old]] for old in orders[d]]
        for d in range(1, len(orders))
    ]
    return build_complex(cells)


def test_delta_isomorphic_with_loops_and_multiple_edges():
    rng = random.Random(2)
    two_loops_at_0 = build_complex([[None, None], [[0, 0], [0, 0], [1, 0]]])
    loop_at_each = build_complex([[None, None], [[0, 0], [1, 1], [1, 0]]])
    theta = build_complex([[None, None], [[1, 0], [1, 0], [0, 1]]])
    for k in (*NAMED_COMPLEXES.values(), two_loops_at_0, loop_at_each, theta):
        assert delta_isomorphic(k, _shuffled(k, rng))
    assert not delta_isomorphic(two_loops_at_0, loop_at_each)
    assert not delta_isomorphic(loop_at_each, theta)


def _random_wedge_edges():
    """Edge lists of connected graphs on vertices 0 .. n-1, n <= 6."""
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 6)
        edges = [(i, i + 1) for i in range(n - 1)]
        extra = [
            tuple(sorted(rng.sample(range(n), 2)))
            for _ in range(rng.randint(0, 3))
        ]
        yield edges + [e for e in extra if e[0] != e[1]]


def _random_wedges():
    return map(from_simplices, _random_wedge_edges())


def _components_by_search(k):
    """The number of components of the 1-skeleton, by depth-first search."""
    adjacent = [set() for _ in range(k.n_cells(0))]
    for u, v in k.cells[1] if k.dim >= 1 else ():
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen = set()
    count = 0
    for root in range(len(adjacent)):
        if root in seen:
            continue
        count += 1
        stack = [root]
        seen.add(root)
        while stack:
            for w in adjacent[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
    return count


def test_homology_of_random_wedges_and_disjoint_pieces():
    for k in _random_wedges():
        assert k.is_connected()
        assert k.homology(0) == AbelianGroup(1)
        assert k.euler_characteristic() == 1 - k.betti(1)
    wedges = list(_random_wedge_edges())
    for first, second in zip(wedges, wedges[1:]):
        shifted = [(u + 10, v + 10) for u, v in second]
        two_wedges = from_simplices(first + shifted)
        with_point = from_simplices(first + [(10,)])
        for k in (two_wedges, with_point):
            assert not k.is_connected()
            assert k.homology(0) == AbelianGroup(2)
        assert two_wedges.betti(1) == (
            from_simplices(first).betti(1) + from_simplices(second).betti(1)
        )
        assert with_point.betti(1) == from_simplices(first).betti(1)
    empty = build_complex([[]])
    assert not empty.is_connected()
    assert empty.homology(0) == AbelianGroup(0)
    assert _components_by_search(empty) == 0


@given(st.data())
def test_is_connected_is_one_component_by_search(data):
    # loops, repeated edges and isolated vertices included
    n = data.draw(st.integers(0, 6))
    vertex = st.integers(0, max(n - 1, 0))
    edges = data.draw(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=8 if n else 0))
    k = build_complex([[None] * n, edges])
    components = _components_by_search(k)
    assert k.is_connected() == (components == 1)
    assert k.betti(0) == components


@given(st.lists(st.frozensets(st.integers(0, 6), max_size=5), max_size=6))
def test_closure_matches_brute_force(family):
    universe = sorted(set().union(*family))
    expected = {
        frozenset(sub)
        for size in range(1, len(universe) + 1)
        for sub in combinations(universe, size)
        if any(set(sub) <= s for s in family)
    }
    assert closure(family) == expected
    assert _faces(family) == {tuple(sorted(s)) for s in expected}


def test_nerve_cells_layout_and_missing_face():
    k = nerve(closure([(2, 0, 1)]))
    assert k.cells == (((), (), ()), ((1, 0), (2, 0), (2, 1)), ((2, 1, 0),))
    assert k.labels == (("0", "1", "2"), (None,) * 3, (None,))
    family = closure([(0, 1, 2)]) - {frozenset({1, 2})}
    with pytest.raises(ComplexError, match=r"simplex \[0, 1, 2\] lacks face \[1, 2\]"):
        nerve(family)
    with pytest.raises(ComplexError, match="no simplices given"):
        nerve([])


def _checked_nerve(family):
    """The oracle route: the nerve's cells as lists, checked by build_complex."""
    return build_complex(*nerve_cells(family))


@given(
    st.one_of(
        st.lists(st.frozensets(st.integers(-2, 6), max_size=5), max_size=6),
        st.lists(st.frozensets(st.sampled_from(["a", "b", "ab", "x10", "x9", "Z"]), max_size=5),
                 max_size=6),
    ),
    st.data(),
)
def test_nerve_matches_the_checked_oracle(family, data):
    # the nerve's face tuples, and from_simplices', equal those of the oracle
    # route, which runs the d d = 0 check; with one face removed both refuse
    # it alike
    faces = closure(family)
    assert verdict(nerve, faces) == verdict(_checked_nerve, faces)
    if faces:
        k, reference = nerve(faces), _checked_nerve(faces)
        assert (k.cells, k.labels) == (reference.cells, reference.labels)
        assert k == reference
        assert from_simplices(family) == reference
        drop = data.draw(st.sampled_from(sorted(faces, key=lambda f: (len(f), sorted(f)))))
        broken = faces - {drop}
        message = verdict(nerve, broken)
        assert message == verdict(_checked_nerve, broken)
        assert (message is None) == (bool(broken) and not any(drop < f for f in faces))
        if message is None:
            assert nerve(broken) == _checked_nerve(broken)


def _sympy_invariant_factors(m):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    if m.rows == 0 or m.cols == 0:
        return []
    snf = sympy_snf(Matrix([list(row) for row in m.entries]), domain=ZZ)
    return [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]


# torsion in the top residual beside columns cleared below it, dense random
# 3-complexes, and repeated faces: (a, b, a) and (b, a, b) on two loops at
# one vertex give H_1 = Z/3, and in (a, a, b) the edge a cancels
TORSION_AND_CLEARING = [
    ("suspended_rp2", from_simplices(suspension(RP2_FACES, 7, 8))),
    ("double_suspended_rp2", from_simplices(suspension(suspension(RP2_FACES, 7, 8), 9, 10))),
    ("rp2_join_triangle",
     from_simplices([f + e for e in ((7, 8), (7, 9), (8, 9)) for f in RP2_FACES])),
] + [
    (f"random_3d_{seed}", from_simplices(random_pure_3d(seed, n, count)))
    for seed, (n, count) in enumerate(((8, 30), (10, 30), (14, 48)))
] + [
    ("repeated_faces_z3", build_complex([[None], [[0, 0], [0, 0]], [[0, 1, 0], [1, 0, 1]]])),
    ("cancelling_face", build_complex([[None] * 2, [[1, 0], [0, 0]], [[0, 0, 1]]])),
]


def test_one_smith_normal_form_per_boundary(monkeypatch):
    # Betti numbers and torsion read one cached Smith normal form of each
    # boundary's residual; every route to the form is counted
    calls = []

    def counted(m):
        calls.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    monkeypatch.setattr(complexes, "smith_normal_form", counted)
    k = from_simplices(suspension(RP2_FACES, 7, 8))
    assert k.all_betti() == (1, 0, 0, 0)
    groups = [k.homology(d) for d in range(k.dim + 1)]
    assert groups == [AbelianGroup(1), AbelianGroup(0), AbelianGroup(0, (2,)), AbelianGroup(0)]
    assert len(calls) == k.dim == 3


@pytest.mark.parametrize(
    "name, k",
    [(f"boundary_delta_{n}", from_simplices(combinations(range(n + 1), n))) for n in range(2, 9)]
    + list(NAMED_COMPLEXES.items())
    + [(f"wedge_{i}", k) for i, k in enumerate(_random_wedges())]
    + TORSION_AND_CLEARING,
)
def test_homology_matches_sympy_smith_form_of_dense_boundaries(name, k):
    for d in range(k.dim + 1):
        rank_in = len(_sympy_invariant_factors(boundary_matrix(k, d)))
        out = _sympy_invariant_factors(boundary_matrix(k, d + 1))
        expected = AbelianGroup.from_invariant_factors(k.n_cells(d) - rank_in - len(out), out)
        assert k.homology(d) == expected, (name, d)
        assert k.betti(d) == expected.rank, (name, d)
