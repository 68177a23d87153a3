"""Glued models: ledgers, strata, dual complexes, blow-ups, pillows."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    FULL_2_SIMPLEX,
    RING_OUTER,
    RING_SITES,
    SQUARE_SITES,
    STRIP_ROW,
    STRIP_SITES,
    THREE_SITES_1D,
    TRIANGLE_SITES,
    TWO_SITES_1D,
)
from quotient_oracle import naive_quotient
from snclab.complexes import build_complex, delta_isomorphic, from_simplices
from snclab.snc import (
    PillowConstant,
    Pi1Verdict,
    SncCheckError,
    SncError,
    SncModel,
    blowup_dual_complex,
    blowup_ledger,
    build_snc,
    dual_complex,
    pi1_link_criterion,
    pillow_projectivity,
    sheaf_cohomology_dims,
)
from snclab.voronoi import (
    GenericityError,
    NotSimpleError,
    SiteSet,
    delaunay_dual,
    voronoi_complex,
)
from test_golden import (
    EXCEPTIONAL,
    GLUED,
    PLANAR,
    PLANAR_RATIONAL,
    PLANAR_WIDE,
    SPATIAL,
    SPATIAL_RATIONAL,
    _seeded_sites,
)

VC_TRIANGLE = voronoi_complex(TRIANGLE_SITES)
VC_STRIP = voronoi_complex(STRIP_SITES)
VC_RING = voronoi_complex(RING_SITES)
VC_TWO = voronoi_complex(TWO_SITES_1D)
VC_THREE_1D = voronoi_complex(THREE_SITES_1D)


def ledger(vc, cell, faces=None):
    """The cell's ledger as (cell, centers): every record of the
    arrangement, by dimension, outside the chart's faces."""
    star = set(blowup_ledger(vc, cell) if faces is None else faces)
    return cell, tuple(r for r in vc.arrangement.records_by_dim if r.sites not in star)


def test_ledger_triangle_cell0():
    _, centers = ledger(VC_TRIANGLE, 0)
    assert [(sorted(c.sites), c.dim) for c in centers] == [([1, 2], 1)]


def test_ledger_two_sites_empty():
    assert ledger(VC_TWO, 0) == (0, ())
    assert ledger(VC_TWO, 1) == (1, ())


def test_ledger_strip_middle_contains_q_point():
    _, centers = ledger(VC_STRIP, 1)
    keys = [c.sites for c in centers]
    assert frozenset({0, 1, 2}) in keys
    q = next(c for c in centers if c.sites == frozenset({0, 1, 2}))
    assert q.dim == 0
    assert q.span.point == (F(2), F(-3, 2))
    # increasing dimension along the ledger
    dims = [c.dim for c in centers]
    assert dims == sorted(dims)


def test_ledger_rejects_non_simple():
    with pytest.raises(NotSimpleError):
        blowup_ledger(voronoi_complex(SQUARE_SITES), 0)


def test_build_snc_two_cells_1d():
    model = build_snc(VC_TWO, [0, 1])
    keys = sorted(tuple(sorted(s.key)) for s in model.strata)
    assert keys == [(0,), (0, 1), (1,)]
    assert model.gluings == ((0, 1),)
    point = next(s for s in model.strata if s.key == {0, 1})
    assert point.dim == 0
    assert point.members == ((0, frozenset({0, 1})), (1, frozenset({0, 1})))


def test_build_snc_triangle():
    model = build_snc(VC_TRIANGLE, [0, 1, 2])
    by_size = {}
    for s in model.strata:
        by_size.setdefault(len(s.key), []).append(s)
    assert len(by_size[1]) == 3  # surfaces
    assert len(by_size[2]) == 3  # curves
    assert len(by_size[3]) == 1  # triple point
    # member faces of each stratum all share the dimension of the stratum
    for s in model.strata:
        assert {model.vc.faces[j].dim for _, j in s.members} == {s.dim}


def test_row_of_three_regression():
    good = build_snc(VC_STRIP, STRIP_ROW)
    classes = naive_quotient(VC_STRIP, STRIP_ROW, VC_STRIP.faces)
    for s in classes:
        charts = {ch for ch, _ in s.members}
        assert not {0, 2} <= charts
    assert tuple(s for s in classes if s.key <= set(STRIP_ROW)) == good.strata
    # gluing over the parasitic subspaces too, as the naive quotient does
    naive = naive_quotient(VC_STRIP, STRIP_ROW, {*VC_STRIP.faces, *VC_STRIP.subspaces})
    spurious = [s.key for s in naive if {0, 2} <= {ch for ch, _ in s.members}]
    assert spurious == [frozenset({0, 1, 2})]
    # the strata posets differ exactly by the missing 0-2 connection
    assert sorted(tuple(sorted(s.key)) for s in good.strata) == [
        (0,), (0, 1), (1,), (1, 2), (2,),
    ]


def test_ledger_consistency_across_gluings():
    for vc, selection in (
        (VC_TRIANGLE, (0, 1, 2)),
        (VC_STRIP, STRIP_ROW),
        (VC_STRIP, (0, 1, 2, 3)),
        (VC_RING, RING_OUTER),
    ):
        model = build_snc(vc, selection)
        assert model.gluings  # the verifier ran on every shared face


def test_ledger_mismatch_is_detected():
    from snclab.snc import Chart, _verify_ledger_match

    charts = build_snc(VC_STRIP, STRIP_ROW).charts
    # forge cell 1's star to hold a center that lies inside the 0-1 wall
    # (the q-point H{0,1,2}), so that center leaves cell 1's ledger
    q = frozenset({0, 1, 2})
    pruned = Chart(1, (*charts[1].faces, q))
    assert q in [c.sites for c in ledger(VC_STRIP, 1, charts[1].faces)[1]]
    assert q not in [c.sites for c in ledger(VC_STRIP, 1, pruned.faces)[1]]
    _verify_ledger_match(VC_STRIP, charts[0], charts[1], frozenset({0, 1}))
    with pytest.raises(SncError, match="disagree"):
        _verify_ledger_match(VC_STRIP, charts[0], pruned, frozenset({0, 1}))


def test_build_snc_errors():
    with pytest.raises(SncError):
        build_snc(VC_TRIANGLE, [])
    with pytest.raises(SncError):
        build_snc(VC_TRIANGLE, [7])
    square = voronoi_complex(SQUARE_SITES)
    with pytest.raises(NotSimpleError) as raised:
        build_snc(square, [0, 1])
    assert str(raised.value) == str(NotSimpleError(square.simplicity_witness()))


def test_dual_complex_matches_delaunay():
    for vc, selection in (
        (VC_TWO, (0, 1)),
        (VC_THREE_1D, (0, 1, 2)),
        (VC_TRIANGLE, (0, 1, 2)),
        (VC_STRIP, STRIP_ROW),
        (VC_STRIP, (0, 1, 2, 3)),
        (VC_RING, RING_OUTER),
    ):
        model = build_snc(vc, selection)
        dual = dual_complex(model)
        reference = delaunay_dual(vc, selection)
        assert dual.cell_counts() == reference.cell_counts()
        assert delta_isomorphic(dual, reference)


def test_dual_complex_checks_the_reference_it_is_handed():
    model = build_snc(VC_TRIANGLE, (0, 1, 2))
    assert dual_complex(model, delaunay_dual(VC_TRIANGLE, (0, 1, 2))) == dual_complex(model)
    with pytest.raises(SncCheckError, match="not isomorphic"):
        dual_complex(model, delaunay_dual(VC_STRIP, STRIP_ROW))


def test_dual_complex_examples():
    assert dual_complex(build_snc(VC_TWO, (0, 1))).cell_counts() == (2, 1)
    assert dual_complex(build_snc(VC_TRIANGLE, (0, 1, 2))).cell_counts() == (3, 3, 1)
    row = dual_complex(build_snc(VC_STRIP, STRIP_ROW))
    assert row.cell_counts() == (3, 2)


def test_blowup_dual_complex_triple_point():
    blown = blowup_dual_complex(FULL_2_SIMPLEX, (2, 0))
    expected = build_complex([FULL_2_SIMPLEX.cells[0], FULL_2_SIMPLEX.cells[1]])
    assert blown.cells == expected.cells
    assert blown.all_betti() == (1, 1)


def test_blowup_dual_complex_non_stratum():
    assert blowup_dual_complex(FULL_2_SIMPLEX, "non-stratum") is FULL_2_SIMPLEX


def test_blowup_dual_complex_edge():
    edge = from_simplices([(0, 1)])
    blown = blowup_dual_complex(edge, (1, 0))
    assert blown.cell_counts() == (2,)
    assert not blown.is_connected()


def test_blowup_dual_complex_star_removal():
    # removing a vertex of the 2-simplex removes its star: two edges and
    # the triangle go with it
    blown = blowup_dual_complex(FULL_2_SIMPLEX, (0, 0))
    assert blown.cell_counts() == (2, 1)


def test_blowup_dual_complex_unknown_cell():
    with pytest.raises(SncError):
        blowup_dual_complex(FULL_2_SIMPLEX, (2, 5))


def test_sheaf_cohomology_dims():
    assert sheaf_cohomology_dims(build_snc(VC_TRIANGLE, (0, 1, 2))) == (1, 0, 0)
    ring_model = build_snc(VC_RING, RING_OUTER)
    assert sheaf_cohomology_dims(ring_model) == (1, 1)
    flagged = replace(ring_model, rational={**ring_model.rational, frozenset({1}): False})
    with pytest.raises(SncError, match="non-rational"):
        sheaf_cohomology_dims(flagged)


def test_pillow_projectivity_examples():
    one = PillowConstant.build(1, 0)
    assert pillow_projectivity(one, one, one) == (True, 1)
    assert pillow_projectivity(PillowConstant.build(2, 0), one, one) == (False, None)
    third = PillowConstant.build(1, F(1, 3))
    assert pillow_projectivity(third, third, third) == (True, 1)
    assert pillow_projectivity(third, third, one) == (True, 3)
    with pytest.raises(SncError):
        PillowConstant.build(0, 0)
    with pytest.raises(SncError):
        PillowConstant.build(-2, 0)


def test_pillow_inversion_invariance_and_product_dependence():
    rng = random.Random(55)
    for _ in range(50):
        constants = [
            PillowConstant.build(
                F(rng.randint(1, 5), rng.randint(1, 5)),
                F(rng.randint(-6, 6), rng.randint(1, 6)),
            )
            for _ in range(3)
        ]
        inverted = [
            PillowConstant.build(1 / c.modulus, -c.turns) for c in constants
        ]
        assert pillow_projectivity(*constants) == pillow_projectivity(*inverted[::-1])
        # redistribute the same product across the three slots
        total_mod = constants[0].modulus * constants[1].modulus * constants[2].modulus
        total_turn = constants[0].turns + constants[1].turns + constants[2].turns
        redistributed = [
            PillowConstant.build(total_mod, total_turn),
            PillowConstant.build(1, 0),
            PillowConstant.build(1, 0),
        ]
        assert pillow_projectivity(*constants) == pillow_projectivity(*redistributed)


def test_pi1_link_criterion():
    model = build_snc(VC_TRIANGLE, (0, 1, 2))
    assert pi1_link_criterion(model) is Pi1Verdict.ISOMORPHISM_CLAIMED
    doubted = replace(model, sphere_class={**model.sphere_class, frozenset({0}): False})
    assert pi1_link_criterion(doubted) is Pi1Verdict.UNKNOWN
    empty = SncModel(model.vc, (), {}, (), (), {}, {})
    with pytest.raises(SncError, match="no components"):
        pi1_link_criterion(empty)


def test_model_json_is_stable():
    model = build_snc(VC_STRIP, STRIP_ROW)
    again = build_snc(VC_STRIP, STRIP_ROW)
    assert model.to_json() == again.to_json()


def render_per_chart(model):
    """The model's JSON as it was rendered with a fresh dict for every
    (chart, record) pair and pre-sorted flag maps: the oracle for
    `SncModel.to_json`."""
    def flags(table):
        ordered = sorted(table.items(), key=lambda kv: sorted(kv[0]))
        return {json.dumps(sorted(k)): v for k, v in ordered}

    out = {
        "dim": model.dim,
        "selection": list(model.selection),
        "charts": [
            {
                "cell": c.cell,
                "ledger": [{"sites": sorted(r.sites), "dim": r.dim}
                           for r in ledger(model.vc, c.cell, c.faces)[1]],
                "faces": [sorted(f) for f in c.faces],
            }
            for _, c in sorted(model.charts.items())
        ],
        "gluings": [list(g) for g in model.gluings],
        "strata": [
            {"key": sorted(s.key), "dim": s.dim, "members": [[ch, sorted(j)] for ch, j in s.members]}
            for s in model.strata
        ],
        "flags": {"rational": flags(model.rational), "sphere_class": flags(model.sphere_class)},
        "ledgers_applied": True,
    }
    return json.dumps(out, sort_keys=True) + "\n"


@pytest.mark.parametrize("sites", [
    SiteSet.build(2, _seeded_sites(5, 10, 2, 10**6)),
    SiteSet.build(3, GLUED["spatial11_8"]),
], ids=["planar5_10", "spatial11_8"])
def test_ledgers_share_one_dict_per_record(sites):
    vc = voronoi_complex(sites)
    model = build_snc(vc, vc.cell_indices())
    rendered = model.to_json_dict()
    entries = [e for chart in rendered["charts"] for e in chart["ledger"]]
    by_sites = {}
    for e in entries:
        by_sites.setdefault(tuple(e["sites"]), set()).add(id(e))
    assert all(len(ids) == 1 for ids in by_sites.values())
    assert len(entries) > len({id(e) for e in entries})
    assert len({id(e) for e in entries}) <= len(vc.arrangement.records_by_dim)
    assert model.to_json() == render_per_chart(model)
    part = build_snc(vc, [0, 2])
    assert part.to_json() == render_per_chart(part)


GOLDEN_SITES = {
    "triangle": TRIANGLE_SITES,
    "strip": STRIP_SITES,
    "ring": RING_SITES,
    "planar": SiteSet.build(2, PLANAR),
    "wide": SiteSet.build(2, PLANAR_WIDE),
    "spatial": SiteSet.build(3, SPATIAL),
    "planar_rational": SiteSet.build(2, PLANAR_RATIONAL),
    "spatial_rational": SiteSet.build(3, SPATIAL_RATIONAL),
    **{name: SiteSet.build(len(pts[0]), pts) for name, pts in GLUED.items()},
    "exceptional": EXCEPTIONAL,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SITES))
def test_blowup_ledger_returns_the_faces_of_the_cell(name):
    vc = voronoi_complex(GOLDEN_SITES[name])
    for cell in vc.cell_indices():
        expected = tuple(sorted((f.sites for f in vc.face_list() if cell in f.sites), key=sorted))
        assert blowup_ledger(vc, cell) == expected


def assert_strata_are_the_naive_quotient(vc, selection):
    """Keys, members, dims and order: the strata are the classes of the
    gluing closure over the face keys that lie in the selection."""
    classes = naive_quotient(vc, selection, vc.faces)
    expected = tuple(s for s in classes if s.key <= set(selection))
    assert build_snc(vc, selection).strata == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_SITES))
def test_strata_are_the_naive_quotient_on_golden_sites(name):
    vc = voronoi_complex(GOLDEN_SITES[name])
    cells = vc.cell_indices()
    rng = random.Random(name)
    assert_strata_are_the_naive_quotient(vc, cells)
    for _ in range(3):
        assert_strata_are_the_naive_quotient(vc, rng.sample(cells, rng.randint(1, len(cells))))


@st.composite
def site_sets_with_selections(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, {2: 7, 3: 5}[dim]))
    points = draw(
        st.lists(st.tuples(*[st.integers(0, 8)] * dim), min_size=n, max_size=n, unique=True)
    )
    selection = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return SiteSet.build(dim, points), selection


@settings(max_examples=60)
@given(site_sets_with_selections())
def test_strata_are_the_naive_quotient_on_random_sites(case):
    sites, selection = case
    try:
        vc = voronoi_complex(sites)
        build_snc(vc, selection)
    except (GenericityError, NotSimpleError):
        return
    assert_strata_are_the_naive_quotient(vc, selection)
