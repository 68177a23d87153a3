"""Tests of the benchmark itself: oracles against snclab on known inputs,
oracles against corrupted outputs, and repeatable traced counts."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from itertools import combinations

import pytest

import oracles
import run
import workloads

# the corpus configurations of the test suite, scaled to integers where
# needed (scaling keeps the Voronoi and Delaunay structure)
TRIANGLE = [(0, 0), (1, 0), (0, 1)]
STRIP = [(0, 0), (2, 1), (4, 0), (2, -2)]
RING = [(0, 0), (8, 0), (0, 12), (-10, 0), (0, -7)]
# 7-vertex torus: the corpus torus is a one-vertex Delta-complex, which
# the simplicial oracle cannot read, so its minimal triangulation stands in
TORUS = [tuple(sorted(v % 7 for v in (i, i + step, i + 3))) for step in (1, 2) for i in range(7)]


@pytest.fixture
def lib():
    """snclab as the benchmark imports it; the suite's own modules come back after."""
    saved = {k: v for k, v in sys.modules.items() if k == "snclab" or k.startswith("snclab.")}
    yield run.import_snclab()
    for k in [k for k in sys.modules if k == "snclab" or k.startswith("snclab.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def _delaunay_report(lib, points):
    vc = lib.voronoi.voronoi_complex(lib.voronoi.SiteSet.build(len(points[0]), points))
    dual = lib.voronoi.delaunay_dual(vc, vc.cell_indices())
    return {"selection": list(range(len(points))), "complex": dual.to_json_dict(),
            "betti": list(dual.all_betti())}


@pytest.mark.parametrize("points", [TRIANGLE, STRIP, RING], ids=["triangle", "strip", "ring"])
def test_delaunay_oracle_agrees_with_snclab(lib, points):
    assert oracles.check_delaunay(points, _delaunay_report(lib, points)) is None


def test_delaunay_oracle_rejects_dropped_triangle_and_wrong_betti(lib):
    report = _delaunay_report(lib, RING)
    dropped = json.loads(json.dumps(report))
    dropped["complex"]["cells"][2].pop()
    assert oracles.check_delaunay(RING, dropped) is not None
    wrong = json.loads(json.dumps(report))
    wrong["betti"][1] = 1
    assert oracles.check_delaunay(RING, wrong) is not None


def _pipeline(lib, tmp_path, points):
    d = len(points[0])
    hi = max(abs(c) for p in points for c in p)
    shifted = [tuple(c + hi for c in p) for p in points]
    paths = []
    for name, data in (("c", workloads.simplex_complex_json(d)),
                       ("s", {"dim": d, "sites": [[str(c) for c in p] for p in shifted]}),
                       ("r", workloads.region_json(d, 2 * hi))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    report, code = lib.cli.run_pipeline(*paths)
    return shifted, report, code


@pytest.mark.parametrize("points", [TRIANGLE, STRIP, RING], ids=["triangle", "strip", "ring"])
def test_pipeline_oracle_agrees_with_snclab(lib, tmp_path, points):
    shifted, report, code = _pipeline(lib, tmp_path, points)
    assert oracles.check_pipeline(shifted, report, code) is None


def test_pipeline_oracle_rejects_dropped_stratum_and_wrong_betti(lib, tmp_path):
    shifted, report, code = _pipeline(lib, tmp_path, RING)
    dropped = json.loads(json.dumps(report))
    dropped["snc"]["strata"] = [s for s in dropped["snc"]["strata"] if len(s) < 3]
    assert oracles.check_pipeline(shifted, dropped, code) is not None
    wrong = json.loads(json.dumps(report))
    wrong["final"]["betti"][0] = 2
    assert oracles.check_pipeline(shifted, wrong, code) is not None
    assert oracles.check_pipeline(shifted, report, 1) is not None


def test_general_position_filter():
    assert not oracles.general_position([(0, 0), (1, 1), (2, 2)])  # collinear
    assert not oracles.general_position([(0, 0), (2, 0), (0, 2), (2, 2)])  # cocircular
    # no 3 collinear, no 4 cocircular, but two triangles share a circumcentre
    assert not oracles.general_position([(-5, 0), (-4, -3), (-4, 3), (-13, 0), (-12, -5), (-5, -12)])
    assert not oracles.general_position([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])  # coplanar
    rng = random.Random(0)
    pts = workloads.draw_sites(rng, 9, 2, 97)
    assert oracles.general_position(pts)


def _small_roots(lib):
    return [lib.resolution.LocalModel.build(range(1, dx + 1), m, [(10 + i, a) for i, a in enumerate(p)])
            for dx, m, p in workloads.degree_box() if dx <= 3 and m <= 2]


def test_degree_box_shape():
    box = workloads.degree_box()
    assert len(box) == 240
    assert sum(1 for dx, m, _ in box if (dx, m) == (4, 3)) == 12


def test_trace_oracle_agrees_with_snclab(lib):
    for root in _small_roots(lib):
        trace = lib.resolution.resolve([root])
        assert trace.all_resolved() and trace.nerve_constant()
        assert oracles.check_trace(root, trace) is None


def test_trace_oracle_rejects_missing_leaf_and_unresolved_leaf(lib):
    root = lib.resolution.LocalModel.build([1, 2, 3], 2, [(10, 2)])
    trace = lib.resolution.resolve([root])
    assert oracles.check_trace(root, dataclasses.replace(trace, nodes=trace.nodes[:-1])) is not None
    last = trace.steps[-1]
    missing = dataclasses.replace(last, children=last.children[:-1])
    assert oracles.check_trace(
        root, dataclasses.replace(trace, steps=trace.steps[:-1] + (missing,))) is not None
    assert oracles.check_trace(root, dataclasses.replace(trace, steps=trace.steps[:-1])) is not None


def _homology(lib, facets):
    k = lib.complexes.from_simplices(facets)
    h1 = lib.presentations.abelianization(lib.presentations.pi1_presentation(k).simplified())
    return k.all_betti(), (h1.rank, list(h1.torsion))


@pytest.mark.parametrize("facets", [workloads.RP2, TORUS,
                                    workloads.suspension(workloads.RP2, 7, 8),
                                    list(combinations(range(7), 6))],
                         ids=["rp2", "torus", "suspended_rp2", "boundary_delta_6"])
def test_homology_oracle_agrees_with_snclab(lib, facets):
    expected = oracles.simplicial_homology(facets)
    betti, h1 = _homology(lib, facets)
    assert oracles.check_homology(expected, betti, h1) is None


def test_homology_oracle_values_and_rejections(lib):
    expected = oracles.simplicial_homology(workloads.RP2)
    assert expected[0] == [1, 0, 0] and expected[1][1] == [2]
    assert oracles.simplicial_homology(TORUS)[0] == [1, 2, 1]
    betti, h1 = _homology(lib, workloads.RP2)
    assert oracles.check_homology(expected, (1, 0, 1), h1) is not None
    assert oracles.check_homology(expected, betti, (0, [])) is not None
    assert oracles.check_homology(expected, betti, (1, [2])) is not None


class SmallPipeline(workloads.PipelineSnc):
    SHAPES = ((2, 5, 97), (3, 5, 31))
    pass_seconds = 1.0


COUNTS = ("calls", "entries", "subspaces", "strata", "steps", "nodes", "distinct_states")


def test_traced_counts_repeat_and_match_untraced_outputs(lib, tmp_path):
    first = run.measure(SmallPipeline(), 7, 1, 1, tmp_path)
    second = run.measure(SmallPipeline(), 7, 1, 1, tmp_path)
    untraced = run.measure(SmallPipeline(), 7, 0, 0, tmp_path)
    assert first.failed == second.failed == untraced.failed == 0
    counts = [{k: v for k, v in m.tracer.layer_metrics().items() if k.endswith(COUNTS)}
              for m in (first, second)]
    assert counts[0] == counts[1]
    for layer in ("qlinalg", "voronoi", "snc", "resolution", "intlinalg"):
        assert any(v for k, v in counts[0].items() if k.startswith(layer)), layer
    assert first.digest == second.digest == untraced.digest
    assert first.counts == untraced.counts
    # traced counts sum over the passes; input counts over each input's first output
    assert counts[0]["resolution.steps"] == untraced.counts["steps"] * untraced.passes
    # uninstall restored every binding
    assert not hasattr(sys.modules["snclab.cli"].build_snc, "__wrapped__")
    assert not hasattr(sys.modules["snclab.qlinalg"].AffineSubspace.intersect, "__wrapped__")


class FlakyPipeline(SmallPipeline):
    """Renders a different output every time it is asked."""

    def __init__(self):
        self.calls = 0

    def render(self, inp, out):
        self.calls += 1
        return super().render(inp, out) + f"{self.calls}\n"


def test_output_that_changes_between_passes_fails(lib, tmp_path):
    m = run.measure(FlakyPipeline(), 7, 0, 0, tmp_path)
    assert m.passes == run.MIN_PASSES
    assert m.failed == len(SmallPipeline.SHAPES) * (run.MIN_PASSES - 1)
    assert all("differs from its first output" in e for e in m.errors)


def test_schedule_repeats_every_input_in_a_seeded_order():
    order = run.schedule(30, 4, 7, "w")
    assert all(sorted(ids) == list(range(30)) for ids in order)
    assert len({tuple(ids) for ids in order}) == 4
    assert order == run.schedule(30, 4, 7, "w") != run.schedule(30, 4, 8, "w")


def test_each_op_is_scaled_by_the_probes_on_either_side():
    ref = run.REFERENCE_S
    events = [2 * ref, (0, 0.5), (1, 0.2), 4 * ref, (2, 1.0), 2 * ref]
    ops = run.scaled(events)
    assert [(i, raw) for i, raw, _ in ops] == [(0, 0.5), (1, 0.2), (2, 1.0)]
    assert [t for _, _, t in ops] == pytest.approx([0.5 / 3, 0.2 / 3, 1.0 / 3])


def test_tail_uses_the_eleventh_largest_sample():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail(list(range(22))) == (11, 100.0 * 12 / 22)
    # at 21 samples or fewer the 11th largest would not lie above the median
    assert run.tail(list(range(21))) == (20, 100.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)
