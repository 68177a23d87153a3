"""Acceptance criteria.

Each test evaluates one criterion at its stated tolerance (everything
here is exact arithmetic, so tolerance means time budget plus exact
comparisons) and prints one pass/fail line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they appear.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations

from corpus import (
    CIRCLE,
    FULL_2_SIMPLEX,
    RING_OUTER,
    RING_SITES,
    RP2,
    STRIP_ROW,
    STRIP_SITES,
    THREE_SITES_1D,
    TORUS,
    TRIANGLE_SITES,
    TWO_SITES_1D,
)
from fraction_kernel import contains, contains_point
from minors_oracle import exponent_matrix, invariant_factors_by_minors
from quotient_oracle import naive_quotient
from snclab.complexes import AbelianGroup, build_complex, delta_isomorphic, from_simplices
from snclab.presentations import (
    Presentation,
    SuperperfectVerdict,
    abelianization,
    higman_presentation,
    is_q_perfect,
    is_q_superperfect_sufficient,
    pi1_presentation,
    sl2z_presentation,
)
from snclab.resolution import (
    LocalModel,
    Mdeg,
    resolve,
    select_rule,
    step_determinantal,
    step_monomial,
    step_mult2,
)
from snclab.seifert import (
    BaseCohomology,
    H2Decomposition,
    circle_action_feasible,
    link_betti,
)
from snclab.snc import (
    blowup_dual_complex,
    build_snc,
    dual_complex,
    sheaf_cohomology_dims,
)
from snclab.voronoi import (
    GenericityError,
    SiteSet,
    VoronoiError,
    classify_subspaces,
    delaunay_dual,
    voronoi_complex,
)

from test_resolution import BOX
from tree_resolver import apply_rule, verify_certificate
from test_seifert import gysin_circle_bundle_over_curve, random_valid_base
from test_seifert import random_decomposition


@contextmanager
def criterion(number: int, description: str, budget: float):
    start = time.monotonic()
    failed = None
    try:
        yield
    except BaseException as exc:  # report, then re-raise
        failed = exc
    elapsed = time.monotonic() - start
    status = "PASS" if failed is None and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number}: {description} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    if failed is not None:
        raise failed
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_dual_complex_blowup():
    with criterion(1, "dual-complex blow-up behavior", 1.0):
        blown = blowup_dual_complex(FULL_2_SIMPLEX, (2, 0))
        boundary = build_complex(
            [FULL_2_SIMPLEX.cells[0], FULL_2_SIMPLEX.cells[1]],
            [FULL_2_SIMPLEX.labels[0], FULL_2_SIMPLEX.labels[1]],
        )
        assert blown.cells == boundary.cells
        assert blown.labels == boundary.labels
        untouched = blowup_dual_complex(FULL_2_SIMPLEX, "non-stratum")
        assert untouched.cells == FULL_2_SIMPLEX.cells


def test_criterion_2_dual_complex_identification():
    with criterion(2, "glued-model dual complexes match Delaunay duals", 10.0):
        configurations = [
            (voronoi_complex(TWO_SITES_1D), (0, 1)),
            (voronoi_complex(THREE_SITES_1D), (0, 1, 2)),
            (voronoi_complex(TRIANGLE_SITES), (0, 1, 2)),
            (voronoi_complex(STRIP_SITES), STRIP_ROW),
            (voronoi_complex(STRIP_SITES), (0, 1, 2, 3)),
            (voronoi_complex(RING_SITES), RING_OUTER),
            (voronoi_complex(SiteSet.build(2, [[5, 7]])), (0,)),
        ]
        assert len(configurations) >= 5
        for vc, selection in configurations:
            model = build_snc(vc, selection)
            assert delta_isomorphic(dual_complex(model), delaunay_dual(vc, selection))
        # the row-of-three regression: no spurious class in the gluing
        # closure over the faces, whose classes in the selection are the
        # strata; exactly the parasitic triple-point class when the naive
        # quotient also glues over the parasitic subspaces
        vc = voronoi_complex(STRIP_SITES)
        classes = naive_quotient(vc, STRIP_ROW, vc.faces)
        assert all(not {0, 2} <= {ch for ch, _ in s.members} for s in classes)
        strata = tuple(s for s in classes if s.key <= set(STRIP_ROW))
        assert strata == build_snc(vc, STRIP_ROW).strata
        naive = naive_quotient(vc, STRIP_ROW, {*vc.faces, *vc.subspaces})
        spurious = [s for s in naive if {0, 2} <= {ch for ch, _ in s.members}]
        assert [s.key for s in spurious] == [frozenset({0, 1, 2})]


def _random_simple_generic_complexes(count: int, rng: random.Random):
    """Simple complexes whose subspace table passes the genericity check;
    non-generic random draws are legitimate rejections and are redrawn."""
    found = []
    while len(found) < count:
        m = rng.choice([1, 2, 2, 3])
        n = rng.randint(3, 7)
        sites = set()
        while len(sites) < n:
            sites.add(tuple(F(rng.randint(0, 24)) for _ in range(m)))
        try:
            vc = voronoi_complex(SiteSet(m, tuple(sorted(sites))))
        except VoronoiError:
            continue
        if not vc.is_simple():
            continue
        try:
            reports = [classify_subspaces(vc, c) for c in range(n)]
        except GenericityError:
            continue
        found.append((vc, reports))
    return found


def test_criterion_3_parasitic_parents():
    with criterion(3, "parasitic parents and intersection closure, 100 random complexes", 60.0):
        rng = random.Random(20260809)
        checked = 0
        for index, (vc, reports) in enumerate(
            _random_simple_generic_complexes(100, rng)
        ):
            m = vc.dim
            checked += 1
            # classify_subspaces already enforces these properties; re-derive
            # them independently on a sample of cells
            if index % 10 == 0:
                for rep in reports:
                    for record in rep.essential:
                        if record.dim > m - 2:
                            continue
                        supers = [
                            p for p in rep.parasitic
                            if contains_point(p.span, record.span.point)
                            and contains(p.span, record.span)
                        ]
                        minimal = [
                            p for p in supers
                            if not any(
                                q is not p
                                and contains_point(p.span, q.span.point)
                                and contains(p.span, q.span)
                                for q in supers
                            )
                        ]
                        assert len(minimal) == 1
                        assert minimal[0].dim == record.dim + 1
                        assert rep.minimal_parasitic_parent[record.sites] == minimal[0].sites
        assert checked == 100


def _legal_rule_applications(model):
    d = model.mdeg()
    xs = sorted(model.x_divisors)
    pairs = list(combinations(xs, 2))
    if model.det_size >= 2 and pairs:
        for pair in pairs:
            yield "detres", step_determinantal(model, pair)
    if pairs:
        for j, a in model.exceptional:
            if a >= 2:
                for pair in pairs:
                    yield "monres-1", step_monomial(model, ("exp>=2", j), pair)
        singles = [j for j, a in model.exceptional if a == 1]
        for j1, j2 in combinations(singles, 2):
            for pair in pairs:
                yield "monres-2", step_monomial(model, ("pair", j1, j2), pair)
        if model.det_size == 1:
            for j in singles:
                for pair in pairs:
                    yield "monres-3", step_monomial(model, ("y_z_pair", j), pair)
    if d.deg_y == 1 and d.deg_z == 0 and d.deg_x >= 2:
        for i1 in xs:
            yield "binres", step_mult2(model, i1)


def test_criterion_4_resolution_calculus():
    with criterion(4, "resolution calculus over the exhaustive degree box", 120.0):
        # (a) strict lexicographic descent for every legal rule application
        for model in BOX:
            parent = model.mdeg()
            for name, charts in _legal_rule_applications(model):
                for c in charts:
                    assert c.mdeg() < parent, (name, model.state())
            rule = select_rule(model)
            if rule is not None and rule[0] == "normalize":
                (child,) = apply_rule(model, rule)
                assert child.mdeg() == Mdeg(parent.deg_x, 1, 0)
                for grandchild in apply_rule(child, select_rule(child)):
                    assert grandchild.mdeg() < parent
        # (b) + (c) termination with resolved leaves and per-step nerve
        # invariance on every box root
        for model in BOX:
            trace = resolve([model])
            assert trace.all_resolved()
            assert trace.nerve_constant()
            verify_certificate(trace)
        # (d) the ordinary node resolves in one step with two leaves
        trace = resolve([LocalModel.build([1, 2], 1)])
        assert len(trace.steps) == 1
        assert trace.leaf_count() == 2


def test_criterion_5_seifert_formula():
    with criterion(5, "link Betti numbers over orbifold bases", 5.0):
        assert link_betti(BaseCohomology.build(2, [1, 0, 1, 0, 1])) == (1, 0, 0, 0, 0, 1)
        elliptic = BaseCohomology.build(1, [1, 2, 1])
        assert link_betti(elliptic) == (1, 2, 2, 1)
        assert link_betti(elliptic) == gysin_circle_bundle_over_curve(1, 2, 1)
        rng = random.Random(2718)
        for _ in range(50):
            base = random_valid_base(rng)
            betti = link_betti(base)
            n = len(betti) - 1
            assert all(betti[i] == betti[n - i] for i in range(n + 1))
            assert sum((-1) ** i * b for i, b in enumerate(betti)) == 0


def test_criterion_6_circle_action_conditions():
    with criterion(6, "circle-action feasibility conditions", 5.0):
        assert circle_action_feasible(H2Decomposition.build(0, {3: 5}, 0)) == (True, None)
        assert circle_action_feasible(
            H2Decomposition.build(0, {3: 1, 9: 1}, 0)
        ) == (False, "condition_1")
        assert circle_action_feasible(
            H2Decomposition.build(3, {2: 1, 4: 1}, 2)
        ) == (False, "condition_2")
        rng = random.Random(1234)
        for _ in range(200):
            h = random_decomposition(rng)
            if circle_action_feasible(h)[0]:
                assert circle_action_feasible(
                    H2Decomposition(h.k + 1, h.c, h.barden)
                )[0]


def test_criterion_7_group_criteria():
    with criterion(7, "rational perfectness criteria", 30.0):
        assert is_q_perfect(higman_presentation())
        assert abelianization(higman_presentation()) == AbelianGroup(0)
        assert (
            is_q_superperfect_sufficient(sl2z_presentation())
            is SuperperfectVerdict.CONFIRMED
        )
        free = Presentation.build(1, [])
        assert not is_q_perfect(free)
        assert is_q_superperfect_sufficient(free) is SuperperfectVerdict.INCONCLUSIVE
        # abelianized pi_1 against chain-level H_1 on 100 random complexes
        rng = random.Random(424242)
        for _ in range(100):
            n = rng.randint(3, 6)
            simplices = [(i, i + 1) for i in range(n - 1)]
            for _ in range(rng.randint(0, 4)):
                simplices.append(tuple(sorted(rng.sample(range(n), 2))))
            for _ in range(rng.randint(0, 4)):
                simplices.append(tuple(sorted(rng.sample(range(n), 3))))
            k = from_simplices(simplices)
            assert abelianization(pi1_presentation(k)) == k.homology(1)
        # and the exponent-matrix route against the determinantal-divisor
        # oracle on 100 random presentations
        for _ in range(100):
            gens = rng.randint(1, 4)
            relators = [
                [rng.choice([1, -1]) * rng.randint(1, gens)
                 for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(0, 4))
            ]
            p = Presentation.build(gens, relators)
            factors = invariant_factors_by_minors(exponent_matrix(p))
            nonzero = [d for d in factors if d != 0]
            assert abelianization(p) == AbelianGroup.from_invariant_factors(
                gens - len(nonzero), nonzero
            )


def test_criterion_8_q_acyclic_criterion():
    with criterion(8, "rational-acyclicity eligibility", 5.0):
        assert RP2.is_q_acyclic()
        assert not CIRCLE.is_q_acyclic()
        assert not TORUS.is_q_acyclic()
        ring_model = build_snc(voronoi_complex(RING_SITES), RING_OUTER)
        assert sheaf_cohomology_dims(ring_model) == (1, 1)


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "pipeline determinism and stage preservation", 10.0):
        from snclab.cli import run_pipeline, _render

        complex_path = tmp_path / "complex.json"
        complex_path.write_text(json.dumps(
            {"dim": 2, "cells": [[None, None, None], [[1, 0], [2, 0], [2, 1]], [[2, 1, 0]]]}
        ))
        sites_path = tmp_path / "sites.json"
        sites_path.write_text(json.dumps(
            {"dim": 2, "sites": [["0", "0"], ["1", "0"], ["0", "1"]]}
        ))
        region_path = tmp_path / "region.json"
        region_path.write_text(json.dumps(
            {"simplices": [[["0", "0"], ["1", "0"], ["0", "1"]]]}
        ))
        report1, code1 = run_pipeline(str(complex_path), str(sites_path), str(region_path))
        report2, code2 = run_pipeline(str(complex_path), str(sites_path), str(region_path))
        assert code1 == code2 == 0
        assert _render(report1, "json") == _render(report2, "json")
        # and across separate interpreter runs with different hash seeds
        import os
        import subprocess
        import sys

        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "snclab.cli", "pipeline",
                 str(complex_path), str(sites_path), str(region_path)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == _render(report1, "json").encode()
        verdicts = report1["verdicts"]
        assert verdicts["homology_preserved_across_stages"] is True
        assert verdicts["input_homology_match"] is True
        assert verdicts["rational_singularity_eligible"] is True
        assert report1["final"]["betti"] == [1, 0, 0]
