"""The four workloads: seeded input generators, the timed operation, its
rendered output (hashed into the run digest), exact output counts and the
oracle check.

Inputs come from `random.Random` seeded with a string naming the workload,
the seed and the position, so the same seed always gives the same inputs.
A run times the same inputs in several passes; `make_inputs` builds them
anew for each pass from that pass's fresh import of snclab, so no object
or module state of one pass reaches the next.

`pass_seconds` is the nominal operation time of one pass at the speed a
shared 2-vCPU machine typically gives; it sets the number of passes.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations

import oracles


def _rng(workload: str, seed: int, item: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{item}")


def draw_sites(rng: random.Random, n: int, dim: int, hi: int) -> list[tuple[int, ...]]:
    """n distinct integer sites in [0, hi]^dim, redrawn until in general position."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(0, hi) for _ in range(dim)))
        pts = sorted(pts)
        if oracles.general_position(pts):
            return pts


def simplex_complex_json(dim: int) -> dict:
    """The full dim-simplex in the complex JSON format of the CLI."""
    layers = [list(combinations(range(dim + 1), k + 1)) for k in range(dim + 1)]
    index = [{s: i for i, s in enumerate(layer)} for layer in layers]
    cells = [[None] * len(layers[0])]
    for k in range(1, dim + 1):
        cells.append([[index[k - 1][s[:i] + s[i + 1:]] for i in range(len(s))]
                      for s in layers[k]])
    return {"dim": dim, "cells": cells}


def region_json(dim: int, hi: int) -> dict:
    """One simplex containing [0, hi]^dim, so every Voronoi cell is selected."""
    big = dim * (hi + 1) + 1
    corners = [[-1] * dim] + [[big if i == j else -1 for i in range(dim)] for j in range(dim)]
    return {"simplices": [[[str(c) for c in p] for p in corners]]}


def _dump(path, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


class PipelineSnc:
    """`snclab pipeline` in process: sites -> Voronoi -> SNC -> resolution."""

    name = "pipeline_snc"
    root_span = "cli.run_pipeline"
    pass_seconds = 5.4  # 4.5 s at the machine's fastest
    deferred_check = False
    # (dimension, sites, coordinate bound).  Planar sets take 0.19-0.25 s
    # and 3D sets 0.06-0.11 s, so the median and the tail fall among the
    # planar ones; 7-site planar sets take 0.7-1.0 s, and a median over the
    # few of them a run can repeat moves by a third between seeds
    SHAPES = ((2, 6, 97),) * 20 + ((3, 5, 31),) * 4

    def make_inputs(self, lib, seed, workdir):
        inputs = []
        shared = {}
        for d, _, hi in self.SHAPES:
            if d not in shared:
                shared[d] = (
                    _dump(workdir / f"{d}d-complex.json", simplex_complex_json(d)),
                    _dump(workdir / f"{d}d-region.json", region_json(d, hi)),
                )
        for i, (d, n, hi) in enumerate(self.SHAPES):
            pts = draw_sites(_rng(self.name, seed, i), n, d, hi)
            sites = {"dim": d, "sites": [[str(c) for c in p] for p in pts]}
            path = _dump(workdir / f"{i}-sites.json", sites)
            inputs.append({"points": pts, "paths": (shared[d][0], path, shared[d][1])})
        return inputs

    def run(self, lib, inp):
        report, code = lib.cli.run_pipeline(*inp["paths"])
        return report, code, json.dumps(report, sort_keys=True) + "\n"

    def render(self, inp, out):
        return out[2] + f"exit {out[1]}\n"

    def counts(self, out):
        res = out[0]["resolution"]
        return {"roots": res["roots"], "steps": res["steps"], "leaves": res["leaves"],
                "strata": len(out[0]["snc"]["strata"])}

    def check(self, inp, out):
        return oracles.check_pipeline(inp["points"], out[0], out[1])

    def profile(self, inputs):
        return [{"dim": len(b["points"][0]), "sites": len(b["points"])} for b in inputs]


class DelaunayLarge:
    """`snclab voronoi simple` + `voronoi delaunay` on larger planar site sets."""

    name = "delaunay_large"
    root_span = "op"
    pass_seconds = 4.5  # 3.7 s at the machine's fastest
    deferred_check = False
    SETS, SITES, HI = 5, 11, 97

    def make_inputs(self, lib, seed, workdir):
        inputs = []
        for i in range(self.SETS):
            pts = draw_sites(_rng(self.name, seed, i), self.SITES, 2, self.HI)
            inputs.append({"points": pts, "sites": lib.voronoi.SiteSet.build(2, pts)})
        return inputs

    def run(self, lib, inp):
        vc = lib.voronoi.voronoi_complex(inp["sites"])
        witness = vc.simplicity_witness()
        if witness is not None:
            raise lib.voronoi.NotSimpleError(witness)
        dual = lib.voronoi.delaunay_dual(vc, vc.cell_indices())
        return vc, dual, dual.all_betti()

    @staticmethod
    def report(inp, out):
        _, dual, betti = out
        return {"selection": list(range(len(inp["points"]))),
                "complex": dual.to_json_dict(), "betti": list(betti)}

    def render(self, inp, out):
        return json.dumps(self.report(inp, out), sort_keys=True) + "\n"

    def counts(self, out):
        return {"faces": len(out[0].faces), "subspaces": len(out[0].subspaces)}

    def check(self, inp, out):
        return oracles.check_delaunay(inp["points"], self.report(inp, out))

    def profile(self, inputs):
        return [{"dim": 2, "sites": len(b["points"])} for b in inputs]


def _partitions(total, cap=None):
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def degree_box():
    """(deg_x, m, exponents): deg_x <= 4, m <= 3, deg_z <= 4, one model per
    exponent multiset; 240 roots."""
    return [(dx, m, part) for dx in range(5) for m in range(4)
            for dz in range(5) for part in _partitions(dz)]


class ResolveBox:
    """`resolve([root])` for the roots of the degree box, one root per op.

    The draw is the box without its seven slowest roots, (4, 3, p) for the
    exponents p in LEFT_OUT, which take 0.5-6.4 s each and 14 of the box's
    17 s: with them a pass takes 17-25 s, so a run could time each of them
    only once, and a single timing spreads by 30% from run to run on a
    shared machine.  The draw keeps the other five (4, 3, .) roots (0.2-0.5 s).
    """

    name = "resolve_box"
    root_span = "op"
    pass_seconds = 3.5  # 2.9 s at the machine's fastest
    deferred_check = False
    LEFT_OUT = {(1, 1, 1, 1), (1, 1, 1), (3, 1), (2, 1, 1), (1, 1), (3,), (2, 1)}

    def make_inputs(self, lib, seed, workdir):
        # labels are drawn in increasing order, so each root resolves
        # exactly like the canonical box root of the same shape
        rng = _rng(self.name, seed, 0)
        inputs = []
        for dx, m, part in degree_box():
            if (dx, m) == (4, 3) and part in self.LEFT_OUT:
                continue
            xs = sorted(rng.sample(range(1, 100), dx))
            zs = sorted(rng.sample(range(10, 1000), len(part)))
            root = lib.resolution.LocalModel.build(xs, m, list(zip(zs, part)))
            inputs.append({"mdeg": (dx, m, sum(part)), "root": root})
        return inputs

    def run(self, lib, inp):
        return lib.resolution.resolve([inp["root"]])

    def render(self, inp, out):
        cert = [[s.rule, s.descents] for s in out.steps]  # mdeg tuples render as lists
        return json.dumps([cert, out.leaf_count()]) + "\n"

    def counts(self, out):
        return {"nodes": len(out.nodes), "steps": len(out.steps),
                "distinct_states": len({n.model.state() for n in out.nodes})}

    def check(self, inp, out):
        return oracles.check_trace(inp["root"], out)

    def profile(self, inputs):
        hist = Counter("%d,%d,%d" % b["mdeg"] for b in inputs)
        return {"roots": len(inputs), "mdeg_histogram": dict(sorted(hist.items()))}


RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def suspension(facets, a, b):
    return [tuple(f) + (a,) for f in facets] + [tuple(f) + (b,) for f in facets]


def _connected(facets) -> bool:
    parent = {v: v for f in facets for v in f}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in facets:
        for v in f[1:]:
            parent[find(v)] = find(f[0])
    return len({find(v) for v in parent}) == 1


def random_pure_3d(rng, vertices, count):
    """count distinct tetrahedra on the vertices, redrawn until connected."""
    while True:
        facets = set()
        while len(facets) < count:
            facets.add(tuple(sorted(rng.sample(range(vertices), 4))))
        facets = sorted(facets)
        if _connected(facets):
            return facets


def join_with_triangle_boundary(facets, a, b, c):
    """The join with the boundary of a triangle: a double suspension up to
    homotopy, on one vertex fewer."""
    return [tuple(f) + e for e in ((a, b), (a, c), (b, c)) for f in facets]


class HomologyComplexes:
    """from_simplices, all_betti and H1 of pi_1 on a mix of complexes."""

    name = "homology_complexes"
    root_span = "op"
    pass_seconds = 3.2  # 2.7 s at the machine's fastest
    # (vertices, tetrahedra) of the random complexes, the only seeded
    # inputs: the first takes about 0.06 s, the others 0.27-0.76 s.  The
    # fixed complexes keep their labels, since relabelling changes their
    # cost by up to 50%; the two middle inputs are then always the 7-simplex
    # boundary and the join (0.17 and 0.21 s) and the slowest the 8-simplex
    # boundary (1.2 s), so the median and the tail are not seeded
    RANDOM_SHAPES = ((10, 30), (14, 48), (18, 48))
    # the oracle loads sympy; running it after the loop keeps sympy out of
    # peak_rss_mb
    deferred_check = True

    def make_inputs(self, lib, seed, workdir):
        items = [(f"boundary_delta_{k}", list(combinations(range(k + 1), k))) for k in (6, 7, 8)]
        items += [("rp2", RP2), ("suspended_rp2", suspension(RP2, 7, 8)),
                  ("double_suspended_rp2", suspension(suspension(RP2, 7, 8), 9, 10)),
                  ("rp2_join_triangle", join_with_triangle_boundary(RP2, 7, 8, 9))]
        items += [("random_3d", random_pure_3d(_rng(self.name, seed, i), nv, count))
                  for i, (nv, count) in enumerate(self.RANDOM_SHAPES)]
        return [{"kind": kind, "facets": f} for kind, f in items]

    def run(self, lib, inp):
        k = lib.complexes.from_simplices(inp["facets"])
        betti = k.all_betti()
        h1 = lib.presentations.abelianization(lib.presentations.pi1_presentation(k).simplified())
        return betti, (h1.rank, list(h1.torsion)), k.cell_counts()

    def render(self, inp, out):
        return json.dumps({"betti": list(out[0]), "h1": list(out[1])}) + "\n"

    def counts(self, out):
        return {"cells": sum(out[2])}

    def check(self, inp, out):
        expected = oracles.simplicial_homology(inp["facets"])
        return oracles.check_homology(expected, out[0], out[1])

    def profile(self, inputs):
        return [{"kind": b["kind"], "vertices": len({v for f in b["facets"] for v in f}),
                 "facets": len(b["facets"])} for b in inputs]


WORKLOADS = {w.name: w for w in (PipelineSnc, DelaunayLarge, ResolveBox, HomologyComplexes)}
