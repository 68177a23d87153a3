"""Spans around the calls into each snclab layer, recorded from outside.

`install` replaces public functions at the module bindings their callers
use (for example `snclab.cli.build_snc` and `snclab.snc.classify_subspaces`)
and methods on their classes, and `uninstall` puts the originals back.
Every wrapped call is a span with a parent; the tracer sums calls, total
time and self time (duration minus the time its child spans cover) per
span name.  Spans of coarse calls are kept as records with their operation
id; the hot inner calls (solve_affine, implicit, Smith normal form, ...)
are only summed, which keeps the traced run's memory flat.

Counts that can be read off results are taken from the outputs at the same
boundaries.  Time spent computing those counts is charged to no span.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (span name, owner of the binding, attribute, keep a span record)
BINDINGS = (
    ("qlinalg.feasible_point", "voronoi", "feasible_point", False),
    ("qlinalg.solve_affine", "voronoi", "solve_affine", False),
    ("qlinalg.solve_affine", "qlinalg", "solve_affine", False),
    ("qlinalg.intersect", "qlinalg.AffineSubspace", "intersect", False),
    ("qlinalg.implicit", "qlinalg.AffineSubspace", "implicit", False),
    ("voronoi.voronoi_complex", "voronoi", "voronoi_complex", True),
    ("voronoi.voronoi_complex", "cli", "voronoi_complex", True),
    ("voronoi.select_subcomplex", "cli", "select_subcomplex", True),
    ("voronoi.delaunay_dual", "voronoi", "delaunay_dual", True),
    ("voronoi.delaunay_dual", "cli", "delaunay_dual", True),
    ("voronoi.delaunay_dual", "snc", "delaunay_dual", True),
    ("voronoi.classify_subspaces", "snc", "classify_subspaces", True),
    ("snc.build_snc", "cli", "build_snc", True),
    ("snc.blowup_ledger", "snc", "blowup_ledger", True),
    ("snc.dual_complex", "cli", "dual_complex", True),
    ("resolution.embed_snc", "cli", "embed_snc", True),
    ("resolution.resolve", "cli", "resolve", True),
    ("resolution.resolve", "resolution", "resolve", True),
    ("intlinalg.smith_normal_form", "complexes", "smith_normal_form", False),
    ("intlinalg.smith_normal_form", "presentations", "smith_normal_form", False),
    ("intlinalg.rank", "complexes", "rank", False),
    ("intlinalg.rank", "presentations", "rank", False),
    ("complexes.from_simplices", "complexes", "from_simplices", True),
    ("complexes.from_simplices", "resolution", "from_simplices", True),
    ("complexes.build_complex", "complexes", "build_complex", True),
    ("complexes.build_complex", "voronoi", "build_complex", True),
    ("complexes.build_complex", "snc", "build_complex", True),
    ("complexes.all_betti", "complexes.DeltaComplex", "all_betti", True),
    ("complexes.delta_isomorphic", "snc", "delta_isomorphic", True),
    ("presentations.pi1_presentation", "cli", "pi1_presentation", True),
    ("presentations.pi1_presentation", "presentations", "pi1_presentation", True),
    ("presentations.abelianization", "cli", "abelianization", True),
    ("presentations.abelianization", "presentations", "abelianization", True),
)


def _count_voronoi(counts, args, vc):
    counts["voronoi.faces"] += len(vc.faces)


def _count_snc(counts, args, model):
    counts["snc.subspaces"] += len(args[0].subspaces)
    counts["snc.strata"] += len(model.strata)


def _count_resolve(counts, args, trace):
    counts["resolution.nodes"] += len(trace.nodes)
    counts["resolution.steps"] += len(trace.steps)
    counts["resolution.distinct_states"] += len({n.model.state() for n in trace.nodes})


def _count_snf(counts, args, snf):
    counts["intlinalg.smith_normal_form.entries"] += args[0].rows * args[0].cols


RESULT_COUNTS = {
    "voronoi.voronoi_complex": _count_voronoi,
    "snc.build_snc": _count_snc,
    "resolution.resolve": _count_resolve,
    "intlinalg.smith_normal_form": _count_snf,
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span, span) -> calls
        self.counts = Counter()
        self.spans = []  # (op id, span id, parent span id, name, start, end)
        self.op_id = -1
        self._stack = []  # [name, start, child seconds, span id or None, kept ancestor id]
        self._open = Counter()  # name -> open spans, so recursion is timed once
        self._patched = []

    def enter(self, name, keep):
        parent = self._stack[-1] if self._stack else None
        kept = parent[3] if parent and parent[3] is not None else (parent[4] if parent else None)
        span_id = len(self.spans) if keep else None
        if keep:
            self.spans.append(None)
        self.calls[name] += 1
        self.edges[(parent[0] if parent else None, name)] += 1
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, span_id, kept])

    def leave(self):
        end = time.perf_counter()
        name, start, child, span_id, kept = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        if not self._open[name]:
            self.total[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id] = (self.op_id, span_id, kept, name, start, end)

    def begin_op(self, name):
        self.op_id += 1
        self.enter(name, True)

    def _hidden(self, fn, *args):
        """Run fn without charging its time to the enclosing span."""
        start = time.perf_counter()
        fn(self.counts, *args)
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - start

    def _wrap(self, name, fn, keep):
        count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            self.enter(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave()
            if count is not None:
                self._hidden(count, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, lib):
        for name, owner_path, attr, keep in BINDINGS:
            owner = lib
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Every per-layer metric, by the names BENCHMARK.json lists."""
        t, c, s, n = self.total, self.calls, self.self_s, self.counts
        fp_in_vc = self.edges[("voronoi.voronoi_complex", "qlinalg.feasible_point")]
        nodes = n["resolution.nodes"]
        return {
            "qlinalg.feasible_point.calls": c["qlinalg.feasible_point"],
            "qlinalg.feasible_point.s": t["qlinalg.feasible_point"],
            "qlinalg.solve_affine.calls": c["qlinalg.solve_affine"],
            "qlinalg.solve_affine.s": t["qlinalg.solve_affine"],
            "qlinalg.intersect.calls": c["qlinalg.intersect"],
            "qlinalg.implicit.calls": c["qlinalg.implicit"],
            "voronoi.voronoi_complex.s": t["voronoi.voronoi_complex"],
            "voronoi.face_yield": n["voronoi.faces"] / fp_in_vc if fp_in_vc else 0.0,
            "voronoi.classify_subspaces.calls": c["voronoi.classify_subspaces"],
            "voronoi.classify_subspaces.s": t["voronoi.classify_subspaces"],
            "voronoi.select_subcomplex.s": t["voronoi.select_subcomplex"],
            "voronoi.delaunay_dual.s": t["voronoi.delaunay_dual"],
            "snc.build_snc.self_s": s["snc.build_snc"],
            "snc.blowup_ledger.s": t["snc.blowup_ledger"],
            "snc.dual_complex.s": t["snc.dual_complex"],
            "snc.subspaces": n["snc.subspaces"],
            "snc.strata": n["snc.strata"],
            "resolution.resolve.s": t["resolution.resolve"],
            "resolution.embed_snc.s": t["resolution.embed_snc"],
            "resolution.steps": n["resolution.steps"],
            "resolution.nodes": nodes,
            "resolution.distinct_states": n["resolution.distinct_states"],
            "resolution.state_yield": n["resolution.distinct_states"] / nodes if nodes else 0.0,
            "intlinalg.smith_normal_form.calls": c["intlinalg.smith_normal_form"],
            "intlinalg.smith_normal_form.s": t["intlinalg.smith_normal_form"],
            "intlinalg.smith_normal_form.entries": n["intlinalg.smith_normal_form.entries"],
            "intlinalg.rank.calls": c["intlinalg.rank"],
            "intlinalg.rank.s": t["intlinalg.rank"],
            "complexes.build_complex.s": t["complexes.build_complex"],
            "complexes.all_betti.s": t["complexes.all_betti"],
            "complexes.delta_isomorphic.s": t["complexes.delta_isomorphic"],
            "presentations.pi1_presentation.s": t["presentations.pi1_presentation"],
            "presentations.abelianization.s": t["presentations.abelianization"],
            "cli.run_pipeline.self_s": s["cli.run_pipeline"],
        }
