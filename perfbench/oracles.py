"""Reference answers that share no code with snclab.

Geometry runs on integer determinants, homology on sympy's Smith normal
form, and the resolver checks re-derive every fact from the public trace
fields.  Each check returns None when the output is right and a short
reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def det(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def circumcentre(points):
    """(C, delta) with centre C / delta for d+1 integer points in d-space,
    or None when they are affinely dependent."""
    p0 = points[0]
    d = len(p0)
    a = [[2 * (p[j] - p0[j]) for j in range(d)] for p in points[1:]]
    b = [sum(x * x for x in p) - sum(x * x for x in p0) for p in points[1:]]
    delta = det(a)
    if delta == 0:
        return None
    centre = []
    for j in range(d):
        aj = [row[:j] + [b[i]] + row[j + 1:] for i, row in enumerate(a)]
        centre.append(det(aj))
    return centre, delta


def _power(centre, delta, p0, q) -> int:
    """Sign of |q - c|^2 - |p0 - c|^2: negative inside the sphere, 0 on it."""
    dq = sum((delta * x - c) ** 2 for x, c in zip(q, centre))
    d0 = sum((delta * x - c) ** 2 for x, c in zip(p0, centre))
    return (dq > d0) - (dq < d0)


def general_position(points) -> bool:
    """No d+1 sites affinely dependent, no d+2 cospherical, and no two
    (d+1)-subsets sharing a circumcentre, so every equidistance subspace
    H(J) is distinct."""
    d = len(points[0])
    centres = set()
    for subset in combinations(range(len(points)), d + 1):
        cc = circumcentre([points[i] for i in subset])
        if cc is None:
            return False
        centre, delta = cc
        key = tuple(Fraction(c, delta) for c in centre)
        if key in centres:
            return False
        centres.add(key)
        p0 = points[subset[0]]
        if any(_power(centre, delta, p0, points[q]) == 0
               for q in range(len(points)) if q not in subset):
            return False
    return True


def delaunay_simplices(points) -> set[tuple[int, ...]]:
    """Top simplices by the empty-circle (empty-sphere) test, brute force."""
    d = len(points[0])
    out = set()
    for subset in combinations(range(len(points)), d + 1):
        cc = circumcentre([points[i] for i in subset])
        if cc is None:
            continue
        centre, delta = cc
        p0 = points[subset[0]]
        if all(_power(centre, delta, p0, points[q]) > 0
               for q in range(len(points)) if q not in subset):
            out.add(subset)
    return out


def closure(sets) -> set[tuple[int, ...]]:
    """Every nonempty face of the given simplices, as sorted tuples."""
    out = set()
    for s in sets:
        items = sorted(s)
        for size in range(1, len(items) + 1):
            out.update(combinations(items, size))
    return out


def _contractible_profile(betti, dim) -> bool:
    return list(betti) == [1] + [0] * dim


def check_pipeline(points, report, code):
    n, d = len(points), len(points[0])
    if code != 0:
        return f"exit code {code}"
    expected = closure(delaunay_simplices(points))
    strata = {tuple(sorted(s)) for s in report["snc"]["strata"]}
    if strata != expected:
        return f"strata differ from the empty-sphere faces ({len(strata)} vs {len(expected)})"
    if report["voronoi"] != {"sites": n, "dim": d, "selection": list(range(n)),
                             "simple_on_selection": True}:
        return "voronoi section does not select every cell"
    for stage in ("input", "delaunay", "final"):
        if not _contractible_profile(report[stage]["betti"], len(report[stage]["betti"]) - 1):
            return f"{stage} Betti numbers {report[stage]['betti']} are not (1, 0, ...)"
    if not _contractible_profile(report["snc"]["betti"], len(report["snc"]["betti"]) - 1):
        return f"snc Betti numbers {report['snc']['betti']} are not (1, 0, ...)"
    for stage in ("input", "delaunay", "snc", "final"):
        if report[stage]["h1"] != {"rank": 0, "torsion": []}:
            return f"{stage} H1 is not trivial"
    if not all(report["verdicts"].values()) or not report["resolution"]["nerve_invariant"]:
        return "a verdict is false"
    return None


def _cell_vertices(cells, k, i):
    if k == 0:
        return {i}
    out = set()
    for f in cells[k][i]:
        out |= _cell_vertices(cells, k - 1, f)
    return out


def check_delaunay(points, report):
    """report is the `snclab voronoi delaunay` JSON for all cells."""
    d = len(points[0])
    cx = report["complex"]
    labels = [int(x) for x in cx["labels"][0]]
    if cx["dim"] != d:
        return f"dual has dimension {cx['dim']}, expected {d}"
    faces = set()
    for k, layer in enumerate(cx["cells"]):
        for i in range(len(layer)):
            faces.add(tuple(sorted(labels[v] for v in _cell_vertices(cx["cells"], k, i))))
    top = {f for f in faces if len(f) == d + 1}
    expected_top = delaunay_simplices(points)
    if top != expected_top:
        return f"top cells differ from the empty-sphere simplices ({len(top)} vs {len(expected_top)})"
    if faces != closure(expected_top):
        return "lower cells differ from the faces of the empty-sphere simplices"
    if not _contractible_profile(report["betti"], d):
        return f"Betti numbers {report['betti']} are not (1, 0, ...)"
    return None


def _resolved(model) -> bool:
    return len(model.x_divisors) <= 1 or (model.det_size == 0 and not model.exceptional)


def _key(model) -> tuple:
    return (model.x_divisors, model.det_size, tuple(sorted(model.exceptional)))


def _mdeg(model) -> tuple[int, int, int]:
    return (len(model.x_divisors), model.det_size, sum(a for _, a in model.exceptional))


def check_trace(root, trace):
    """Well-formed tree, resolved leaves, descending steps, constant nerve."""
    nodes, steps = trace.nodes, trace.steps
    if trace.roots != (0,) or not nodes or _key(nodes[0].model) != _key(root):
        return "trace does not start at the root"
    if any(node.node_id != i for i, node in enumerate(nodes)):
        return "node ids are not consecutive"
    expanded = bytearray(len(nodes))
    has_parent = bytearray(len(nodes))
    for s in steps:
        if not 0 <= s.node < len(nodes) or expanded[s.node]:
            return f"step {s.step_id} expands an unknown or repeated node"
        expanded[s.node] = 1
        parent = nodes[s.node].model
        for c in s.children:
            if not 0 < c < len(nodes) or has_parent[c] or nodes[c].parent != s.node:
                return f"step {s.step_id} lists a wrong child {c}"
            has_parent[c] = 1
            child = nodes[c].model
            if not child.x_divisors <= parent.x_divisors:
                return f"node {c} has x-divisors outside its parent's"
            if s.rule != "normalize" and not _mdeg(child) < _mdeg(parent):
                return f"step {s.step_id} does not descend"
    if sum(has_parent) != len(nodes) - 1:
        return "some node is neither the root nor a listed child"
    leaves = [n.model for n in nodes if not expanded[n.node_id]]
    if not all(_resolved(m) for m in leaves):
        return "an unresolved leaf"
    expected = {frozenset(s) for s in closure([root.x_divisors])}
    if len(set(trace.snapshots)) != 1 or set(trace.snapshots[-1]) != expected:
        return "nerve is not the closure of the root's index set"
    if {frozenset(s) for s in closure({m.x_divisors for m in leaves})} != expected:
        return "leaves do not cover the root's nerve"
    return None


def simplicial_homology(facets):
    """(Betti numbers, torsion per degree, face counts) by sympy's SNF."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    faces = closure(facets)
    top = max(len(f) for f in faces) - 1
    layers = [sorted(f for f in faces if len(f) == k + 1) for k in range(top + 1)]
    ranks = [0] * (top + 2)
    torsion = [[] for _ in range(top + 1)]
    for k in range(1, top + 1):
        index = {f: i for i, f in enumerate(layers[k - 1])}
        grid = [[0] * len(layers[k]) for _ in layers[k - 1]]
        for j, f in enumerate(layers[k]):
            for i in range(len(f)):
                grid[index[f[:i] + f[i + 1:]]][j] = (-1) ** i
        snf = smith_normal_form(Matrix(grid), domain=ZZ)
        diag = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
        ranks[k] = len(diag)
        torsion[k - 1] = sorted(x for x in diag if x > 1)
    counts = [len(layer) for layer in layers]
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1)]
    return betti, torsion, counts


def check_homology(expected, betti, h1):
    """expected comes from simplicial_homology on the same facets."""
    exp_betti, exp_torsion, counts = expected
    if list(betti) != exp_betti:
        return f"Betti numbers {list(betti)} differ from {exp_betti}"
    euler = sum((-1) ** k * c for k, c in enumerate(counts))
    if sum((-1) ** k * b for k, b in enumerate(betti)) != euler:
        return "Euler characteristic mismatch"
    want_h1 = (exp_betti[1] if len(exp_betti) > 1 else 0,
               exp_torsion[1] if len(exp_torsion) > 1 else [])
    if (h1[0], list(h1[1])) != want_h1:
        return f"H1 {h1} differs from {want_h1}"
    return None
