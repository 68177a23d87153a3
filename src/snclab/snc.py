"""Combinatorial models of the glued projective varieties built on a
Voronoi subcomplex: per-cell blow-up ledgers over parasitic subspaces,
codimension-1 gluings, quotient strata, the dual complex, cohomology
dimensions of the structure sheaf under the rational-strata hypothesis,
and the triangular-pillow projectivity test.

One chart per selected top cell.  Gluings identify the chart faces lying
over a shared codimension-1 face.  A gluing joins two chart faces over
the same index set J, and every pair of J's cells is itself a face of
the simple complex, so the classes of the gluing closure are the
selection's faces: the stratum over J has the members (i, J), i in J.
The ledgers are what keeps spurious identifications from appearing:
they blow up the loci over parasitic subspaces, which the naive chart
quotient would glue across charts whose cells share no face.

A chart is its cell and its star, the index sets of its faces; its
ledger is the arrangement's `records_by_dim` minus that star, so no chart
stores one.  The ledger checks (stage disjointness, agreement across each
gluing) still run for every cell and every gluing, but read only the
stars; their pair work is the arrangement's, done once
(`SubspaceArrangement.meeting_pairs`).  A rendering builds one dict per
record and lists the same dicts in every chart's ledger.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .complexes import (
    ComplexError,
    DeltaComplex,
    build_complex,
    delta_isomorphic,
    nerve_cells,
)
from .voronoi import (
    CheckFailed,
    GenericityError,
    VoronoiComplex,
    classify_subspaces,
    delaunay_dual,
)


class SncError(ValueError):
    pass


class SncCheckError(CheckFailed, SncError):
    """A gluing self-check failed: ledgers or the dual-vs-Delaunay test."""


def blowup_ledger(vc: VoronoiComplex, cell: int) -> tuple[frozenset[int], ...]:
    """The cell's faces, {cell} and its star, sorted by their sorted index
    sets, once its parasitic subspaces pass the self-checks.

    The chart blows up every parasitic subspace of the cell: the
    arrangement's `records_by_dim` without the star, by increasing
    dimension.  Centers of dimension at most m-2 are genuine blow-up
    centers and must be pairwise disjoint within their stage once earlier
    stages removed their intersections; codimension-1 entries are kept for
    bookkeeping (blowing up a divisor changes nothing) and are exempt from
    the disjointness requirement.
    """
    star = frozenset(r.sites for r in classify_subspaces(vc, cell).essential)
    _verify_stage_disjointness(vc, cell, star)
    return tuple(sorted((frozenset((cell,)), *star), key=sorted))


def _verify_stage_disjointness(vc: VoronoiComplex, cell: int, star: frozenset) -> None:
    """Same-stage centers meet only inside an earlier center.

    The first pair of `SubspaceArrangement.meeting_pairs` with neither set
    in the star but every cover in it fails.  Stage 0 needs no check: no
    two index sets share a point (the arrangement refuses such sites), and
    a ledger lists each center once.  Disjoint centers that meet outside
    every earlier center are an input property: a GenericityError above
    the generic dimension dim a + dim b - m (crossing lines in 3D), an
    SncError in it (two planes meeting in a point in 4D)."""
    m = vc.dim
    for a, b, meet_dim, covers in vc.arrangement.meeting_pairs:
        if a in star or b in star or not covers <= star:
            continue
        d = vc.subspaces[a].dim
        if a & b:
            raise SncCheckError(
                f"stage-{d} centers H{sorted(a)} and H{sorted(b)} of cell "
                f"{cell} overlap outside every earlier center"
            )
        if meet_dim > 2 * d - m:
            raise GenericityError(
                f"H{sorted(a)} and H{sorted(b)} meet in dimension "
                f"{meet_dim}, above the generic {2 * d - m}"
            )
        raise SncError(
            f"stage-{d} centers H{sorted(a)} and H{sorted(b)} of cell {cell} are disjoint but "
            f"meet in dimension {meet_dim} outside every earlier center; the gluing "
            f"construction covers only inputs whose disjoint same-stage centers do not meet"
        )


@dataclass(frozen=True)
class Chart:
    cell: int
    faces: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Stratum:
    key: frozenset[int]
    members: tuple[tuple[int, frozenset[int]], ...]
    dim: int


@dataclass(frozen=True)
class SncModel:
    vc: VoronoiComplex
    selection: tuple[int, ...]
    charts: dict[int, Chart]
    gluings: tuple[tuple[int, int], ...]
    strata: tuple[Stratum, ...]
    rational: dict[frozenset[int], bool]
    sphere_class: dict[frozenset[int], bool]

    @property
    def dim(self) -> int:
        return self.vc.dim

    def components(self) -> tuple[Stratum, ...]:
        return tuple(s for s in self.strata if len(s.key) == 1)

    def to_json_dict(self) -> dict:
        records = [
            (r.sites, {"sites": sorted(r.sites), "dim": r.dim})
            for r in self.vc.arrangement.records_by_dim
        ]

        def ledger(chart):
            star = set(chart.faces)
            return [out for key, out in records if key not in star]

        return {
            "dim": self.dim,
            "selection": list(self.selection),
            "charts": [
                {
                    "cell": c.cell,
                    "ledger": ledger(c),
                    "faces": [sorted(f) for f in c.faces],
                }
                for _, c in sorted(self.charts.items())
            ],
            "gluings": [list(g) for g in self.gluings],
            "strata": [
                {
                    "key": sorted(s.key),
                    "dim": s.dim,
                    "members": [[ch, sorted(j)] for ch, j in s.members],
                }
                for s in self.strata
            ],
            "flags": {
                "rational": {json.dumps(sorted(k)): v for k, v in self.rational.items()},
                "sphere_class": {
                    json.dumps(sorted(k)): v for k, v in self.sphere_class.items()
                },
            },
            "ledgers_applied": True,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


def build_snc(vc: VoronoiComplex, selection: Sequence[int]) -> SncModel:
    """Charts, gluings and strata over the selected pure top-dimensional cells.

    A non-simple complex is refused by the first chart's `blowup_ledger`.
    The strata are the faces J of the selection in sorted order, each of
    dimension m - |J| + 1 with one member chart face per cell of J.
    """
    cells = sorted(set(selection))
    if not cells:
        raise SncError("empty selection; the model needs at least one top cell")
    for c in cells:
        if not 0 <= c < len(vc.sites):
            raise SncError(f"unknown cell index {c}")
    chosen = set(cells)
    charts = {i: Chart(i, blowup_ledger(vc, i)) for i in cells}
    gluings = [g for g in combinations(cells, 2) if frozenset(g) in vc.faces]
    for i, j in gluings:
        _verify_ledger_match(vc, charts[i], charts[j], frozenset((i, j)))
    strata = tuple(
        Stratum(key, tuple((i, key) for i in sorted(key)), vc.dim - len(key) + 1)
        for key in sorted((key for key in vc.faces if key <= chosen), key=sorted)
    )
    rational = {s.key: True for s in strata}
    sphere = {s.key: True for s in strata}
    return SncModel(vc, tuple(cells), charts, tuple(gluings), strata, rational, sphere)


def _verify_ledger_match(vc, chart_a: Chart, chart_b: Chart, glue_key) -> None:
    """The two charts must blow up the same centers inside the shared face.

    Those are the centers whose index set contains the glue key g or,
    disjoint from g, lies in H(g).  Both ledgers are one order minus a star
    (`Chart.faces`), so they agree there exactly when the stars do."""
    arrangement = vc.arrangement

    def restriction(star):
        return {
            j for j in star
            if glue_key <= j or not j & glue_key and arrangement.within(j, glue_key)
        }

    if restriction(chart_a.faces) != restriction(chart_b.faces):
        raise SncCheckError(
            f"ledgers of cells {chart_a.cell} and {chart_b.cell} disagree on their "
            f"shared face {sorted(glue_key)}"
        )


def dual_complex(model: SncModel, reference: Optional[DeltaComplex] = None) -> DeltaComplex:
    """One (|J|-1)-cell per stratum; checked against the Delaunay dual.

    The check is a graded isomorphism search (`delta_isomorphic`) between
    the nerve of the model's strata and the Delaunay dual, the nerve of
    the complex's faces inside the selection.  `build_snc` reads the strata
    off those same faces, so the check guards the model's list of strata
    and the nerve builder, not the geometry: a model that drops a stratum
    fails it.  `reference` is the Delaunay dual of the model's selection
    when the caller already holds it; it is built here otherwise.
    """
    try:
        out = build_complex(*nerve_cells(s.key for s in model.strata))
    except ComplexError as exc:
        raise SncError(f"dual complex: {exc}") from exc
    if reference is None:
        reference = delaunay_dual(model.vc, model.selection)
    if not delta_isomorphic(out, reference):
        raise SncCheckError("dual complex is not isomorphic to the Delaunay dual")
    return out


def blowup_dual_complex(d: DeltaComplex, center) -> DeltaComplex:
    """Blow-up behavior of the dual complex.

    A stratum center (dim, index) deletes its cell together with every
    cell whose closure contains it (the open star); any center that is
    not a stratum leaves the complex unchanged.
    """
    if center == "non-stratum":
        return d
    dim, idx = center
    if not (0 <= dim <= d.dim and 0 <= idx < d.n_cells(dim)):
        raise SncError(f"unknown cell ({dim},{idx})")
    doomed: list[set[int]] = [set() for _ in range(d.dim + 1)]
    doomed[dim].add(idx)
    for k in range(dim + 1, d.dim + 1):
        for i, faces in enumerate(d.cells[k]):
            if any(f in doomed[k - 1] for f in faces):
                doomed[k].add(i)
    keep: list[list[int]] = [
        [i for i in range(d.n_cells(k)) if i not in doomed[k]] for k in range(d.dim + 1)
    ]
    remap = [{old: new for new, old in enumerate(layer)} for layer in keep]
    cells: list[list[list[int]]] = [[[] for _ in keep[0]]]
    labels: list[list] = [[d.labels[0][i] for i in keep[0]]]
    for k in range(1, d.dim + 1):
        layer = []
        for old in keep[k]:
            layer.append([remap[k - 1][f] for f in d.cells[k][old]])
        cells.append(layer)
        labels.append([d.labels[k][i] for i in keep[k]])
    while len(cells) > 1 and not cells[-1]:
        cells.pop()
        labels.pop()
    return build_complex(cells, labels)


def sheaf_cohomology_dims(model: SncModel, dual: Optional[DeltaComplex] = None) -> tuple[int, ...]:
    """dim H^i(Z, O_Z) for the glued variety, all strata rational.

    Under the rationality hypothesis these equal the rational Betti
    numbers of the dual complex; a single non-rational stratum makes the
    identification unavailable and is refused.  `dual` is the model's
    `dual_complex` when the caller already holds it; it is built here
    otherwise.
    """
    bad = [sorted(k) for k, ok in sorted(model.rational.items(), key=lambda kv: sorted(kv[0])) if not ok]
    if bad:
        raise SncError(f"strata flagged non-rational: {bad}")
    if dual is None:
        dual = dual_complex(model)
    return dual.all_betti()


@dataclass(frozen=True)
class PillowConstant:
    """A gluing constant: positive modulus times a rational turn."""

    modulus: Fraction
    turns: Fraction

    def __post_init__(self):
        if self.modulus <= 0:
            raise SncError("pillow constant needs a positive modulus")

    @classmethod
    def build(cls, modulus, turns) -> "PillowConstant":
        return cls(Fraction(modulus), Fraction(turns))


def pillow_projectivity(
    c_x: PillowConstant, c_y: PillowConstant, c_z: PillowConstant
) -> tuple[bool, Optional[int]]:
    """Projectivity of the two-triangle pillow surface.

    The glued surface is projective exactly when the product of the three
    constants is a root of unity; in modulus-and-turns form that means the
    moduli multiply to 1.  Returns the minimal r with (c_x c_y c_z)^r = 1
    when projective.
    """
    modulus = c_x.modulus * c_y.modulus * c_z.modulus
    if modulus != 1:
        return False, None
    total = (c_x.turns + c_y.turns + c_z.turns) % 1
    return True, total.denominator


class Pi1Verdict(Enum):
    ISOMORPHISM_CLAIMED = "isomorphism_claimed"
    UNKNOWN = "unknown"


def pi1_link_criterion(model: SncModel) -> Pi1Verdict:
    """Claim pi_1(link) = pi_1(dual complex) when every component carries a
    2-sphere class pairing to 1 with the conormal Chern class; anything
    less is unknown, never a refutation."""
    components = model.components()
    if not components:
        raise SncError("no components")
    if all(model.sphere_class[c.key] for c in components):
        return Pi1Verdict.ISOMORPHISM_CLAIMED
    return Pi1Verdict.UNKNOWN
