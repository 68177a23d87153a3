"""Exact-rational Voronoi complexes: face lattice, duals, subspace classes.

Sites live in Q^m.  The nearness predicate is linearized exactly:
d(x, y_i) <= d(x, y_j) iff 2(y_j - y_i) . x <= |y_j|^2 - |y_i|^2, so every
face is cut out by rational equalities and strict inequalities and its
existence is a Fourier-Motzkin feasibility question.  Over the sites'
common denominator L (y = Y / L, `SiteSet.integer_sites`, each coordinate
scaled by integer arithmetic on its numerator and denominator) that row
times L^2 is the integer row 2L(Y_j - Y_i) . x <= |Y_j|^2 - |Y_i|^2.
Faces are keyed by the set J of sites attaining equality; the equidistance
locus of J is the affine subspace H(J).

One integer kernel substitutes a site's bisector rows into a subspace:
`SiteSet.rows(i, form)`, one row per site k, from columns built once per
site set, where a unit coefficient reads its column as it is, so the
whole space's rows are the columns with no multiplication.  By the
lifting map (Edelsbrunner & Seidel, "Voronoi diagrams and arrangements",
1986), each site's squared distance on a subspace is an affine function
of its parameters, and row k is site k's minus site i's, so the rows of
any one site group the sites by distance.  The face test of J, a face's
witness and `select_subcomplex` read the rows of min(J), and the
arrangement's distance classes group the sites by them.  Each H(J) is
held in its integer form, so Fractions are made only for the sites, for
a span's point and basis when they are read, and for a face's witness,
which is computed when first read.

One walk (`_walk`) extends index sets level by level, one later site at a
time: H(J + k) is H(J) cut by row k of min(J)'s rows on H(J), so nothing
is solved.  It builds rows only at the whole space and derives each
child's from its parent's (`_cut_rows`), so it carries min(J)'s rows on
H(J) up to one positive factor, which none of their readers sees.  A rule
reads J's rows and says whether J is kept and which later sites extend
it, and H(J) is cut out only when J is kept or extended.  The cut is
deferred (`AffineSubspace.cut`): H(J) holds its parent and row and
derives its integer form only when that is read, so the walks, which read
only dimensions, do no arithmetic on forms, and `voronoi build`'s
witnesses and the arrangement's rows derive the forms they read.  Two
rules drive it.  The face rule (`voronoi_complex`) keeps the faces and
extends J only while its closed face is non-empty, which only shrinks as
J grows, so the work follows the number of faces; it decides the face
lattice in integers: on a point H(J) by the signs of the rows, on a line
by one pass over the rows that stops at the first crossing of its bounds,
elsewhere by integer Fourier-Motzkin (`feasible`).  The span rule
(`_span_walk`) keeps every non-empty H(J), |J| >= 2, records the
exceptional sets E, and extends every J but a point outside E, which has
no child; a complex runs it on first use, which `voronoi classify`,
`snc`, `resolve embed` and `pipeline` do and `voronoi build`, `simple`,
`delaunay` and `select` never do.

The subspace classification and the SNC gluing read the complex's
`SubspaceArrangement`, built on first use from the span walk, which
decides incidence in integers: H(J1) and H(J2) meet in H(J1 | J2) when J1
and J2 share a site, else as min(J1)'s rows on H(J1) cut by J2's
equalities (`_cut_rows`) say, and a subspace lies in H(J) iff J falls in
one of its distance classes, so H(Q) lies in H(J) iff J <= Q outside the
exceptional sets E.  The classes of two or more sites key the coincidence
table that finishes the genericity check.  The self-checks themselves
(parasitic parents, intersection closure) still run for every cell, but
read only its star, the index sets of its faces: every fact that does not
depend on the cell is the arrangement's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import sub
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .complexes import ComplexError, DeltaComplex, build_complex, nerve_cells
from .jsonread import expect_list, expect_object, expect_rational
from .qlinalg import (
    AffineSubspace,
    IntegerForm,
    Vector,
    feasible,
    feasible_point,
    integer_form,
    # unused here but stays bound: perfbench/tracer.py wraps voronoi.solve_affine
    solve_affine,
    vec,
    whole_space,
)


class VoronoiError(ValueError):
    pass


class CheckFailed(Exception):
    """Marker for a failed engine self-check, as opposed to bad input.

    Each concrete check error also derives from its layer's error class."""


class VoronoiCheckError(CheckFailed, VoronoiError):
    """A classification self-check failed: parasitic parents or closure."""


class GenericityError(VoronoiError):
    """The sites are not in general position: two distinct index sets give
    the same equidistance subspace, one H(J) contains another whose index
    set is disjoint from J, or two blow-up centers with disjoint index sets
    meet in more than the generic dimension."""


class NotSimpleError(VoronoiError):
    def __init__(self, witness: "VoronoiFace"):
        self.witness = witness
        super().__init__(
            f"not simple: face {sorted(witness.sites)} lies in {len(witness.sites)} cells "
            f"but has codimension {witness.codim}"
        )


def _column_dots(columns: Sequence[Sequence[int]], v: Sequence[int]) -> Sequence[int]:
    """The sum of v[x] times column x, entry by entry: one integer per site
    when each column holds one entry per site.  Zero entries of v cost
    nothing, and a first term with coefficient 1 is the column itself, not
    a copy, so a unit vector v returns its column; callers only read it."""
    total = None
    for x, column in zip(v, columns):
        if x:
            if total is None:
                total = column if x == 1 else [x * c for c in column]
            else:
                total = [t + x * c for t, c in zip(total, column)]
    return [0] * len(columns[0]) if total is None else total


@dataclass(frozen=True)
class SiteSet:
    """Distinct rational points indexed 0..len-1."""

    dim: int
    sites: tuple[Vector, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise VoronoiError("ambient dimension must be at least 1")
        if not self.sites:
            raise VoronoiError("at least one site is required")
        for s in self.sites:
            if len(s) != self.dim:
                raise VoronoiError("site coordinate length does not match dimension")
        if len(set(self.sites)) != len(self.sites):
            raise VoronoiError("duplicate sites")

    @classmethod
    def build(cls, dim: int, sites: Iterable[Sequence]) -> "SiteSet":
        return cls(dim, tuple(vec(s) for s in sites))

    def __len__(self) -> int:
        return len(self.sites)

    @cached_property
    def integer_sites(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, Y): every site i equals Y[i] / L, over one common denominator
        L, each coordinate c scaled as c.numerator * (L // c.denominator),
        with no Fraction arithmetic."""
        scale = lcm(*(c.denominator for s in self.sites for c in s))
        return scale, tuple(tuple(c.numerator * (scale // c.denominator) for c in s)
                            for s in self.sites)

    @cached_property
    def _columns(self) -> list[list[list[int]]]:
        """For each site i, the bisector rows (a, b) of i and every site k
        (the zero row for k = i) as columns over k: the column of b, then
        one column per coordinate of a.  Over the lifted sites, |Y_k|^2 and
        2L Y_k, site i's column is the lifted column less its entry i."""
        scale, points = self.integer_sites
        lifted = [[sum(c * c for c in y) for y in points],
                  *[[2 * scale * c for c in column] for column in zip(*points)]]
        return [[[x - column[i] for x in column] for column in lifted]
                for i in range(len(points))]

    def rows(self, i: int, form: IntegerForm) -> list[tuple[int, ...]]:
        """Site i's bisector rows substituted into a span given by its
        integer form (D, P, B), one (*coeffs, rhs) per site k: with
        x = (P + B u) / D, row k is (a.B_0, ..., a.B_d-1, D b - a.P) for
        (a, b) = (2L(Y_k - Y_i), |Y_k|^2 - |Y_i|^2), i.e. `span.row(a, b)`,
        the row that `cut` and (with strict) `feasible` take, each entry i's
        columns (b, *a) dotted with (0, *B_t) or (D, *-P); on the whole
        space, (1, 0, identity), each is one column as it is.  By the
        lifting map rhs - coeffs.u is D L^2 (|x - y_k|^2 - |x - y_i|^2),
        affine in u, so two sites are equidistant on all of the span iff
        their rows agree, and the sites equidistant to i have the zero
        row."""
        den, anchor, basis = form
        columns = self._columns[i]
        return list(zip(*[_column_dots(columns, (0, *b)) for b in basis],
                        _column_dots(columns, (den, *[-x for x in anchor]))))


def _lattice_order(j_set: frozenset[int]) -> tuple[int, list[int]]:
    """Sort key for index sets: by size, then lexicographically."""
    return len(j_set), sorted(j_set)


def _constraints(
    rows: Sequence[tuple[int, ...]], indices: Collection[int], strict: bool
) -> list[tuple[tuple[int, ...], bool]]:
    """The rows (`SiteSet.rows` of min(J) on H(J), J = indices) of the
    sites k outside J, in ascending order, as the (row, strict) pairs that
    `feasible` takes: strict ones are the face test of J, non-strict ones
    cut out its closed face, the closed cell of i when J = (i,)."""
    return [(row, strict) for k, row in enumerate(rows) if k not in indices]


@dataclass(frozen=True)
class VoronoiFace:
    """A face of the complex: sites J attaining the minimum and their span.

    Equality and hashing read J, the span and the ambient dimension, not the
    site set or the witness, which is computed when first read."""

    sites: frozenset[int]
    span: AffineSubspace
    ambient_dim: int
    site_set: SiteSet = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.span.dim

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.span.dim

    @cached_property
    def witness(self) -> Vector:
        """A point whose nearest-site set is J: the span's point, or the
        span at Fourier-Motzkin's witness of the face test's rows."""
        if not self.span.dim:
            return self.span.point
        rows = self.site_set.rows(min(self.sites), self.span.integer_form)
        return self.span.parametrize(
            feasible_point(_constraints(rows, self.sites, True), self.span.dim))


@dataclass(frozen=True)
class VoronoiComplex:
    """The faces of a site set's Voronoi diagram, keyed by their index sets
    in (size, sorted) order.  Every non-empty H(J) and the partitions of E
    come from the span walk, run on first use (`_spans`): `voronoi
    classify`, `snc`, `resolve embed` and `pipeline` read them through
    `arrangement`; `voronoi build`, `simple`, `delaunay` and `select`
    never do."""

    sites: SiteSet
    faces: dict[frozenset[int], VoronoiFace]

    @property
    def dim(self) -> int:
        return self.sites.dim

    def cell_indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.sites)))

    @cached_property
    def _spans(self) -> tuple[dict, dict]:
        return _span_walk(self.sites)

    @property
    def subspaces(self) -> dict[frozenset[int], AffineSubspace]:
        """Every non-empty H(J), |J| >= 2, in (size, sorted) order."""
        return self._spans[0]

    @cached_property
    def arrangement(self) -> "SubspaceArrangement":
        """The arrangement of every H(J), built on first use."""
        return SubspaceArrangement(self.sites, *self._spans)

    @cached_property
    def _sorted_faces(self) -> tuple[VoronoiFace, ...]:
        return tuple(self.faces[k] for k in sorted(self.faces, key=_lattice_order))

    def face_list(self) -> tuple[VoronoiFace, ...]:
        """The faces in (size, sorted) order of their index sets, sorted once."""
        return self._sorted_faces

    def simplicity_witness(self) -> Optional[VoronoiFace]:
        return self._simplicity_witness

    @cached_property
    def _simplicity_witness(self) -> Optional[VoronoiFace]:
        """The first face that breaks simplicity, found once per complex."""
        return restricted_simplicity_witness(self, self.cell_indices())

    def is_simple(self) -> bool:
        return self.simplicity_witness() is None

    def to_json_dict(self) -> dict:
        return {
            "dim": self.sites.dim,
            "sites": [[str(c) for c in s] for s in self.sites.sites],
            "faces": [
                {
                    "sites": sorted(f.sites),
                    "dim": f.dim,
                    "witness": [str(c) for c in f.witness],
                }
                for f in self.face_list()
            ],
            "simple": self.is_simple(),
        }


def _line_children(
    rows: Sequence[tuple[int, int]], indices: Sequence[int]
) -> tuple[bool, list[int]]:
    """On a line H(J), given the face test's rows (a, b) for every site k
    (`SiteSet.rows` of min(J) up to one positive factor, zero for k in J):
    whether J is a face, and the later sites k whose children H(J + k),
    cut by row k, can have a non-empty closed face, from one pass over the
    rows taken non-strict, a u <= b, where J's zero rows bound nothing.
    The lower and upper bounds are integer pairs (lp, lq) and (up, uq),
    q > 0, for the ratios p / q, which the factor does not move.  The pass returns (False, []) at the first
    row that proves the closed face empty, a row 0 <= b < 0 or a bound
    that crosses the bound on the other side; a segment that shrinks to a
    point is not empty.  The closed face is the segment the rows bound,
    and the open face, the strict rows' segment, is its interior unless a
    row outside J is 0 <= 0 (site k ties with J on the whole line).  A
    child's closed face lies on row k, so it is empty unless row k attains
    an end of the segment or ties."""
    lp = lq = up = uq = None
    for a, b in rows:
        if a > 0:  # u <= b / a
            if up is None or b * uq < up * a:
                if lp is not None and b * lq < lp * a:
                    return False, []
                up, uq = b, a
        elif a < 0:  # u >= -b / -a
            b, a = -b, -a
            if lp is None or b * lq > lp * a:
                if up is not None and b * uq > up * a:
                    return False, []
                lp, lq = b, a
        elif b < 0:
            return False, []
    open_face = rows.count((0, 0)) == len(indices) and (
        lp is None or up is None or up * lq > lp * uq
    )
    children = []
    for k in range(indices[-1] + 1, len(rows)):
        # row a u <= b ends the segment when its bound b / a is the
        # segment's bound p / q on its side, b q == p a, and 0 <= 0 ties
        a, b = rows[k]
        if a > 0:
            if up is not None and b * uq == up * a:
                children.append(k)
        elif a < 0:
            if lp is not None and b * lq == lp * a:
                children.append(k)
        elif not b:
            children.append(k)
    return open_face, children


def _walk(
    site_set: SiteSet,
    expand: Callable[[tuple[int, ...], Sequence[tuple[int, ...]]], tuple[bool, Sequence[int]]],
) -> Iterator[tuple[frozenset[int], AffineSubspace]]:
    """Each index set J that expand keeps, as a frozenset, with H(J), in
    (size, sorted) order.  From the empty set on the whole space, whose
    child k takes site k's rows there (`SiteSet.rows`), every other child's
    rows are derived inside its parent's loop (`_cut_rows`, None when
    H(J + k) is empty) and handed to expand(J, rows) for (keep, the later
    sites that extend J); H(J) is cut out of its parent only when J is
    kept or extended."""
    whole = whole_space(site_set.dim)
    # (J, H(J), its rows or None for the empty J, the sites that extend J)
    level = [((), whole, None, range(len(site_set)))]
    while level:
        extended = []
        for parent, span, rows, later in level:
            for k in later:
                indices = parent + (k,)
                if rows is None:
                    child_rows = site_set.rows(k, whole.integer_form)
                else:
                    child_rows = _cut_rows(rows, rows[k])
                    if child_rows is None:
                        continue
                keep, children = expand(indices, child_rows)
                if not (keep or children):
                    continue
                child = span if rows is None or child_rows is rows else span.cut(rows[k])
                if keep:
                    yield frozenset(indices), child
                if children:
                    extended.append((indices, child, child_rows, children))
        level = extended


def voronoi_complex(site_set: SiteSet) -> VoronoiComplex:
    """The face lattice, from the walk (`_walk`) under the face rule: keep
    J when it is a face, and extend J only while its closed face (the
    points at least as close to J's sites as to any other) is non-empty.

    By the lifting map the closed face of J on H(J) is where no row of
    min(J) is negative; it only shrinks as J grows, so once it is empty
    no superset of J is a face.  Row k of the face test, like the cut for
    H(J + k), is the bisector row of min(J) and k substituted into H(J),
    read up to the walk's positive factor.  The rule reads the dimension
    of H(J) off its rows' width:

    - |J| = 1: the site is the only site nearest to itself, so its cell is
      a face, with no elimination.
    - a point H(J): J is a face when no row is negative and only J's are
      zero (no other site is as close), and its closed face is non-empty
      when no row is negative; H(J + k) is the same point when row k is
      zero.
    - a line H(J): one pass over the bounds, which stops as soon as the
      closed face is empty, decides the face and names the children to
      visit (`_line_children`); the others are never derived.
    - a larger H(J): `feasible` (integer Fourier-Motzkin) on the strict
      rows, and only when it fails, on the rows taken non-strict; a
      non-empty closed face visits every child.

    The cuts (`AffineSubspace.cut`) visit the index sets in `combinations`
    order and keep `solve_affine`'s echelon form, so each face's span
    equals H(J) solved from J's bisector rows by `solve_affine` point for
    point, and the span walk's H(J) in integers.  No integer form is
    derived until it is read, and no Fraction until a span's point or
    basis, or a face's witness (`VoronoiFace.witness`), is read.  Each
    face is filled without `__init__`, which only sets its four fields,
    as `AffineSubspace.cut` fills a span.
    """
    n = len(site_set)

    def face_rule(indices, rows):
        dim = len(rows[0]) - 1
        later = range(indices[-1] + 1, n)
        if not dim:
            closed = min(rows) >= (0,)
            return (closed and rows.count((0,)) == len(indices),
                    [c for c in later if closed and rows[c] == (0,)])
        if dim == 1:
            return _line_children(rows, indices)
        open_face = len(indices) == 1 or feasible(_constraints(rows, indices, True), dim)
        closed = open_face or feasible(_constraints(rows, indices, False), dim)
        return open_face, later if closed else ()

    faces = {}
    for key, span in _walk(site_set, face_rule):
        face = faces[key] = object.__new__(VoronoiFace)
        face.__dict__.update(sites=key, span=span, ambient_dim=site_set.dim, site_set=site_set)
    return VoronoiComplex(site_set, faces)


def _cut_rows(
    rows: Sequence[tuple[int, ...]], row: tuple[int, ...]
) -> Optional[Sequence[tuple[int, ...]]]:
    """The rows on span.cut(row), derived from rows, one site's rows on
    the span (`SiteSet.rows`, up to one positive factor), and row, one of
    them: rows itself for a `0 = 0` row and None for `0 = b`, b != 0, as
    `AffineSubspace.cut` returns the span or None.  With pivot t, the
    first nonzero a_t, and the row negated if need be so that
    lead = a_t > 0, each row (*l, c) becomes l'_i = lead l_i - a_i l_t for
    i != t and c' = lead c - b l_t: the cut's new point and basis vectors
    substituted into the rows, times one more positive factor, with no
    division.  Every reader of the walk's rows reads them up to that
    factor: the signs and zeros of a point's rows, the bounds and end test
    of `_line_children`, `feasible`, which makes each row primitive, the
    span rule's count of distinct rows, `_partition`, and the arrangement's
    disjoint meets, which cut by differences of rows (`disjoint_meet`)."""
    *coeffs, rhs = row
    for t, lead in enumerate(coeffs):
        if lead:
            break
    else:
        return rows if rhs == 0 else None
    if lead < 0:
        lead, rhs, coeffs = -lead, -rhs, [-a for a in coeffs]
    # fixed-width branches for a line and a plane, the common spans
    if len(coeffs) == 1:
        return [(lead * c - rhs * l,) for l, c in rows]
    if len(coeffs) == 2:
        if t == 0:
            a = coeffs[1]
            return [(lead * l1 - a * l0, lead * c - rhs * l0) for l0, l1, c in rows]
        a = coeffs[0]
        return [(lead * l0 - a * l1, lead * c - rhs * l1) for l0, l1, c in rows]
    others = [(i, a) for i, a in enumerate(coeffs) if i != t]
    return [(*[lead * r[i] - a * r[t] for i, a in others], lead * r[-1] - rhs * r[t])
            for r in rows]


def _span_walk(
    site_set: SiteSet,
) -> tuple[dict[frozenset[int], AffineSubspace], dict[frozenset[int], frozenset[frozenset[int]]]]:
    """Every non-empty H(J), |J| >= 2, in (size, sorted) order, and the
    distance partitions of those in E, from the walk (`_walk`) under the
    span rule: keep every J with |J| >= 2, with no face test, and extend J
    unless H(J) is a point outside E.

    The sites of J share the zero row on H(J), so J is outside E exactly
    when its rows take n - |J| + 1 distinct values, which the walk's
    positive factor does not change, and only E's partitions are
    recorded; a single site is never in E, since the sites are distinct.
    A point outside E has no child, since no other site shares J's row."""
    n = len(site_set)
    partitions: dict[frozenset[int], frozenset[frozenset[int]]] = {}

    def span_rule(indices, rows):
        exceptional = len(set(rows)) != n - len(indices) + 1
        if exceptional:
            partitions[frozenset(indices)] = _partition(rows)
        extend = exceptional or len(rows[0]) > 1
        return len(indices) > 1, range(indices[-1] + 1, n) if extend else ()

    return dict(_walk(site_set, span_rule)), partitions


def restricted_simplicity_witness(
    vc: VoronoiComplex, selection: Sequence[int]
) -> Optional[VoronoiFace]:
    """The first face in (size, sorted) order that touches the selection
    and breaks simplicity, or None: one unsorted pass over the faces, so
    only the violators, none on simple sites, are ordered."""
    chosen = set(selection)
    broken = [key for key, face in vc.faces.items()
              if key & chosen and len(key) != face.codim + 1]
    return vc.faces[min(broken, key=_lattice_order)] if broken else None


def delaunay_dual(vc: VoronoiComplex, selection: Optional[Sequence[int]] = None) -> DeltaComplex:
    """The Delaunay triangulation as a Delta-complex.

    One vertex per selected cell and one (|J|-1)-cell per face with J
    inside the selection; this is the nerve of the selected closed cells.
    Requires simplicity on every face touching the selection: the faces
    are scanned for the selection only when the complex's cached
    `simplicity_witness` says that some face breaks it.
    """
    cells = sorted(set(selection)) if selection is not None else sorted(vc.cell_indices())
    for c in cells:
        if not 0 <= c < len(vc.sites):
            raise VoronoiError(f"unknown cell index {c}")
    witness = vc.simplicity_witness() and restricted_simplicity_witness(vc, cells)
    if witness is not None:
        raise NotSimpleError(witness)
    chosen = set(cells)
    try:
        return build_complex(*nerve_cells(key for key in vc.faces if key <= chosen))
    except ComplexError as exc:
        raise VoronoiError(f"Delaunay dual: {exc}") from exc


Region = tuple[tuple[Vector, ...], ...]


def region_from_json_dict(data: dict) -> Region:
    simplices = expect_object(data, VoronoiError, "a region").get("simplices", [])
    return tuple(
        tuple(tuple(expect_list(p, VoronoiError, "a region point", expect_rational))
              for p in expect_list(simplex, VoronoiError, "a region simplex"))
        for simplex in expect_list(simplices, VoronoiError, "'simplices'")
    )


def select_subcomplex(vc: VoronoiComplex, region: Region) -> tuple[int, ...]:
    """Indices of cells whose closed cell meets the region.

    The region is a finite union of closed rational simplices; emptiness
    of cell-meets-simplex is decided exactly via feasibility in barycentric
    coordinates.  Every region vertex is checked against the ambient
    dimension first, and each simplex's barycentric rows and site 0's
    bisector rows on it (`SiteSet.rows` of the `integer_form` of p_0 and
    the p_v - p_0, dependent for a degenerate simplex) are built once.
    Bisector rows are linear in the sites, so a cell i's closed rows there
    are site 0's rows minus site 0's row i, entry by entry, exactly
    `SiteSet.rows(i, form)`.  Each (cell, simplex) test is one
    `feasible_point` call on both as non-strict pairs, integer
    Fourier-Motzkin whose witness is back-substituted in integers and then
    discarded.  An empty selection is a valid result.
    """
    m = vc.dim
    if any(len(p) != m for simplex in region for p in simplex):
        raise VoronoiError("region vertex dimension mismatch")
    hulls = []
    for simplex in region:
        if not simplex:
            continue
        # barycentric lambdas 1..k-1 free, lambda_0 = 1 - sum
        p0, k = simplex[0], len(simplex)
        form = integer_form(p0, [tuple(x - y for x, y in zip(v, p0)) for v in simplex[1:]])
        # -lambda_v <= 0 for each v, and lambda_1 + ... + lambda_k-1 <= 1
        barycentric = [((*[-int(u == v) for u in range(1, k)], 0), False) for v in range(1, k)]
        hulls.append((k - 1, vc.sites.rows(0, form), [*barycentric, ((1,) * k, False)]))
    selected = []
    for i in vc.cell_indices():
        for dim, base, barycentric in hulls:
            own = base[i]
            rows = _constraints([tuple(map(sub, row, own)) for row in base], (i,), False)
            if feasible_point([*rows, *barycentric], dim) is not None:
                selected.append(i)
                break
    return tuple(selected)


@dataclass(frozen=True)
class SubspaceRecord:
    sites: frozenset[int]
    span: AffineSubspace

    @property
    def dim(self) -> int:
        return self.span.dim


@dataclass(frozen=True)
class SubspaceReport:
    """Essential versus parasitic equidistance subspaces for one cell.  The
    parasitic ones, the arrangement's records outside the essential ones,
    are listed on first read."""

    cell: int
    ambient_dim: int
    essential: tuple[SubspaceRecord, ...]
    minimal_parasitic_parent: dict[frozenset[int], frozenset[int]]
    arrangement: "SubspaceArrangement" = field(compare=False, repr=False)

    @cached_property
    def parasitic(self) -> tuple[SubspaceRecord, ...]:
        star = frozenset(r.sites for r in self.essential)
        return tuple(r for r in self.arrangement.records if r.sites not in star)


def _partition(rows: Sequence[tuple[int, ...]]) -> frozenset[frozenset[int]]:
    """The sites grouped by their rows on a span (`SiteSet.rows`, of any
    one site), i.e. by their squared distance there, one-site classes
    dropped: the distance partition.  An H(Q) or a meet H(a) & H(b) is the
    meet of H(C) over these classes C (Q, a and b each lie in one), so two
    such spans are equal iff their partitions are."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, row in enumerate(rows):
        groups.setdefault(row, []).append(k)
    return frozenset(frozenset(g) for g in groups.values() if len(g) > 1)


def _proper_subsets(j_set: frozenset[int]) -> list[frozenset[int]]:
    """The subsets of j_set with at least two sites, j_set excluded, in
    (size, sorted) order."""
    members = sorted(j_set)
    return [frozenset(c) for r in range(2, len(members)) for c in combinations(members, r)]


class SubspaceArrangement:
    """Every nonempty H(J) of one Voronoi complex, with incidence read off
    the index sets and the sites' integer distance classes.

    By the lifting map (Edelsbrunner & Seidel, "Voronoi diagrams and
    arrangements", 1986), H(J1) and H(J2) meet in H(J1 | J2) when J1 and J2
    share a site; a meet of disjoint J1 and J2 is read off rows, with no
    span built (`disjoint_meet`).  A subspace lies in H(J) exactly when J
    falls in one of its classes (`_partition`).  Q is exceptional, in E,
    when the partition of H(Q) is not {Q}, i.e. H(Q) lies on the bisector
    of two sites not both in Q; the span walk records these partitions, and
    for Q outside E, H(Q) lies in H(J) iff J <= Q.  Two index sets with one
    subspace both lie above E (contain some H(Q), Q in E), so the table
    that finishes the genericity check, naming the first colliding pair in
    (size, sorted) order, maps only their partitions to them.  The records
    are sorted once in each of two orders, by size and by dimension, and
    the stage check's pair work, `meeting_pairs`, is done once, on first use.
    """

    def __init__(
        self,
        sites: SiteSet,
        subspaces: dict[frozenset[int], AffineSubspace],
        partitions: dict[frozenset[int], frozenset[frozenset[int]]],
    ):
        """subspaces holds every non-empty H(J), and partitions the distance
        partition of each H(Q), Q in E, as the span walk records them."""
        self.sites = sites
        self.spans = subspaces
        order = sorted(subspaces, key=_lattice_order)
        self.records = tuple(SubspaceRecord(key, subspaces[key]) for key in order)
        self.records_by_dim = tuple(sorted(self.records, key=lambda r: (r.dim, sorted(r.sites))))
        self._partitions = partitions
        self.exceptional = frozenset(self._partitions)
        self.above_exceptional = frozenset(
            key for key in order if any(self.within(q, key) for q in self._partitions)
        )
        self._index: dict[frozenset[frozenset[int]], frozenset[int]] = {}
        for key in order:
            if key in self.above_exceptional:
                first = self._index.setdefault(self._partitions.get(key, frozenset((key,))), key)
                if first != key:
                    raise GenericityError(
                        f"H{sorted(first)} and H{sorted(key)} span the same subspace"
                    )
        self._rows: dict[frozenset[int], list[tuple[int, ...]]] = {}

    @cached_property
    def meeting_pairs(self) -> tuple[tuple[frozenset[int], frozenset[int], int, frozenset], ...]:
        """(a, b, dim, covers) for every pair whose subspaces have one
        dimension d, 1 <= d <= m - 2, and meet, in `combinations` order over
        `records_by_dim`: dim is the meet's, and covers are the index sets
        of dimension below d whose subspace contains the meet."""
        out = []
        for d in range(1, self.sites.dim - 1):
            level = [r.sites for r in self.records_by_dim if r.dim == d]
            lower = [r.sites for r in self.records_by_dim if r.dim < d]
            for a, b in combinations(level, 2):
                if a & b:
                    if (span := self.spans.get(a | b)) is not None:
                        out.append((a, b, span.dim, frozenset(
                            j for j in self.containing(a | b) if self.spans[j].dim < d)))
                elif (meet := self.disjoint_meet(a, b)) is not None:
                    dim, partition = meet
                    out.append((a, b, dim, frozenset(
                        j for j in lower if any(j <= c for c in partition))))
        return tuple(out)

    def within(self, q: frozenset[int], j: frozenset[int]) -> bool:
        """Whether H(q) lies in H(j)."""
        partition = self._partitions.get(q)
        return j <= q if partition is None else any(j <= c for c in partition)

    def containing(self, q: frozenset[int]) -> list[frozenset[int]]:
        """The index sets J with H(J) containing H(q), in (size, sorted) order."""
        if q not in self._partitions:
            return [*_proper_subsets(q), q]
        return [r.sites for r in self.records if self.within(q, r.sites)]

    def disjoint_meet(
        self, j1: frozenset[int], j2: frozenset[int]
    ) -> Optional[tuple[int, frozenset[frozenset[int]]]]:
        """(dim, distance partition) of H(j1) & H(j2) for disjoint j1 and
        j2, or None when they do not meet: min(j1)'s rows on H(j1), read
        once per record, cut (`_cut_rows`) by row k minus row f for each k
        in j2 but f = min(j2), the bisector of f and k there."""
        if j1 not in self._rows:
            self._rows[j1] = self.sites.rows(min(j1), self.spans[j1].integer_form)
        rows, first = self._rows[j1], min(j2)
        for k in sorted(j2 - {first}):
            rows = _cut_rows(rows, tuple(map(sub, rows[k], rows[first])))
            if rows is None:
                return None
        return len(rows[0]) - 1, _partition(rows)

    def lookup(self, j1: frozenset[int], j2: frozenset[int]) -> Optional[frozenset[int]]:
        """The J above E with H(J) == H(j1) & H(j2), for disjoint j1 and j2,
        or None.  A meet of disjoint index sets that is some H(Q) has Q in E:
        otherwise Q holds both sets and its bisectors are dependent, so a
        subset shares H(Q)."""
        meet = self.disjoint_meet(j1, j2)
        return meet and self._index.get(meet[1])


def classify_subspaces(vc: VoronoiComplex, cell: int) -> SubspaceReport:
    """Split every nonempty H(J) into essential or parasitic for one cell.

    Essential subspaces are the spans of the cell's faces, read off the
    faces in (size, sorted) order, the order of the arrangement's records;
    the parasitic ones are listed only when read.  For each
    essential subspace of dimension <= m-2 the unique smallest parasitic
    subspace containing it is recorded (and must have dimension one
    higher); the parasitic family must be closed under pairwise
    intersection whenever the intersection is itself some H(Q).
    """
    if not 0 <= cell < len(vc.sites):
        raise VoronoiError(f"unknown cell index {cell}")
    witness = vc.simplicity_witness()
    if witness is not None:
        raise NotSimpleError(witness)
    arrangement = vc.arrangement
    m = vc.dim
    essential = tuple(SubspaceRecord(f.sites, arrangement.spans[f.sites]) for f in vc.face_list()
                      if cell in f.sites and len(f.sites) > 1)
    star = frozenset(r.sites for r in essential)
    parent: dict[frozenset[int], frozenset[int]] = {}
    for record in essential:
        if record.dim > m - 2:
            continue
        supers = [
            j
            for j in arrangement.containing(record.sites)
            if j not in star and arrangement.spans[j].dim > record.dim
            and _contains(arrangement, j, record.sites)
        ]
        minimal = [
            p for p in supers if not any(q != p and _contains(arrangement, p, q) for q in supers)
        ]
        if len(minimal) != 1 or arrangement.spans[minimal[0]].dim != record.dim + 1:
            raise VoronoiCheckError(
                f"essential H{sorted(record.sites)} of cell {cell} has no unique "
                f"minimal parasitic parent of dimension {record.dim + 1}"
            )
        parent[record.sites] = minimal[0]
    _check_intersection_closure(vc, star)
    return SubspaceReport(cell, m, essential, parent, arrangement)


def _contains(
    arrangement: SubspaceArrangement, big: frozenset[int], small: frozenset[int]
) -> bool:
    """H(big) contains H(small), read off the index sets."""
    if big <= small:
        return True
    if big & small or not arrangement.within(small, big):
        # overlapping index sets: containment would force H(big | small) to
        # coincide with H(small), which genericity rules out; disjoint ones
        # are read off the certificate
        return False
    # disjoint index sets: containment puts a point of H(small) on the
    # bisectors of big as well, a coincidence of non-generic sites
    raise GenericityError(
        f"H{sorted(big)} contains H{sorted(small)} although their "
        f"index sets are disjoint"
    )


def _check_intersection_closure(vc: VoronoiComplex, star: frozenset[frozenset[int]]) -> None:
    """A pairwise meet of parasitic subspaces that is some H(Q) is parasitic.

    The parasitic index sets are the arrangement's outside the cell's star
    (the index sets of its faces), and the first failing pair in
    `combinations` order over them is named.  Only pairs that can meet in
    an H(Q) of the star are examined: `_overlapping_pairs` and the
    parasitic pairs above E (see `SubspaceArrangement.lookup`)."""
    arrangement = vc.arrangement
    pairs = _overlapping_pairs(star)
    pairs.update(combinations(sorted(arrangement.above_exceptional - star, key=_lattice_order), 2))
    for a, b in sorted(pairs, key=lambda pair: _lattice_order(pair[0]) + _lattice_order(pair[1])):
        if a & b:
            if a | b in star:
                raise VoronoiCheckError(
                    f"intersection of parasitic H{sorted(a)} and H{sorted(b)} "
                    f"is essential H{sorted(a | b)}"
                )
            continue
        key = arrangement.lookup(a, b)
        if key in star:
            raise VoronoiCheckError(
                f"intersection of parasitic H{sorted(a)} and "
                f"H{sorted(b)} equals essential H{sorted(key)}"
            )


def _overlapping_pairs(star: frozenset[frozenset[int]]) -> set[tuple[frozenset, frozenset]]:
    """The pairs of parasitic index sets that share a site and meet in a
    star key: for each key, its proper subsets outside the star, paired in
    `combinations` order where they cover it."""
    pairs = set()
    for key in star:
        outside = [s for s in _proper_subsets(key) if s not in star]
        pairs.update((a, b) for a, b in combinations(outside, 2) if a & b and a | b == key)
    return pairs
