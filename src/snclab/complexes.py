"""Unordered Delta-complexes with exact integer chain algebra.

A complex stores, per dimension, one record per cell: the ordered list of
its (k-1)-dimensional faces.  A k-cell has exactly k+1 faces and the
boundary map is the usual alternating sum (repeated faces add up, so they
may cancel).  The composite boundary must vanish: a nerve meets that by
construction, and build_complex checks it cell by cell on the face lists of
every other complex and names the first offending cell when it does not.

Homology reduces the boundaries from the top dimension down: the
unit-pivot reduction of intlinalg splits each boundary into identity
pivots and a small residual block, and a k-cell that was a pivot row of
the boundary above is cleared from the boundary below, whose remaining
columns span the same lattice; the sparse column of a cleared cell is
never built.  Ranks and torsion come from the Smith normal form of the
residuals alone, one per boundary, so homology runs on integers and makes
no Fraction.

Every nerve in the package (the simplicial complex of from_simplices, the
Delaunay dual, the SNC dual complex, the resolver's nerve) is built by
`nerve` straight into its Delta-complex from a downward-closed family of
index sets; `_faces` lists the downward closure of a family as sorted
tuples and `closure` returns it as sets.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, cycle, groupby, repeat
from typing import Iterable, Optional, Sequence

# `rank` is unused here but stays bound: perfbench/tracer.py wraps complexes.rank
from .intlinalg import SmithNormalForm, rank, reduce_unit_pivots, smith_normal_form
from .jsonread import expect_object

CellSpec = Sequence[Sequence[int]]


class ComplexError(ValueError):
    pass


def _col(faces: Sequence[int]) -> dict[int, int]:
    """The boundary column of a cell: face -> summed sign (-1)^position,
    with cancelled faces dropped."""
    out = dict(zip(faces, cycle((1, -1))))
    if len(out) == len(faces):
        return out
    out = {}
    for pos, f in enumerate(faces):
        out[f] = out.get(f, 0) + (1 if pos % 2 == 0 else -1)
    return {f: v for f, v in out.items() if v}


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: rank plus invariant factors d1 | d2 | ..."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    @classmethod
    def from_invariant_factors(cls, rank: int, factors: Iterable[int]) -> "AbelianGroup":
        torsion = tuple(sorted(d for d in factors if d > 1))
        return cls(rank, torsion)

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class DeltaComplex:
    """Graded cells with attaching data; cells[k][i] is the face list of cell (k, i)."""

    cells: tuple[tuple[tuple[int, ...], ...], ...]
    labels: tuple[tuple[Optional[str], ...], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(
                self, "labels", tuple(tuple(None for _ in layer) for layer in self.cells)
            )

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, k: int) -> int:
        if 0 <= k < len(self.cells):
            return len(self.cells[k])
        return 0

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(layer) for k, layer in enumerate(self.cells))

    @cached_property
    def _reduced(self) -> tuple[tuple[tuple[int, ...], SmithNormalForm], ...]:
        """(unit pivot rows, Smith normal form of the residual block) of each
        boundary map d_k at index k - 1, k >= 1, reduced from the top
        dimension down with clearing; ranks and torsion both read it.

        Before the boundary d_k is reduced, the columns of the k-cells that
        were pivot rows of d_(k+1) are dropped.  This keeps the lattice the
        columns span, so ranks and torsion are those of the full d_k.  When
        a column of d_(k+1) pivots on row p, it is d_(k+1) of an integer
        chain, is zero in every earlier pivot row and is +-1 at p.  Since
        d_k d_(k+1) = 0, the column of p in d_k is then an integer
        combination of other columns of d_k, none of them p or an earlier
        pivot.  Backward induction from the last pivot puts every dropped
        column in the lattice of the kept ones.  The only assumption is d d = 0,
        which a nerve meets by construction and build_complex checks on every
        other complex.  Only the kept columns are built.
        """
        reduced = []
        cleared: frozenset[int] = frozenset()
        for k in range(self.dim, 0, -1):
            columns = [_col(f) for j, f in enumerate(self.cells[k]) if j not in cleared]
            pivots, residual = reduce_unit_pivots(columns, self.n_cells(k - 1))
            reduced.append((pivots, smith_normal_form(residual)))
            cleared = frozenset(pivots)
        return tuple(reversed(reduced))

    @cached_property
    def _ranks(self) -> tuple[int, ...]:
        """Rank of each boundary map C_k -> C_{k-1} for k = 0 .. dim + 1."""
        inner = tuple(len(pivots) + snf.rank for pivots, snf in self._reduced)
        return (0,) + inner + (0,)

    def is_connected(self) -> bool:
        """One component: H_0 is free of rank the number of components, and
        the empty complex has b_0 = 0."""
        return self.betti(0) == 1

    def homology(self, k: int) -> AbelianGroup:
        """H_k over the integers; out-of-range k gives the zero group."""
        if k < 0 or k > self.dim:
            return AbelianGroup(0)
        torsion = self._reduced[k][1].nonzero if k < self.dim else ()
        return AbelianGroup.from_invariant_factors(self.betti(k), torsion)

    def betti(self, k: int) -> int:
        if k < 0 or k > self.dim:
            return 0
        return self.n_cells(k) - self._ranks[k] - self._ranks[k + 1]

    def all_betti(self) -> tuple[int, ...]:
        return tuple(self.betti(k) for k in range(self.dim + 1))

    def is_q_acyclic(self) -> bool:
        """True when the rational cohomology vanishes in every positive degree."""
        if not self.is_connected():
            raise ComplexError("Q-acyclicity is only defined for connected complexes")
        return all(self.betti(k) == 0 for k in range(1, self.dim + 1))

    def to_json_dict(self) -> dict:
        out = {"dim": self.dim, "cells": [[list(c) for c in layer] for layer in self.cells]}
        if any(lbl is not None for layer in self.labels for lbl in layer):
            out["labels"] = [list(layer) for layer in self.labels]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


def _check_cells(k: int, layer: Sequence, below: int) -> None:
    """Name the first malformed cell of layer k, over `below` (k-1)-cells."""
    for i, spec in enumerate(layer):
        if not isinstance(spec, (list, tuple)):
            raise ComplexError(f"cell ({k},{i}) must be a list of face indices")
        if len(spec) != k + 1:
            raise ComplexError(f"cell ({k},{i}) must have exactly {k + 1} faces")
        for f in spec:
            if type(f) is not int:
                raise ComplexError(f"face reference in cell ({k},{i}) is not an integer: {f!r}")
            if not 0 <= f < below:
                raise ComplexError(f"dangling face reference in cell ({k},{i}): {f}")


def build_complex(cells: Sequence[CellSpec], labels=None) -> DeltaComplex:
    """Validate raw cell lists and return the complex.

    Layers and cells are lists.  The 0-dimensional layer may list anything
    (labels, nulls); only its length matters.  Each k-cell for k >= 1 must
    list exactly k+1 existing (k-1)-cells by int index (not bool), and
    the composite boundary must vanish over the integers.  A layer is
    walked cell by cell only when a test of the whole layer fails.
    """
    if not isinstance(cells, (list, tuple)):
        raise ComplexError("complex cells must be a list of layers")
    if not cells:
        raise ComplexError("a complex needs at least one dimension layer")
    for k, layer in enumerate(cells):
        if not isinstance(layer, (list, tuple)):
            raise ComplexError(f"layer {k} of the complex must be a list")
    normalized: list[tuple[tuple[int, ...], ...]] = [((),) * len(cells[0])]
    for k in range(1, len(cells)):
        layer = cells[k]
        below = len(cells[k - 1])
        lists = all(map(isinstance, layer, repeat((list, tuple))))
        faces = tuple(map(tuple, layer)) if lists else ()
        flat = list(chain.from_iterable(faces))
        if not (
            lists
            and {k + 1}.issuperset(map(len, faces))
            and {int}.issuperset(map(type, flat))
            and (not flat or 0 <= min(flat) and max(flat) < below)
        ):
            _check_cells(k, layer, below)
        normalized.append(faces)
    # drop empty top layers so dim reflects actual cells
    while len(normalized) > 1 and not normalized[-1]:
        normalized.pop()
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or not all(
            isinstance(layer, (list, tuple)) for layer in labels
        ):
            raise ComplexError("labels must be a list of lists")
        norm_labels = tuple(
            tuple(None if x is None else str(x) for x in layer)
            for layer in list(labels)[: len(normalized)]
        )
        if tuple(len(l) for l in norm_labels) != tuple(len(l) for l in normalized):
            raise ComplexError("labels shape does not match cells")
    else:
        norm_labels = None
    # d d = 0 on a k-cell with faces f_i says that the (k-2)-cells at the
    # even places i + j of the face lists of the f_i are, as a multiset,
    # those at the odd places
    for k in range(2, len(normalized)):
        even = [f[0::2] for f in normalized[k - 1]]
        odd = [f[1::2] for f in normalized[k - 1]]
        for j, faces in enumerate(normalized[k]):
            plus, minus = [], []
            for f in faces[0::2]:
                plus += even[f]
                minus += odd[f]
            for f in faces[1::2]:
                plus += odd[f]
                minus += even[f]
            plus.sort()
            minus.sort()
            if plus != minus:
                raise ComplexError(f"boundary composite is nonzero on cell ({k},{j})")
    return DeltaComplex(tuple(normalized), norm_labels)


def _faces(sets: Iterable[Iterable]) -> set[tuple]:
    """The downward closure as sorted tuples: every nonempty subset of
    every given set.

    A set already in the closure adds nothing, so listing the larger sets
    first saves work."""
    out: set[tuple] = set()
    for s in sets:
        items = tuple(sorted(set(s)))
        if items in out:
            continue
        for size in range(1, len(items) + 1):
            out.update(combinations(items, size))
    return out


def closure(sets: Iterable[Iterable]) -> frozenset:
    """The downward closure as a frozenset of frozensets (see _faces)."""
    return frozenset(map(frozenset, _faces(sets)))


def nerve(family: Iterable[Iterable]) -> DeltaComplex:
    """The nerve of a downward-closed family of nonempty index sets.

    Simplices are sorted lexicographically within each dimension, the i-th
    face of a simplex drops its i-th vertex, and vertices are labelled by
    their keys.  That face order meets d d = 0 by the simplicial identity,
    so the face tuples are stored as they are made, with no check of the
    composite.  A simplex whose face is not in the family raises
    ComplexError.
    """
    simplices = sorted(map(tuple, map(sorted, family)), key=len)
    if not simplices:
        raise ComplexError("no simplices given")
    by_dim: list[list[tuple]] = [[] for _ in simplices[-1]]
    for size, layer in groupby(simplices, len):
        by_dim[size - 1] = sorted(layer)
    cells = [((),) * len(by_dim[0])]
    for k in range(1, len(by_dim)):
        index = dict(zip(by_dim[k - 1], range(len(by_dim[k - 1]))))
        face = index.__getitem__
        try:
            # combinations drop the last vertex first
            cells.append(tuple([tuple(map(face, combinations(s, k)))[::-1] for s in by_dim[k]]))
        except KeyError:
            for s in by_dim[k]:
                for i in range(len(s)):
                    sub = s[:i] + s[i + 1 :]
                    if sub not in index:
                        raise ComplexError(f"simplex {list(s)} lacks face {list(sub)}") from None
    labels = (tuple(str(v[0]) for v in by_dim[0]),) + tuple((None,) * len(l) for l in cells[1:])
    return DeltaComplex(tuple(cells), labels)


def from_simplices(simplices: Iterable[Sequence[int]]) -> DeltaComplex:
    """The simplicial Delta-complex generated by the given simplices, with
    vertices (arbitrary sortable keys) labelled by their keys: the nerve of
    their downward closure, which meets d d = 0 by construction."""
    return nerve(_faces(simplices))


def complex_from_json_dict(data: dict) -> DeltaComplex:
    data = expect_object(data, ComplexError, "complex JSON", "cells")
    return build_complex(data["cells"], data.get("labels"))


def _adjacency(k: DeltaComplex) -> list[dict[int, int]]:
    """Per vertex, the number of edges to each vertex (a loop counts once)."""
    adj: list[dict[int, int]] = [{} for _ in range(k.n_cells(0))]
    for u, v in k.cells[1] if k.dim >= 1 else ():
        adj[u][v] = adj[u].get(v, 0) + 1
        if u != v:
            adj[v][u] = adj[v].get(u, 0) + 1
    return adj


def delta_isomorphic(a: DeltaComplex, b: DeltaComplex) -> bool:
    """Graded isomorphism search over face-preserving bijections.

    Backtracks dimension by dimension; face lists must correspond as
    multisets under the already-chosen lower mapping.  Vertex i goes only
    where its edge counts to vertices 0..i match those of their images:
    every isomorphism passes that test, and it cuts a failed search off
    long before every vertex bijection is tried.  Intended for the
    desk-size complexes this package produces.
    """
    if a.cell_counts() != b.cell_counts():
        return False
    back_a = [{p: c for p, c in row.items() if p <= i} for i, row in enumerate(_adjacency(a))]
    adj_b = _adjacency(b)

    def extend(k: int, lower_map: Sequence[int]) -> bool:
        if k > a.dim:
            return True
        na = a.n_cells(k)
        imaged = [None] * na
        source = [None] * b.n_cells(k)  # the cell of a placed on each cell of b

        def key_a(i):
            if k == 0:
                return ()
            return tuple(sorted(lower_map[f] for f in a.cells[k][i]))

        keys_b: dict[tuple, list[int]] = {}
        for j in range(b.n_cells(k)):
            kb = tuple(sorted(b.cells[k][j])) if k > 0 else ()
            keys_b.setdefault(kb, []).append(j)

        def fits(i: int, j: int) -> bool:
            back_b = {i if q == j else source[q]: c for q, c in adj_b[j].items()
                      if q == j or source[q] is not None}
            return back_b == back_a[i]

        def place(i: int) -> bool:
            if i == na:
                return extend(k + 1, imaged)
            for j in keys_b.get(key_a(i), []):
                if source[j] is None and (k > 0 or fits(i, j)):
                    source[j] = i
                    imaged[i] = j
                    if place(i + 1):
                        return True
                    source[j] = None
            return False

        return place(0)

    return extend(0, [])
