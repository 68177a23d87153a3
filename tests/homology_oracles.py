"""The homology kernel's per-cell and per-letter checks, kept as oracles.

`build_complex` validates a whole layer at a time and checks d d = 0 on the
face tuples; `nerve` makes a nerve's face tuples directly and skips that
check; `reduce_unit_pivots` picks each pivot in one pass over its column;
`Presentation` validates its letters in bulk.  The versions here do the
same work one cell, one candidate and one letter at a time (`nerve_cells`
makes a nerve's cells as lists for `build_complex`, which checks them),
and the differential tests require the same complexes, the same verdicts,
the same messages and the same pivots from both.
"""

from itertools import combinations, cycle, groupby

from snclab.complexes import ComplexError
from snclab.intlinalg import IntMatrix
from snclab.presentations import PresentationError


def col(faces):
    """The boundary column of a cell: face -> summed sign (-1)^position,
    with cancelled faces dropped."""
    out = dict(zip(faces, cycle((1, -1))))
    if len(out) == len(faces):
        return out
    out = {}
    for pos, f in enumerate(faces):
        out[f] = out.get(f, 0) + (1 if pos % 2 == 0 else -1)
    return {f: v for f, v in out.items() if v}


def build_complex_verdict(cells):
    """The first message build_complex raises on cells, or None: every cell
    checked in turn, then d d composed on sparse dict columns."""
    if not isinstance(cells, (list, tuple)):
        return "complex cells must be a list of layers"
    if not cells:
        return "a complex needs at least one dimension layer"
    for k, layer in enumerate(cells):
        if not isinstance(layer, (list, tuple)):
            return f"layer {k} of the complex must be a list"
    normalized = [tuple(() for _ in cells[0])]
    for k in range(1, len(cells)):
        layer = []
        for i, spec in enumerate(cells[k]):
            if not isinstance(spec, (list, tuple)):
                return f"cell ({k},{i}) must be a list of face indices"
            faces = tuple(spec)
            if len(faces) != k + 1:
                return f"cell ({k},{i}) must have exactly {k + 1} faces"
            for f in faces:
                if type(f) is not int:
                    return f"face reference in cell ({k},{i}) is not an integer: {f!r}"
                if not 0 <= f < len(cells[k - 1]):
                    return f"dangling face reference in cell ({k},{i}): {f}"
            layer.append(faces)
        normalized.append(tuple(layer))
    while len(normalized) > 1 and not normalized[-1]:
        normalized.pop()
    columns = [[col(faces) for faces in layer] for layer in normalized]
    for k in range(2, len(normalized)):
        lower = columns[k - 1]
        for j, column in enumerate(columns[k]):
            composite = {}
            for f, v in column.items():
                for g, w in lower[f].items():
                    composite[g] = composite.get(g, 0) + v * w
            if any(composite.values()):
                return f"boundary composite is nonzero on cell ({k},{j})"
    return None


def nerve_cells(family):
    """(cells, labels) for build_complex from a downward-closed family of
    nonempty index sets.

    Simplices are sorted lexicographically within each dimension, the i-th
    face of a simplex drops its i-th vertex, and vertices are labelled by
    their keys.  A simplex whose face is not in the family raises
    ComplexError.
    """
    simplices = sorted(map(tuple, map(sorted, family)), key=len)
    if not simplices:
        raise ComplexError("no simplices given")
    by_dim = [[] for _ in simplices[-1]]
    for size, layer in groupby(simplices, len):
        by_dim[size - 1] = sorted(layer)
    cells = [[[] for _ in by_dim[0]]]
    for k in range(1, len(by_dim)):
        index = dict(zip(by_dim[k - 1], range(len(by_dim[k - 1]))))
        layer = []
        for s in by_dim[k]:
            try:
                # combinations drop the last vertex first
                faces = list(map(index.__getitem__, combinations(s, k)))
            except KeyError:
                for i in range(len(s)):
                    sub = s[:i] + s[i + 1 :]
                    if sub not in index:
                        raise ComplexError(f"simplex {list(s)} lacks face {list(sub)}") from None
            faces.reverse()
            layer.append(faces)
        cells.append(layer)
    labels = [[str(v[0]) for v in by_dim[0]]] + [[None] * len(l) for l in cells[1:]]
    return cells, labels


def reduce_unit_pivots(columns, rows):
    """Unit-pivot reduction choosing each pivot with min over a candidate
    list, keyed by (entries in the pivot's row, row)."""
    cols = [{i: v for i, v in c.items() if v} for c in columns]
    where = [set() for _ in range(rows)]
    for j, c in enumerate(cols):
        for i in c:
            where[i].add(j)
    pivots = []
    pending = list(range(len(cols)))
    while pending:
        retry = set()
        for j in pending:
            col_j = cols[j]
            candidates = [i for i, v in col_j.items() if v in (1, -1)]
            if not candidates:
                continue
            pivot = min(candidates, key=lambda i: (len(where[i]), i))
            u = col_j[pivot]
            for other in sorted(where[pivot] - {j}):
                target = cols[other]
                q = target[pivot] * u
                for i, v in col_j.items():
                    new = target.get(i, 0) - q * v
                    if new:
                        target[i] = new
                        where[i].add(other)
                    else:
                        del target[i]
                        where[i].discard(other)
                retry.add(other)
            for i in col_j:
                where[i].discard(j)
            cols[j] = {}
            pivots.append(pivot)
        pending = sorted(retry)
    rest = [c for c in cols if c]
    used = sorted({i for c in rest for i in c})
    grid = [[c.get(i, 0) for c in rest] for i in used]
    return tuple(pivots), IntMatrix.from_rows(grid, len(rest))


def presentation_verdict(generators, relators):
    """The first message Presentation.build raises, or None: the type of
    each word and letter in turn, then the count and each letter's range."""
    if not isinstance(relators, (list, tuple)):
        return "relators must be a list of words"
    for w in relators:
        if not isinstance(w, (list, tuple)):
            return f"relator {w!r} is not a list of letters"
        for x in w:
            if type(x) is not int:
                return f"relator letter {x!r} is not an integer"
    if generators < 0:
        return "negative generator count"
    for w in relators:
        for letter in w:
            if letter == 0 or abs(letter) > generators:
                return f"relator letter {letter} out of range"
    return None


def verdict(fn, *args, error=(ComplexError, PresentationError)):
    """The message fn raises on args, or None when it returns."""
    try:
        fn(*args)
    except error as exc:
        return str(exc)
    return None

