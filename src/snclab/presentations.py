"""Finite group presentations and the rational perfectness tests.

Relator words are lists of signed 1-based generator indices.  The only
simplifications ever applied are free reduction and removal of empty
relators, which keeps presentations reproducible across runs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Sequence

from .complexes import AbelianGroup, ComplexError, DeltaComplex
from .intlinalg import rank, reduce_unit_pivots, smith_normal_form
from .jsonread import expect_int, expect_object


class PresentationError(ValueError):
    pass


def free_reduce(word: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class Presentation:
    """<x_1..x_n | relators>, relators as signed 1-based index words."""

    generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.generators < 0:
            raise PresentationError("negative generator count")
        letters = list(chain.from_iterable(self.relators))
        if letters and (0 in letters or min(letters) < -self.generators
                        or max(letters) > self.generators):
            bad = next(x for x in letters if x == 0 or abs(x) > self.generators)
            raise PresentationError(f"relator letter {bad} out of range")

    @classmethod
    def build(cls, generators: int, relators: Sequence[Sequence[int]]) -> "Presentation":
        """Relators are lists of integer letters (not bools); anything else
        raises PresentationError."""
        if not isinstance(relators, (list, tuple)):
            raise PresentationError("relators must be a list of words")
        lists = all(map(isinstance, relators, repeat((list, tuple))))
        words = tuple(map(tuple, relators)) if lists else ()
        if not (lists and {int}.issuperset(map(type, chain.from_iterable(words)))):
            for w in relators:
                if not isinstance(w, (list, tuple)):
                    raise PresentationError(f"relator {w!r} is not a list of letters")
                for x in w:
                    if type(x) is not int:
                        raise PresentationError(f"relator letter {x!r} is not an integer")
        return cls(generators, words)

    def simplified(self) -> "Presentation":
        """Free reduction plus removal of empty relators; nothing else."""
        reduced = [free_reduce(w) for w in self.relators]
        return Presentation(self.generators, tuple(w for w in reduced if w))

    def exponent_columns(self) -> list[dict[int, int]]:
        """The exponent sums of each relator as a sparse column:
        0-based generator -> nonzero exponent sum."""
        out = []
        for w in self.relators:
            col: dict[int, int] = {}
            for letter in w:
                g = abs(letter) - 1
                col[g] = col.get(g, 0) + (1 if letter > 0 else -1)
            out.append({g: v for g, v in col.items() if v})
        return out

    def to_json_dict(self) -> dict:
        return {"generators": self.generators, "relators": [list(w) for w in self.relators]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


def presentation_from_json_dict(data: dict) -> Presentation:
    data = expect_object(data, PresentationError, "presentation JSON", "generators")
    generators = expect_int(data["generators"], PresentationError, "the generator count")
    return Presentation.build(generators, data.get("relators", []))


def abelianization(p: Presentation) -> AbelianGroup:
    """H_1 of the presented group: cokernel of the exponent-sum matrix,
    after its unit pivots are split off."""
    if p.generators == 0:
        return AbelianGroup(0)
    pivots, residual = reduce_unit_pivots(p.exponent_columns(), p.generators)
    snf = smith_normal_form(residual)
    return AbelianGroup.from_invariant_factors(p.generators - len(pivots) - snf.rank, snf.nonzero)


def is_q_perfect(p: Presentation) -> bool:
    """True when the largest abelian quotient is finite (H_1 rank zero)."""
    return abelianization(p).rank == 0


class SuperperfectVerdict(Enum):
    CONFIRMED = "confirmed"
    INCONCLUSIVE = "inconclusive"


def is_q_superperfect_sufficient(p: Presentation) -> SuperperfectVerdict:
    """One-sided test via the presentation 2-complex.

    The complex has one vertex, a loop per generator and a disc per
    relator, so b1 = g - rank and b2 = r - rank over the rationals.  Both
    vanishing is sufficient for H_1(G,Q) = H_2(G,Q) = 0 because H_2 of the
    group is a quotient of H_2 of the complex; failure refutes nothing.
    The rank is read off the unit-pivot reduction, as in `abelianization`.
    """
    pivots, residual = reduce_unit_pivots(p.exponent_columns(), p.generators)
    r = len(pivots) + rank(residual)
    b1 = p.generators - r
    b2 = len(p.relators) - r
    if b1 == 0 and b2 == 0:
        return SuperperfectVerdict.CONFIRMED
    return SuperperfectVerdict.INCONCLUSIVE


def higman_presentation() -> Presentation:
    """Four generators with x_i [x_i, x_{i+1}] relators, indices mod 4."""
    relators = []
    for i in range(1, 5):
        j = 1 + (i % 4)
        relators.append([i, i, j, -i, -j])
    return Presentation.build(4, relators)


def sl2z_presentation() -> Presentation:
    """<a, b | a^4, a^2 b^-3>."""
    return Presentation.build(2, [[1, 1, 1, 1], [1, 1, -2, -2, -2]])


def pi1_presentation(k: DeltaComplex, basepoint: int = 0) -> Presentation:
    """Presentation of pi_1 of the 2-skeleton.

    Generators are the edges outside a breadth-first spanning tree rooted
    at the basepoint (ties broken by lowest edge index); every 2-cell
    contributes its boundary word with tree edges deleted.  Collapsing the
    tree justifies dropping the conjugating tree paths.  The complex is
    connected when the search reaches every vertex.
    """
    if not 0 <= basepoint < k.n_cells(0):
        if not k.is_connected():
            raise ComplexError("pi_1 needs a connected complex")
        raise ComplexError("basepoint out of range")
    n_edges = k.n_cells(1) if k.dim >= 1 else 0
    edges = k.cells[1] if k.dim >= 1 else ()
    incident: dict[int, list[int]] = {}
    for e, (head, tail) in enumerate(edges):
        incident.setdefault(head, []).append(e)
        incident.setdefault(tail, []).append(e)
    visited = {basepoint}
    tree: set[int] = set()
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for e in incident.get(v, []):  # appended in increasing edge order
            head, tail = edges[e]
            other = tail if head == v else head
            if other not in visited:
                visited.add(other)
                tree.add(e)
                queue.append(other)
    if len(visited) < k.n_cells(0):
        raise ComplexError("pi_1 needs a connected complex")
    gen_index = {}
    for e in range(n_edges):
        if e not in tree:
            gen_index[e] = len(gen_index) + 1
    relators = []
    for faces in k.cells[2] if k.dim >= 2 else ():
        f0, f1, f2 = faces
        word = []
        for e, sign in ((f2, 1), (f0, 1), (f1, -1)):
            if e in gen_index:
                word.append(sign * gen_index[e])
        word = free_reduce(word)
        if word:
            relators.append(word)
    return Presentation.build(len(gen_index), relators)
