"""The naive chart quotient: the oracle for the strata of `build_snc`.

Every chart face (i, J), i a selected cell in J, is glued to (j, J)
whenever {i, j} is a face of the complex, and the classes are the
transitive closure of those gluings, found by union-find and listed by
their lowest (chart, sorted key) pair.  Over the face keys the classes
inside the selection are the strata; adding the parasitic keys
(`vc.subspaces`) reproduces the spurious identifications the blow-up
ledgers prevent.
"""

from snclab.snc import Stratum


class UnionFind:
    """Union-find over hashable, sortable keys; a class is represented by
    its smallest key, so the representatives are deterministic."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def naive_quotient(vc, selection, keys):
    """The classes of chart faces over `keys` under the gluing closure, as
    strata ordered by representative."""
    chosen = set(selection)
    keys = {tuple(sorted(k)) for k in keys}
    gluings = [(i, j) for i in chosen for j in chosen if i < j and frozenset((i, j)) in vc.faces]
    uf = UnionFind()
    for key in keys:
        for i in chosen.intersection(key):
            uf.add((i, key))
    for i, j in gluings:
        for key in keys:
            if i in key and j in key:
                uf.union((i, key), (j, key))
    return [
        Stratum(
            frozenset(rep[1]),
            tuple((ch, frozenset(key)) for ch, key in sorted(members)),
            vc.dim - len(rep[1]) + 1,
        )
        for rep, members in sorted(uf.classes().items())
    ]
