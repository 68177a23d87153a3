"""Shared complexes and site configurations used across the test suite.

Coordinates are chosen once, exactly, and the structural facts asserted
about them (face lists, adjacency, genericity) are re-derived in the
tests from witness points and direct distance comparisons.
"""

import random
from fractions import Fraction as F

from snclab.complexes import build_complex, from_simplices
from snclab.voronoi import SiteSet

# --- Delta-complexes ---------------------------------------------------

POINT = from_simplices([(0,)])

# 3 vertices, 3 edges in a cycle
CIRCLE = from_simplices([(0, 1), (1, 2), (0, 2)])

FULL_2_SIMPLEX = from_simplices([(0, 1, 2)])

SPHERE_2 = from_simplices([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# minimal 6-vertex triangulation of the real projective plane
RP2_FACES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]
RP2 = from_simplices(RP2_FACES)

# one vertex, loop edges a, b, c and two triangles; the attaching words
# a b c^-1 and b a c^-1 make this the genuine torus
TORUS = build_complex([[None], [[0, 0], [0, 0], [0, 0]], [[0, 2, 1], [1, 2, 0]]])

NAMED_COMPLEXES = {
    "point": POINT,
    "circle": CIRCLE,
    "full_2_simplex": FULL_2_SIMPLEX,
    "sphere_2": SPHERE_2,
    "rp2": RP2,
    "torus": TORUS,
}


def suspension(facets, a, b):
    """The suspension of a pure complex's facets with cone points a and b."""
    return [tuple(f) + (a,) for f in facets] + [tuple(f) + (b,) for f in facets]


def random_pure_3d(seed, vertices, count):
    """count distinct tetrahedra on the vertices, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    facets = set()
    while len(facets) < count:
        facets.add(tuple(sorted(rng.sample(range(vertices), 4))))
    return sorted(facets)


# --- site configurations ------------------------------------------------

TWO_SITES_1D = SiteSet.build(1, [[0], [1]])

THREE_SITES_1D = SiteSet.build(1, [[0], [1], [3]])

FOUR_SITES_1D = SiteSet.build(1, [[0], [1], [2], [4]])

TRIANGLE_SITES = SiteSet.build(2, [[0, 0], [1, 0], [0, 1]])

SQUARE_SITES = SiteSet.build(2, [[0, 0], [1, 0], [0, 1], [1, 1]])

# four sites whose cells run in a row 0-1-2-3; the circumcenter of
# {0,1,2} is eaten by site 3, so selecting [0,1,2] gives the row of three
STRIP_SITES = SiteSet.build(2, [[0, 0], [2, 1], [4, 0], [2, -2]])
STRIP_ROW = (0, 1, 2)

# center plus four staggered satellites; the outer cells form a ring
RING_SITES = SiteSet.build(
    2, [[0, 0], [2, 0], [0, 3], [F(-5, 2), 0], [0, F(-7, 4)]]
)
RING_OUTER = (1, 2, 3, 4)

# sets with hidden containments (an H(Q) on the bisector of two sites not
# both in Q) or with two index sets sharing a subspace
HIDDEN_CONTAINMENTS = {
    # the third planar set drawn from random.Random(5) for n = 6, 8, 10:
    # the non-face H{1,4,8} lies on the bisector H{0,5}
    "random5_n10": SiteSet.build(2, [[0, 26], [9, 17], [16, 0], [20, 97], [21, 37],
                                     [23, 49], [27, 21], [40, 25], [56, 16], [79, 79]]),
    # the Voronoi vertex H{3,5,6} lies on the bisector H{1,4}
    "vertex_on_bisector": SiteSet.build(
        2, [[0, 1], [4, 11], [5, 7], [7, 3], [10, 14], [11, 8], [12, 8]]
    ),
    # the circumcentre of sites 0, 1, 4 lies on the bisector H{2,3}
    "circumcentre_on_bisector": SiteSet.build(2, [[0, 0], [2, 0], [4, 2], [0, 4], [0, 2]]),
    "grid": SiteSet.build(2, [[x, y] for x in range(3) for y in range(3)]),
    "cocircular": SiteSet.build(2, [[0, 5], [3, 4], [4, 3], [5, 0], [0, -5], [-3, -4], [7, 7]]),
    "cube": SiteSet.build(3, [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)]),
    # H{0,1,2} and H{3,4,5} are lines through (1, 2, 3), which is 3 from
    # sites 0-2 and sqrt(26) from sites 3-5: disjoint stage-1 centers meet
    "crossing_axes": SiteSet.build(
        3, [[3, 4, 4], [-1, 3, 5], [2, 0, 5], [6, 3, 3], [0, 2, 8], [4, -2, 2]]
    ),
    # a seventh site 3 from (1, 2, 3) makes that point H{0,1,2,6}
    "crossing_axes_vertex": SiteSet.build(
        3, [[3, 4, 4], [-1, 3, 5], [2, 0, 5], [6, 3, 3], [0, 2, 8], [4, -2, 2], [3, 3, 1]]
    ),
    "circle_in_3d": SiteSet.build(3, [[0, 5, 0], [3, 4, 0], [5, 0, 0], [0, -5, 0], [1, 1, 4]]),
}


def seeded_sites(seed, n, dim):
    """n distinct sites with coordinates in 0..97 drawn from random.Random(seed)."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, 97) for _ in range(dim)))
    return SiteSet.build(dim, sorted(pts))
