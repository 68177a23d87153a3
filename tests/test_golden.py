"""Golden digests of CLI stdout: the rule that output stays byte-identical.

Each case runs `snclab.cli.main` in process on fixed inputs and compares
the sha256 of its stdout, and its exit code, with the value recorded when
the case was added.  The inputs are the CLI test fixtures' site sets and
region, and seeded planar and 3D site sets, each with a region that covers
every cell and a degenerate one: a simplex with a repeated vertex, a single
point, a segment, a 4-point hull in the plane and the midpoint of a site
and its nearest neighbour, which lies on both closed cells.  Two more
seeded sets have coordinates that are thirds and sevenths, so every face
witness of their `voronoi build` is computed over a common denominator
L = 21 > 1.  Three larger 3D sets, two seeded integer ones and one in
thirds and sevenths, pin `snc build` and `snc dual` over every cell: their
ledgers hold pairs of disjoint same-stage lines; so do an 18-site planar
set with coordinates up to 10^6.  `voronoi build`, `simple`, `delaunay`
(every cell) and `select` over a cover run on a 40-site planar set and a
14-site 3D set, where the face walk builds far fewer H(J) than there are
non-empty ones.  `snc build` and `voronoi
classify` also run on a planar set whose exceptional set E is not empty,
and `snc build` on crossing 3D lines, which it refuses with exit 2.
Further cases pin `voronoi classify --cell`, `voronoi delaunay --select`
with sorted selections, and `resolve run` on roots of the resolver's
degree box, with and without a seed.  `homology` (with and without
`--dim`), `pi1` and `check q-acyclic` run on the complexes test corpus,
on Delta-complexes with loops, repeated and cancelling faces, on the
boundaries of the 6-, 7- and 8-simplex, on RP2 and its suspensions and on
a seeded random pure 3-complex; `check q-perfect` and `q-superperfect` run
on the simplified pi_1 presentations of those complexes, on named groups
and on malformed presentations.

A change that alters any of these outputs on purpose records the new
digest here and says so in CHANGES.md.

The glued models of the `snc build` and `pipeline` cases also pin
`embed_snc`: its roots, made without the constructor's checks, are the
checked `LocalModel.build` of each stratum and determinant size.  The
`pipeline` cases' H_1, read off each stage's homology, is checked against
the abelianization of that stage's pi_1 presentation.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from itertools import combinations

from corpus import HIDDEN_CONTAINMENTS, NAMED_COMPLEXES, RP2_FACES, random_pure_3d, suspension
from snclab.cli import main
from snclab.complexes import complex_from_json_dict, from_simplices
from snclab.presentations import (
    abelianization,
    higman_presentation,
    pi1_presentation,
    sl2z_presentation,
)
from snclab.resolution import LocalModel, embed_snc, resolve
from snclab.snc import build_snc, dual_complex
from snclab.voronoi import (
    SiteSet,
    delaunay_dual,
    region_from_json_dict,
    select_subcomplex,
    voronoi_complex,
)


def _seeded_sites(seed, n, dim, hi):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, hi) for _ in range(dim)))
    return sorted(pts)


def _seeded_rational_sites(seed, n, dim, hi):
    """Sites whose coordinates are thirds or sevenths, so their common
    denominator L is 21."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(F(rng.randint(0, hi), rng.choice((3, 7))) for _ in range(dim)))
    return sorted(pts)


def _sites_json(dim, pts):
    return {"dim": dim, "sites": [[str(c) for c in p] for p in pts]}


def _region_json(simplices):
    return {"simplices": [[[str(c) for c in p] for p in s] for s in simplices]}


def _cover(dim, hi):
    """One simplex containing [0, hi]^dim, so every cell is selected."""
    big = dim * (hi + 1) + 1
    return _region_json([[[-1] * dim] + [[big if i == j else -1 for i in range(dim)]
                                         for j in range(dim)]])


def _degenerate(pts):
    """Lower-dimensional and repeated simplices around the first sites."""
    dim = len(pts[0])
    a, b, c = (tuple(map(F, p)) for p in pts[:3])
    nearest = min(pts[1:], key=lambda p: sum((x - y) ** 2 for x, y in zip(p, pts[0])))
    midpoint = tuple(F(x + y, 2) for x, y in zip(pts[0], nearest))
    centroid = tuple((x + y + z) / 3 for x, y, z in zip(a, b, c))
    simplices = [[a, a, b], [c], [b, c], [midpoint]]
    if dim == 2:
        simplices.append([a, b, c, centroid])
    return _region_json(simplices)


PLANAR = _seeded_sites(16101, 6, 2, 97)
PLANAR_WIDE = _seeded_sites(16102, 5, 2, 10**6)
SPATIAL = _seeded_sites(16103, 5, 3, 31)
PLANAR_RATIONAL = _seeded_rational_sites(16104, 6, 2, 97)
SPATIAL_RATIONAL = _seeded_rational_sites(16105, 5, 3, 31)
GLUED = {
    "spatial11_8": _seeded_sites(11, 8, 3, 97),
    "spatial11_10": _seeded_sites(11, 10, 3, 97),
    "spatial_rational8": _seeded_rational_sites(16106, 8, 3, 97),
    "planar5_18": _seeded_sites(5, 18, 2, 10**6),
}
# larger sets, each with its cover, where the face walk prunes: only O(n)
# of the non-empty H(J) have a non-empty closed face
PRUNED = {
    "planar5_40": (_seeded_sites(5, 40, 2, 10**6), "wide_cover"),
    "spatial11_14": (_seeded_sites(11, 14, 3, 97), "spatial97_cover"),
}
# E is not empty: the non-face H{1,4,8} lies on the bisector H{0,5}
EXCEPTIONAL = HIDDEN_CONTAINMENTS["random5_n10"]
# disjoint stage-1 lines meet outside every earlier center: exit 2
CROSSING = HIDDEN_CONTAINMENTS["crossing_axes"]

FILES = {
    "triangle": _sites_json(2, [[0, 0], [1, 0], [0, 1]]),
    "square": _sites_json(2, [[0, 0], [1, 0], [0, 1], [1, 1]]),
    "strip": _sites_json(2, [[0, 0], [2, 1], [4, 0], [2, -2]]),
    "ring": _sites_json(2, [[0, 0], [2, 0], [0, 3], [F(-5, 2), 0], [0, F(-7, 4)]]),
    "region": _region_json([[[0, 0], [1, 0], [0, 1]]]),
    "planar": _sites_json(2, PLANAR),
    "planar_cover": _cover(2, 97),
    "planar_degenerate": _degenerate(PLANAR),
    "wide": _sites_json(2, PLANAR_WIDE),
    "wide_cover": _cover(2, 10**6),
    "wide_degenerate": _degenerate(PLANAR_WIDE),
    "spatial": _sites_json(3, SPATIAL),
    "spatial_cover": _cover(3, 31),
    "spatial_degenerate": _degenerate(SPATIAL),
    "planar_rational": _sites_json(2, PLANAR_RATIONAL),
    "spatial_rational": _sites_json(3, SPATIAL_RATIONAL),
    **{name: _sites_json(len(pts[0]), pts) for name, pts in GLUED.items()},
    **{name: _sites_json(len(pts[0]), pts) for name, (pts, _) in PRUNED.items()},
    "spatial97_cover": _cover(3, 97),
    "exceptional": _sites_json(EXCEPTIONAL.dim, EXCEPTIONAL.sites),
    "crossing": _sites_json(CROSSING.dim, CROSSING.sites),
    "simplex2": from_simplices([(0, 1, 2)]).to_json_dict(),
    "simplex3": from_simplices([(0, 1, 2, 3)]).to_json_dict(),
    "node": {"I": [1, 2], "m": 1, "F": []},
    "cascade": {"I": [1, 2], "m": 2, "F": []},
    "heavy": {"I": [1, 2, 3], "m": 1, "F": [[10, 2], [11, 1]]},
    "deep": {"I": [1, 2, 3], "m": 3, "F": []},
    "box_roots": {"roots": [{"I": [1, 2, 3], "m": 2, "F": []},
                            {"I": [1, 2], "m": 0, "F": [[10, 1], [11, 1]]},
                            {"I": [1, 2, 3, 4], "m": 1, "F": [[10, 3]]},
                            {"I": [1, 2, 3, 4], "m": 2, "F": []}]},
}


# Delta-complexes for the homology commands, as raw cell lists where the
# faces repeat or cancel
COMPLEXES = {
    **{name: k.to_json_dict() for name, k in NAMED_COMPLEXES.items()},
    "two_points": from_simplices([(0,), (1,)]).to_json_dict(),
    "two_loops_at_0": {"cells": [[None, None], [[0, 0], [0, 0], [1, 0]]]},
    "theta": {"cells": [[None, None], [[1, 0], [1, 0], [0, 1]]]},
    "repeated_faces_z3": {"cells": [[None], [[0, 0], [0, 0]], [[0, 1, 0], [1, 0, 1]]]},
    "cancelling_face": {"cells": [[None] * 2, [[1, 0], [0, 0]], [[0, 0, 1]]]},
    "nonzero_composite": {"cells": [[None] * 3, [[1, 0], [2, 0], [2, 1]],
                                    [[2, 1, 0], [0, 0, 1]]]},
    **{f"boundary_delta_{n}": from_simplices(combinations(range(n + 1), n)).to_json_dict()
       for n in (6, 7, 8)},
    "suspended_rp2": from_simplices(suspension(RP2_FACES, 7, 8)).to_json_dict(),
    "double_suspended_rp2":
        from_simplices(suspension(suspension(RP2_FACES, 7, 8), 9, 10)).to_json_dict(),
    "random_3d_16107": from_simplices(random_pure_3d(16107, 12, 40)).to_json_dict(),
}
# (connected complexes only) their simplified pi_1 presentations
PRESENTATIONS = {
    **{f"pi1_{name}": pi1_presentation(k).simplified().to_json_dict()
       for name, k in NAMED_COMPLEXES.items()},
    "pi1_suspended_rp2":
        pi1_presentation(from_simplices(suspension(RP2_FACES, 7, 8))).simplified().to_json_dict(),
    "higman": higman_presentation().to_json_dict(),
    "sl2z": sl2z_presentation().to_json_dict(),
    "commutator": {"generators": 2, "relators": [[1, 2, -1, -2]]},
    "z2": {"generators": 1, "relators": [[1, 1]]},
    "free_1": {"generators": 1, "relators": []},
    "trivial": {"generators": 0, "relators": []},
    "letter_out_of_range": {"generators": 2, "relators": [[1, 3]]},
    "letter_zero": {"generators": 2, "relators": [[1, 0]]},
    "letter_bool": {"generators": 2, "relators": [[1, True]]},
    "letter_float": {"generators": 2, "relators": [[1.0]]},
    "relator_not_a_list": {"generators": 2, "relators": [1]},
    "negative_generators": {"generators": -1, "relators": []},
}
FILES.update(COMPLEXES)
FILES.update(PRESENTATIONS)


def _commands():
    """(case id, argv) with input names standing for their files."""
    fixtures = [(s, "region") for s in ("triangle", "square", "strip", "ring")]
    seeded = [(s, f"{s}_{r}") for s in ("planar", "wide", "spatial")
              for r in ("cover", "degenerate")]
    out = []
    for sites in ("triangle", "square", "strip", "ring", "planar", "wide", "spatial"):
        out.append((f"build-json-{sites}", ["voronoi", "build", sites]))
        out.append((f"build-text-{sites}", ["--format", "text", "voronoi", "build", sites]))
    for sites in ("planar_rational", "spatial_rational"):
        out.append((f"build-json-{sites}", ["voronoi", "build", sites]))
    for sites, region in fixtures + seeded:
        complex_ = "simplex3" if sites == "spatial" else "simplex2"
        out.append((f"select-{sites}-{region}",
                    ["voronoi", "select", sites, "--region", region]))
        out.append((f"snc-{sites}-{region}", ["snc", "build", sites, "--region", region]))
        out.append((f"pipeline-{sites}-{region}", ["pipeline", complex_, sites, region]))
    for sites, cell in (("triangle", 0), ("strip", 1), ("ring", 0), ("planar", 2),
                        ("spatial", 4)):
        out.append((f"classify-json-{sites}-{cell}",
                    ["voronoi", "classify", sites, "--cell", str(cell)]))
        out.append((f"classify-text-{sites}-{cell}",
                    ["--format", "text", "voronoi", "classify", sites, "--cell", str(cell)]))
    for sites, select in (("triangle", "0,1,2"), ("strip", "0,1,2"), ("ring", "1,2,3,4"),
                          ("planar", "0,2,3,5"), ("spatial", "1,3"), ("square", "0,1")):
        out.append((f"delaunay-{sites}-{select}",
                    ["voronoi", "delaunay", sites, "--select", select]))
    for sites, (_, cover) in PRUNED.items():
        for action in ("build", "simple", "delaunay"):
            out.append((f"voronoi-{action}-{sites}", ["voronoi", action, sites]))
        out.append((f"select-{sites}-{cover}", ["voronoi", "select", sites, "--region", cover]))
    for sites in GLUED:
        out.append((f"snc-build-{sites}", ["snc", "build", sites]))
        out.append((f"snc-dual-{sites}", ["snc", "dual", sites]))
    out.append(("snc-build-exceptional", ["snc", "build", "exceptional"]))
    out.append(("classify-json-exceptional-1", ["voronoi", "classify", "exceptional", "--cell", "1"]))
    out.append(("snc-build-crossing", ["snc", "build", "crossing"]))
    for roots in ("node", "cascade", "heavy", "deep", "box_roots"):
        out.append((f"resolve-{roots}", ["resolve", "run", roots]))
    out.append(("resolve-box_roots-seed", ["resolve", "run", "box_roots", "--seed", "7"]))
    out.append(("resolve-text-heavy", ["--format", "text", "resolve", "run", "heavy"]))
    for name in COMPLEXES:
        out.append((f"homology-{name}", ["homology", name]))
        out.append((f"homology-dim1-{name}", ["homology", name, "--dim", "1"]))
        out.append((f"pi1-{name}", ["pi1", name]))
        out.append((f"check-q-acyclic-{name}", ["check", "q-acyclic", name]))
    out.append(("homology-dim5-torus", ["homology", "torus", "--dim", "5"]))
    out.append(("homology-text-rp2", ["--format", "text", "homology", "rp2"]))
    out.append(("pi1-basepoint-rp2", ["pi1", "rp2", "--basepoint", "3"]))
    for name in PRESENTATIONS:
        out.append((f"check-q-perfect-{name}", ["check", "q-perfect", name]))
        out.append((f"check-q-superperfect-{name}", ["check", "q-superperfect", name]))
    return out


COMMANDS = _commands()

# (sha256 of stdout, exit code)
GOLDEN = {
    "build-json-triangle": ("2d370209240766ec28268e213fd5dcf74b9a7871d6b4201a445df06cf7f43e34", 0),
    "build-text-triangle": ("c9d9e00d6f914e87d18b3eeaeb79fc509bc60d95120f8251d43520b2901532da", 0),
    "build-json-square": ("cb85156629f3238c2777f5344e0ed9655abfca8062d3c3782443198ba0e7577f", 0),
    "build-text-square": ("6026ef1b062564227b823dc77da522accd3f0714fa84306409b4da72b0b27f12", 0),
    "build-json-strip": ("e3ad0c432d38e2f63b81f984abc8413177ba3ab603e7ef3cc3901f8db9749e00", 0),
    "build-text-strip": ("9d594560d3524641a91cd558980507a5d0580c91ecb0d11469e0769a989c57c2", 0),
    "build-json-ring": ("bfb3fa6f059b4acde564fbb440ea0a918720af4a7a6975633ee1f3c895def483", 0),
    "build-text-ring": ("a6f152248140438507bf67a4e2cfce257e218e61cbe011f47ab7ebbefb767172", 0),
    "build-json-planar": ("4fe90eb0cbe664c4a73a0c6ce209a498a26c7321bf3c854d45ccf19605138edd", 0),
    "build-text-planar": ("99347b3e63cb53c47fe5a146abe3ae7139f3962d8015f6d2cb39d08b42eed7a7", 0),
    "build-json-wide": ("7e74eb155274a750a2a82d5af115974e7501c66e1df412f5b2f1cc0dde60ead7", 0),
    "build-text-wide": ("e8f6d34cb0d568cfe99ac975751a6854c92e4a988fd9652e258dfdf718738111", 0),
    "build-json-spatial": ("3ba7f376f7af7f6aa37e82814ac17d458fea55b70422c7b13f0851632b6eb5f5", 0),
    "build-text-spatial": ("c11308eff2de438414880837d42ed01f77b34b07cb6d3b73a83111fc767b539c", 0),
    "build-json-planar_rational": ("208b91673769158085153b55755f0435218212515cc4389fa3184341d243376d", 0),
    "build-json-spatial_rational": ("c8758b9269be14345b9e7385c8caf7e05e35c321ee85e249d14586ce59c321a9", 0),
    "select-triangle-region": ("7b35a5a42f11be2ea281946143ed502d4b1eda6c16052e4edefddb2da62db8ee", 0),
    "snc-triangle-region": ("25e72c4bf51277afbe5bfffc48c239a594a266735c930619858916f0ff390239", 0),
    "pipeline-triangle-region": ("9f882f02c04c3e8cbf3d87831f8b1c6d5de092978624270b393e7324291c28ff", 0),
    "select-square-region": ("1ed0d4515013d903715894be609319297e79ab80d1c494a646943e341761d3f8", 0),
    "snc-square-region": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "pipeline-square-region": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "select-strip-region": ("1ce320e4892f9554fdb52ea074047f6696fcf669b8ff78092d86a059c278370f", 0),
    "snc-strip-region": ("6635b55bbf2eabb046cc90acff8a8f6642b45043567ea28b67ef9205080dcbd9", 0),
    "pipeline-strip-region": ("9b8fab5598aedd94c6b03567ae82d9f2c242db24a36f53c3076cff443802a5c8", 1),
    "select-ring-region": ("1876fcd628413483f7a0bc7265e2fce4450f552879ffa6aff1d6d4428395a49f", 0),
    "snc-ring-region": ("a404410fcca67baf046aeeb0f167966447be54986ccdc9c47cd895e749ed361d", 0),
    "pipeline-ring-region": ("251323df28992971b86d868f10e78c8f04574e164bdd913bee8ccac29935825e", 1),
    "select-planar-planar_cover": ("50a050f68889e2fd00967698559ae70a246ddfda814ec20da5fcd42e21b55f23", 0),
    "snc-planar-planar_cover": ("7e1ccb5caa500724ddd2e64ebf8d7487aa9469e0bd55d2fe462311c62bd2ffdb", 0),
    "pipeline-planar-planar_cover": ("206b56704573a1c2797c60a118b984864cc9de442b6649b965b0e230dfa80043", 0),
    "select-planar-planar_degenerate": ("1ed0d4515013d903715894be609319297e79ab80d1c494a646943e341761d3f8", 0),
    "snc-planar-planar_degenerate": ("ce96c9bd15c7a7ced39b68a64fda2856e66cf073b50549b808cd3839302ad813", 0),
    "pipeline-planar-planar_degenerate": ("a5d2c82dfee3ef43824da17ad571167d5993a0342b3219338d498f50efe36cdb", 0),
    "select-wide-wide_cover": ("a37dcda6cf95d0c4726da1cb3bf446272dbbf69a658924974d6fd4e4294d784e", 0),
    "snc-wide-wide_cover": ("4874b87729751ff11453eea6bb5314c70be643e5ba1dd64e9830658f62ee0321", 0),
    "pipeline-wide-wide_cover": ("41b45ba960306032016a0447395260aff17f128a5a75c7aca87c6035fcb64ac2", 0),
    "select-wide-wide_degenerate": ("7c39ac79eaf6c748936cc589afbf5372a9d8d23d7b9b9d2ad221dcdc3df30a27", 0),
    "snc-wide-wide_degenerate": ("afca45beabea4c3e22b2fc9c116db4907fa93e388ba8c65311bd0ad3190a1519", 0),
    "pipeline-wide-wide_degenerate": ("335d00c642d17c3d7774430151307d434ecfd176f6c0dc4bf717c96d337bf86f", 0),
    "select-spatial-spatial_cover": ("a37dcda6cf95d0c4726da1cb3bf446272dbbf69a658924974d6fd4e4294d784e", 0),
    "snc-spatial-spatial_cover": ("e0ea07d86b7fe24bbde59f98f93f460ce95d28bc0786cf224dace930bb076530", 0),
    "pipeline-spatial-spatial_cover": ("6e3b1f3a7a9fdbe15b79bf5f3db6a65a2d30230429f28f9c6db6b053f3e47a42", 0),
    "select-spatial-spatial_degenerate": ("7b35a5a42f11be2ea281946143ed502d4b1eda6c16052e4edefddb2da62db8ee", 0),
    "snc-spatial-spatial_degenerate": ("337b44847ecf81e1f0e34d8522ddc7bb22e46899756af67aece527c4e14783ef", 0),
    "pipeline-spatial-spatial_degenerate": ("6a90860dc5702a44f813b0becb54e6d8f60c9a6c098552839864bfb1f1493412", 1),
    "classify-json-triangle-0": ("392667024e58603d747279765b2542cf769a37321c5841e4a79b8f2d21fcec0d", 0),
    "classify-text-triangle-0": ("411e3ea5e010583db17c0b8b57fdf83d10bfd377a9759056ed8fb52532c846e7", 0),
    "classify-json-strip-1": ("0fa457789d7cca0ee78a3f08a156ae9f10346a9c9e137611007a14b626558bcc", 0),
    "classify-text-strip-1": ("fa1408dbbe0c7b754a6713067ff24cc2b20e38b678ad717f07dbf514f6bfc340", 0),
    "classify-json-ring-0": ("d9d17f097db9664d4ff245b3b383ae549986c5095bf67cb9f037b4476a3751ea", 0),
    "classify-text-ring-0": ("28cf5aaa17035a69b4059dc242f8b11d2e7785ff3e91d4329ca0bb2b7f973ba0", 0),
    "classify-json-planar-2": ("ed1dc7365d22d37051a5ebca0782c270f088ff94e2260149ee642e0ce45a2be6", 0),
    "classify-text-planar-2": ("f1a7532e4ef1c96becdcb6d4496e92848efdf56756d41d2842d5d7e31a120944", 0),
    "classify-json-spatial-4": ("707fba4534960c2f36f28863305416069bae93cf9cf42d2bfa41d63d049ae8fa", 0),
    "classify-text-spatial-4": ("e2023ef74ebefd8065dba49a5f82f7836bc5cd13b956377acdc3909e6891b8ca", 0),
    "delaunay-triangle-0,1,2": ("5a75a18bd9115a58dbd31546a97a05b5f8d09cb2138ac04b65172daf42221c02", 0),
    "delaunay-strip-0,1,2": ("8162e9e4e57601cf5dffb1b032603449463986c54a7fcb65da271d0d23425fa0", 0),
    "delaunay-ring-1,2,3,4": ("753ae56bedca5921eb6a027043938fc197d2fab5aa2e73d64820c96e92c123be", 0),
    "delaunay-planar-0,2,3,5": ("b1e5ddbfb04403fc0dc2fdc2ffee9319cd1d4fa1ad926ed0e5e292f6c06b6b8b", 0),
    "delaunay-spatial-1,3": ("05255b984ee062754ab299c8f396fc3078b697c77d4a299ca694c44ff4246b39", 0),
    "delaunay-square-0,1": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "voronoi-build-planar5_40": ("37d8e16aa30dd6354635019e795ae9ae6200cd25ebe5d7303e557d2d85287a12", 0),
    "voronoi-simple-planar5_40": ("9e54914bb8d5aeab687ab0d0f007fa343aad3e9e61896865a33e2bfe34c283fe", 0),
    "voronoi-delaunay-planar5_40": ("97738f20a85a7d0466dfcef9405b12fd85fb18180d676c16b5f84acdd5b7d22e", 0),
    "select-planar5_40-wide_cover": ("93d74745879e757c923fad2e84cb5d0f36d939b4f1d0776c156200bba21ec06a", 0),
    "voronoi-build-spatial11_14": ("5483664459b583269b4bac30735e571a3535877a24b175cd95df0659b079dd77", 0),
    "voronoi-simple-spatial11_14": ("9e54914bb8d5aeab687ab0d0f007fa343aad3e9e61896865a33e2bfe34c283fe", 0),
    "voronoi-delaunay-spatial11_14": ("0602a900219e927e1e3bc5d4cc4324dfc06b7e738008126941b5ff077135de75", 0),
    "select-spatial11_14-spatial97_cover": ("24ea9c2c1f61d64e7811ab101cdc072d9f0e7c58267fa1e5296b2063681ff2e1", 0),
    "snc-build-spatial11_8": ("217b57db81b84aad6d29604fe66b77ea73992beba845efde980d2cc50512709e", 0),
    "snc-dual-spatial11_8": ("c4de312183bcb8f29eff58531e9a3ec67816e4ce57593f951d906e516cf87e42", 0),
    "snc-build-spatial11_10": ("fb70411504869be095c4ca415af247c4b91b648cca2af2ac0a96ed3158698808", 0),
    "snc-dual-spatial11_10": ("0d3d55933e51c7e1e8cfbe405b7c8934bbbef709b7c9c4a5ad07e9b5aa42f459", 0),
    "snc-build-spatial_rational8": ("0f21a2c9bc22214a5c832cc4a91b7f39c89f08aafe580b6e392a042d9cf43155", 0),
    "snc-dual-spatial_rational8": ("2f370421bc1fa4c54b991d78deece7dfbd6df14d007c0145c1b941fd9f085de4", 0),
    "snc-build-planar5_18": ("897b7fae8c1cb8d1f7fe46d7a087660e8affa40d215314f74abe25291724be9b", 0),
    "snc-dual-planar5_18": ("ce86200ef956675a39581d658e7eed2dc69db0ef283b5ca5259ac0baf3999578", 0),
    "snc-build-exceptional": ("11d69122524cb27ee0d80a9bce4243903cf60cfefc1e3e1f15d7d174b44f7567", 0),
    "classify-json-exceptional-1": ("596087dc37d9b0227369490d877464ecb6f327668c55a3067cfc95a95b0d1d34", 0),
    "snc-build-crossing": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "resolve-node": ("40f8567504cc4eeba90ae7123a6ab0575ad5234f3a8f02d056b864bda28e4249", 0),
    "resolve-cascade": ("dd81c5b271ba2ab2bd41482b8e562b9eb8f7add46941daf14cbc81b40d544c23", 0),
    "resolve-heavy": ("9d6156c6ce158f970f754ca0153232796fe8700d7a8de54dca66caeea1306daa", 0),
    "resolve-deep": ("1c983fc1f778087de125eb90531b089e3462998984b59084d4af8bb4d409632e", 0),
    "resolve-box_roots": ("142403571526bfb2591360dfbecaeb564f136d990107bab144ac737c22e5b9b1", 0),
    "resolve-box_roots-seed": ("821bd6c6d52bc5ff96db108f114c095b29ca481fac947f4aff9d282a277aa4b7", 0),
    "resolve-text-heavy": ("7f4523d01b44beb4a966731f90e5af98a65a7f8f79fe08942b12674ee75e76b1", 0),
    "homology-point": ("49d7ddfccf2d8007892379bfc26c9cfa2c3e0ca44be07e2bbb73d533d39acc06", 0),
    "homology-dim1-point": ("9dcf50ce2983fe494befb58d77d486b374a5a54fafb7f5128960015b250bcfbb", 0),
    "pi1-point": ("1468e4636a69d0eda09bfe3bf7f3a51ab3bcceed46fb94fc8082b82451b69a6f", 0),
    "check-q-acyclic-point": ("110ae39ed423800cb822fab9a326873e04eb80ba618c254e8be9386e557c35eb", 0),
    "homology-circle": ("e519923d620cbb8c06368e0c1f15f3ef27ecb07aa0dc9a3d62d69d008b866154", 0),
    "homology-dim1-circle": ("3aa748248501c7e09f4c4c736c3d376837d2a2d5364d5483974a95628a620afd", 0),
    "pi1-circle": ("ad9e929d4fe327d740d843c8c0447818940e50ef918d9d4e040ebb5f3d3ea79f", 0),
    "check-q-acyclic-circle": ("4a4a86a72c9df9bd6e0466a328db2d93b4dc753ef1d252716518f0d9b50629c9", 1),
    "homology-full_2_simplex": ("bd86855d72c0ff9e8d6423bf239722eba088bb72777d3930ed3a142704907a5b", 0),
    "homology-dim1-full_2_simplex": ("826c65521baff10a2582e1533bd423f9ec847d6cadd8ffca23d587cba4c9d444", 0),
    "pi1-full_2_simplex": ("89007c0b00841a8af1df8abaeced1544e73141f2f024783271cf274605aafd80", 0),
    "check-q-acyclic-full_2_simplex": ("237de9c224e2895519e9a34bf6c0a089edba896658663eb13437da815bac7308", 0),
    "homology-sphere_2": ("4b37be151452f3840f01b3c4db15a993c042cd23c63700ff026d27ef379f2057", 0),
    "homology-dim1-sphere_2": ("c341811f9c630951fa4f1434185d153f79c6c04e40299958ab04fdc60433fa8a", 0),
    "pi1-sphere_2": ("daa23f908856c3b0c35d4ce54da1c54022c6fbc750726418900a51568eadd6f5", 0),
    "check-q-acyclic-sphere_2": ("bd645f1942c7c41ef87c5c1bd2bd7b9430204557255d34c8ff14455d1c3500eb", 1),
    "homology-rp2": ("f3e323e6b886e797f7b4c1daa98d38fdd048859c7765f3e0d4501bc04b795a85", 0),
    "homology-dim1-rp2": ("844f36a9163514eb6ca5e863f252b2560e75f9df13021b540b8f42588f1aebe7", 0),
    "pi1-rp2": ("8e134fe5bc79221ed2d6ca78ab80123ad42abe544468daf54b96c4a8700d6d0b", 0),
    "check-q-acyclic-rp2": ("237de9c224e2895519e9a34bf6c0a089edba896658663eb13437da815bac7308", 0),
    "homology-torus": ("ffde66b357467769079263e47a7a69450593f89735894709c3daf3a7b3577857", 0),
    "homology-dim1-torus": ("5454623082f624e809303f0a0b7654b4c57f1cff67644c903f8f2e9824558a8d", 0),
    "pi1-torus": ("114febc73e636ce15fa1d9811649cbc3d11aa0d9ce569a819c12387b5cd3911a", 0),
    "check-q-acyclic-torus": ("88b33ac8d503873bd35c66bf6433a783d4b4393be3f1756791daa245b47dba58", 1),
    "homology-two_points": ("a603a0384cb215b02bc361242df089bbbea7a11e4109a8a33e23c69133e88376", 0),
    "homology-dim1-two_points": ("711f0ba9c4fd32dab7b731f23f26162ece57e3e92773e82c7f16090367726537", 0),
    "pi1-two_points": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-acyclic-two_points": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "homology-two_loops_at_0": ("8ae8e897bfa08822b5bd5449d6f2798587d6e8a1652f4d59b713a30457bd9855", 0),
    "homology-dim1-two_loops_at_0": ("5825596eaea8475bb149463614010ff561914774b92f96954165ca22e373de9f", 0),
    "pi1-two_loops_at_0": ("2eae7e4ba53aedd3cbc060ca435e5fdf7fd74239065242d49e089297b53a5bf9", 0),
    "check-q-acyclic-two_loops_at_0": ("8a1682bc79b34083b8e0fb735566f70911ad44d47f0d87035da5466a431978c7", 1),
    "homology-theta": ("8ae8e897bfa08822b5bd5449d6f2798587d6e8a1652f4d59b713a30457bd9855", 0),
    "homology-dim1-theta": ("5825596eaea8475bb149463614010ff561914774b92f96954165ca22e373de9f", 0),
    "pi1-theta": ("2eae7e4ba53aedd3cbc060ca435e5fdf7fd74239065242d49e089297b53a5bf9", 0),
    "check-q-acyclic-theta": ("8a1682bc79b34083b8e0fb735566f70911ad44d47f0d87035da5466a431978c7", 1),
    "homology-repeated_faces_z3": ("16e9908ac2130027c44650fbee0747d46164b562723ff6999eaec3b236f3ca89", 0),
    "homology-dim1-repeated_faces_z3": ("1865731ccd4f0ddfa5ccd467d47fb614caf7acbaad722078de6a6be268ec6708", 0),
    "pi1-repeated_faces_z3": ("ae305568dda23c6ea0897906d61768be9638d5e42f8c705e8542b248126326f1", 0),
    "check-q-acyclic-repeated_faces_z3": ("237de9c224e2895519e9a34bf6c0a089edba896658663eb13437da815bac7308", 0),
    "homology-cancelling_face": ("23bae15d54e956a51fd9211975024ce57e8076625274774ba05367af17bbafc8", 0),
    "homology-dim1-cancelling_face": ("db0025dbf48b10b0f6b103811836fee6b856b05da9b94772bff13eb7612b57b5", 0),
    "pi1-cancelling_face": ("89007c0b00841a8af1df8abaeced1544e73141f2f024783271cf274605aafd80", 0),
    "check-q-acyclic-cancelling_face": ("237de9c224e2895519e9a34bf6c0a089edba896658663eb13437da815bac7308", 0),
    "homology-nonzero_composite": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "homology-dim1-nonzero_composite": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "pi1-nonzero_composite": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-acyclic-nonzero_composite": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "homology-boundary_delta_6": ("07dc173c98f4ae2ac118ee05b05218080bc9ebe9f520daa3b0b8eece4fe253d1", 0),
    "homology-dim1-boundary_delta_6": ("0252f452ed0bf93fd570942135317f4650fe73ec4d4e29464fd0acebd8f08e47", 0),
    "pi1-boundary_delta_6": ("7a9365787f4f709489aa023a1fdea1017c3b1fb8f9b15b2547f966a48d7855a1", 0),
    "check-q-acyclic-boundary_delta_6": ("ddb3058a17dd061e3d861b64c7b177745c4e056e4eeca6c340a600aaeafe56fd", 1),
    "homology-boundary_delta_7": ("812f70be7312b0b2a5c0d5ebce992b6cd398dc4209d425d3275915dee99dd59b", 0),
    "homology-dim1-boundary_delta_7": ("173f66930235a504639f1e61f9d750efcc72fc956d35618efb6bf88571f86b79", 0),
    "pi1-boundary_delta_7": ("b794cfae28ca45e8a64eff0e708948cb72e829a3fcabdb39e346e23e8369ae8d", 0),
    "check-q-acyclic-boundary_delta_7": ("40ad2a4d7b6d7ae225970b6da43b35c47e000a3f3150c20f516c9dcae765a0cb", 1),
    "homology-boundary_delta_8": ("2913521a9a04585e2e195e10b3af1c84fd2fe27cdbf8351906eeee6ceb70cc15", 0),
    "homology-dim1-boundary_delta_8": ("cfd976b9ab687a82350a115565bbf5a4daad6e4b764bb2053ce04e59d9e417e4", 0),
    "pi1-boundary_delta_8": ("9f8b9b87e060c49df9e1affcbc6641d4565bcd33fbd65d2d8a983999f398d293", 0),
    "check-q-acyclic-boundary_delta_8": ("9ae799034e9381031834a7eda4f1836d56b7a0a6ab7452352723d7ded2740d9d", 1),
    "homology-suspended_rp2": ("4e64e6a9f660a56b319ffd0c7c1a650a0d4cc672846f278c3b52d676d6a1616e", 0),
    "homology-dim1-suspended_rp2": ("fa93eff147132b3e4fd5528ad08b2d6acd3ccceab6389ad887afeddfb4f11e1d", 0),
    "pi1-suspended_rp2": ("36992fc830ca83394792772f63dcbe90770986ac32c3db6e781f4c021ee9e644", 0),
    "check-q-acyclic-suspended_rp2": ("491b4307e01fbfce8f4bf3299ec977567b19166d415766ad71284cb88c85b947", 0),
    "homology-double_suspended_rp2": ("d366936a4a8eaf829ce3a935100aac9905375acef75bf409af9cdd140d80143a", 0),
    "homology-dim1-double_suspended_rp2": ("be83317ec5024905ca89d1840f9577650e27aa5b6d84500c11b9971670d4ca5b", 0),
    "pi1-double_suspended_rp2": ("585d36478e0797a3f82a55b09b68e775274830b10d13f6772f01408c089ac871", 0),
    "check-q-acyclic-double_suspended_rp2": ("074f0e3b46b0e7a417759f38913edc0775b4c636a0f9261607e84ce956e71dee", 0),
    "homology-random_3d_16107": ("7c0038c0f5753944faf8402165102e0e8ab5a2d134639a8b25ddddd56da7e70e", 0),
    "homology-dim1-random_3d_16107": ("e280c0c8d272772d5c52545f13e975df9f286a3076075efd004e33e7f2def552", 0),
    "pi1-random_3d_16107": ("ba22275d37832bb6c8d356af2065f3f4356b37e9ed13d2311bfc6e338d31a2ce", 0),
    "check-q-acyclic-random_3d_16107": ("7329f95c4400aeef8db58969d6f1fce9e7582daaffadc89aa5c9206b7e236c7d", 1),
    "homology-dim5-torus": ("86457b18c742433b78d751f67ba0c6671a599c44982fa97c2f7d55a0bed5fbe5", 0),
    "homology-text-rp2": ("a56cef76fde01e251e13b6f11037aa7972e2488448d2304c36871388a80e1ca3", 0),
    "pi1-basepoint-rp2": ("8602cd096799b2d96f560f73cf4d3ba64019475500bf9a6ea54251cac0e8ba32", 0),
    "check-q-perfect-pi1_point": ("1d006ce46623319620b206227029d7e5b82347f282468c5143d1b9cf9895f18f", 0),
    "check-q-superperfect-pi1_point": ("88e7bcc48a12387e63daec9f702bfd094221f39db98d6bf398cf407be32259bd", 0),
    "check-q-perfect-pi1_circle": ("da2db47e96952bd942f31c294f536fbf503355fdf7819d4d61015e5d00405da0", 1),
    "check-q-superperfect-pi1_circle": ("849e74b63254b14d9f5c6eb77152be32d3b47fe32191bfe1db64cabd0658dbe4", 1),
    "check-q-perfect-pi1_full_2_simplex": ("1d006ce46623319620b206227029d7e5b82347f282468c5143d1b9cf9895f18f", 0),
    "check-q-superperfect-pi1_full_2_simplex": ("88e7bcc48a12387e63daec9f702bfd094221f39db98d6bf398cf407be32259bd", 0),
    "check-q-perfect-pi1_sphere_2": ("1d006ce46623319620b206227029d7e5b82347f282468c5143d1b9cf9895f18f", 0),
    "check-q-superperfect-pi1_sphere_2": ("849e74b63254b14d9f5c6eb77152be32d3b47fe32191bfe1db64cabd0658dbe4", 1),
    "check-q-perfect-pi1_rp2": ("152af36d5c6d03a7ca0dc82ec216cb5386090ac9b75468c09c3f0513dcd12a0b", 0),
    "check-q-superperfect-pi1_rp2": ("88e7bcc48a12387e63daec9f702bfd094221f39db98d6bf398cf407be32259bd", 0),
    "check-q-perfect-pi1_torus": ("b8eba90a226e26690740788d00e896c8d8833b2331381ab5f0a599c58106beb2", 1),
    "check-q-superperfect-pi1_torus": ("849e74b63254b14d9f5c6eb77152be32d3b47fe32191bfe1db64cabd0658dbe4", 1),
    "check-q-perfect-pi1_suspended_rp2": ("1d006ce46623319620b206227029d7e5b82347f282468c5143d1b9cf9895f18f", 0),
    "check-q-superperfect-pi1_suspended_rp2": ("849e74b63254b14d9f5c6eb77152be32d3b47fe32191bfe1db64cabd0658dbe4", 1),
    "check-q-perfect-higman": ("1d006ce46623319620b206227029d7e5b82347f282468c5143d1b9cf9895f18f", 0),
    "check-q-superperfect-higman": ("88e7bcc48a12387e63daec9f702bfd094221f39db98d6bf398cf407be32259bd", 0),
    "check-q-perfect-sl2z": ("53cb04c254b6dad0db449a5b2b9a20bdf41587f2d7ff3720f331f3740b46abbd", 0),
    "check-q-superperfect-sl2z": ("88e7bcc48a12387e63daec9f702bfd094221f39db98d6bf398cf407be32259bd", 0),
    "check-q-perfect-commutator": ("b8eba90a226e26690740788d00e896c8d8833b2331381ab5f0a599c58106beb2", 1),
    "check-q-superperfect-commutator": ("849e74b63254b14d9f5c6eb77152be32d3b47fe32191bfe1db64cabd0658dbe4", 1),
    "check-q-perfect-z2": ("152af36d5c6d03a7ca0dc82ec216cb5386090ac9b75468c09c3f0513dcd12a0b", 0),
    "check-q-superperfect-z2": ("88e7bcc48a12387e63daec9f702bfd094221f39db98d6bf398cf407be32259bd", 0),
    "check-q-perfect-free_1": ("da2db47e96952bd942f31c294f536fbf503355fdf7819d4d61015e5d00405da0", 1),
    "check-q-superperfect-free_1": ("849e74b63254b14d9f5c6eb77152be32d3b47fe32191bfe1db64cabd0658dbe4", 1),
    "check-q-perfect-trivial": ("1d006ce46623319620b206227029d7e5b82347f282468c5143d1b9cf9895f18f", 0),
    "check-q-superperfect-trivial": ("88e7bcc48a12387e63daec9f702bfd094221f39db98d6bf398cf407be32259bd", 0),
    "check-q-perfect-letter_out_of_range": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-superperfect-letter_out_of_range": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-perfect-letter_zero": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-superperfect-letter_zero": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-perfect-letter_bool": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-superperfect-letter_bool": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-perfect-letter_float": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-superperfect-letter_float": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-perfect-relator_not_a_list": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-superperfect-relator_not_a_list": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-perfect-negative_generators": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check-q-superperfect-negative_generators": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, payload in FILES.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        out[name] = str(path)
    return out


def run_digest(argv, paths, capsys):
    code = main([paths.get(token, token) for token in argv])
    stdout = capsys.readouterr().out
    return hashlib.sha256(stdout.encode()).hexdigest(), code


@pytest.mark.parametrize("case, argv", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_cli_stdout_matches_golden_digest(case, argv, paths, capsys):
    assert run_digest(argv, paths, capsys) == GOLDEN[case]


def golden_models():
    """The glued model of each `snc build` and `pipeline` case that builds
    one, from the same sites and region (every cell without one)."""
    models = {}
    for case, argv in COMMANDS:
        if argv[:2] == ["snc", "build"]:
            sites, region = argv[2], argv[4] if "--region" in argv else None
        elif argv[0] == "pipeline":
            sites, region = argv[2], argv[3]
        else:
            continue
        data = FILES[sites]
        vc = voronoi_complex(SiteSet.build(data["dim"], data["sites"]))
        selection = (vc.cell_indices() if region is None
                     else select_subcomplex(vc, region_from_json_dict(FILES[region])))
        try:
            models[case] = build_snc(vc, selection)
        except ValueError:  # refused, as the case's exit code 2 records
            assert GOLDEN[case][1] == 2, case
    return models


def test_embedded_roots_are_the_checked_models():
    models = golden_models()
    assert len(models) > 20
    for case, model in models.items():
        n = model.dim + 1
        want = [LocalModel.build(sorted(s.key), m)
                for s in sorted(model.strata, key=lambda s: (len(s.key), sorted(s.key)))
                for m in range(n + 1) if m * m <= n - len(s.key)]
        roots = embed_snc(model)
        assert roots == want, case
        for root, checked in zip(roots, want):
            assert hash(root) == hash(checked), case
            assert root.mdeg() == checked.mdeg(), case
            assert root.to_json_dict() == checked.to_json_dict(), case


def test_pipeline_h1_is_the_abelianized_pi1(paths, capsys):
    # the pipeline reads each stage's H_1 off its homology; by Hurewicz it
    # is the abelianization of the stage's pi_1 presentation, checked on
    # every pipeline case the golden digests pin
    checked = 0
    for case, argv in COMMANDS:
        if argv[0] != "pipeline":
            continue
        _, complex_, sites, region = argv
        code = main([paths.get(token, token) for token in argv])
        out = capsys.readouterr().out
        if code == 2:  # refused before any stage is profiled
            assert GOLDEN[case][1] == 2, case
            continue
        data = FILES[sites]
        vc = voronoi_complex(SiteSet.build(data["dim"], data["sites"]))
        selection = select_subcomplex(vc, region_from_json_dict(FILES[region]))
        dual = delaunay_dual(vc, selection)
        model = build_snc(vc, selection)
        stages = {
            "input": complex_from_json_dict(FILES[complex_]),
            "delaunay": dual,
            "snc": dual_complex(model, dual),
            "final": resolve(embed_snc(model)).nerve_complex(),
        }
        report = json.loads(out)
        for stage, k in stages.items():
            h1 = abelianization(pi1_presentation(k))
            assert report[stage]["h1"] == {"rank": h1.rank, "torsion": list(h1.torsion)}, (
                case, stage)
        checked += 1
    assert checked == 9
