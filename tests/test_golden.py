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
degree box, with and without a seed.

A change that alters any of these outputs on purpose records the new
digest here and says so in CHANGES.md.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from corpus import HIDDEN_CONTAINMENTS
from snclab.cli import main
from snclab.complexes import from_simplices


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
