"""Each gluing and classification self-check fires, through `cli.main`,
on a corruption made just upstream of it.

The ledger agreement (`snc._verify_ledger_match`) and the dual-vs-Delaunay
isomorphism (`snc.dual_complex`) cannot fail on the charts and strata that
`build_snc` makes, since both sides are read off the selection's faces.
So each test corrupts the object the check reads, with the engine function
that makes it wrapped, and asserts that the check refuses it with exit 1
and its message; the same run without the corruption exits 0.  The same
holds for the parasitic-parent check, the disjoint half of the
intersection closure and the stage check's overlapping branch.  The
overlapping half of the closure has no test: two overlapping parasitic
index sets that cover a star key (of three or more sites) lie below two
different minimal parasitic parents of it, so a corruption of the faces
or containments that reaches it trips the parasitic-parent check first.
"""

import dataclasses
import json

import pytest

from corpus import HIDDEN_CONTAINMENTS
from snclab import cli, snc
from snclab.cli import main
from snclab.voronoi import SubspaceArrangement

SITES = {
    "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
    "strip": [["0", "0"], ["2", "1"], ["4", "0"], ["2", "-2"]],
}


@pytest.fixture(params=sorted(SITES))
def sites(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps({"dim": 2, "sites": SITES[request.param]}))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ledger_agreement_fires_when_a_star_loses_a_glued_key(sites, capsys, monkeypatch):
    # cell 0's chart loses its largest face, a key that holds the glue key
    # {0, j} of every cell j it shares that face with
    assert run(["snc", "build", sites], capsys)[0] == 0
    blowup_ledger = snc.blowup_ledger

    def corrupted(vc, cell):
        faces = blowup_ledger(vc, cell)
        if cell:
            return faces
        lost = max(faces, key=len)
        assert len(lost) > 2 and any(frozenset((0, j)) in vc.faces for j in lost - {0})
        return tuple(f for f in faces if f != lost)

    monkeypatch.setattr(snc, "blowup_ledger", corrupted)
    code, out, err = run(["snc", "build", sites], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: check failed: ledgers of cells 0 and ")


def test_dual_isomorphism_fires_when_a_top_stratum_is_dropped(sites, capsys, monkeypatch):
    # the model loses the stratum of one Voronoi vertex, a top simplex of
    # the Delaunay dual, and keeps every other stratum
    assert run(["snc", "dual", sites], capsys)[0] == 0
    build_snc = cli.build_snc

    def corrupted(vc, selection):
        model = build_snc(vc, selection)
        top = min(model.strata, key=lambda s: s.dim)
        assert top.dim == 0
        return dataclasses.replace(model, strata=tuple(s for s in model.strata if s is not top))

    monkeypatch.setattr(cli, "build_snc", corrupted)
    code, out, err = run(["snc", "dual", sites], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: check failed: dual complex is not isomorphic")


def write_sites(tmp_path, name, dim, sites):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim": dim, "sites": [[str(c) for c in s] for s in sites]}))
    return str(path)


def test_parasitic_parent_check_fires_when_a_parent_is_not_seen(tmp_path, capsys, monkeypatch):
    # the triangle's vertex H[0, 1, 2] has one parasitic parent for cell 0,
    # the line H[1, 2]; the arrangement stops listing it among the index
    # sets whose subspace contains the vertex
    sites = write_sites(tmp_path, "triangle", 2, SITES["triangle"])
    assert run(["snc", "build", sites], capsys)[0] == 0
    containing = SubspaceArrangement.containing

    def corrupted(self, q):
        found = containing(self, q)
        return [j for j in found if j != {1, 2}] if q == {0, 1, 2} else found

    monkeypatch.setattr(SubspaceArrangement, "containing", corrupted)
    assert run(["snc", "build", sites], capsys) == (
        1, "", "error: check failed: essential H[0, 1, 2] of cell 0 has no unique minimal "
               "parasitic parent of dimension 1\n")


# the non-face H[1, 4, 8] lies on the bisector H[0, 5], so the arrangement
# has an exceptional set and the closure check meets disjoint pairs
EXCEPTIONAL = HIDDEN_CONTAINMENTS["random5_n10"]


def test_intersection_closure_fires_when_a_meet_is_misread(tmp_path, capsys, monkeypatch):
    # the meet of the parasitic lines H[0, 5] and H[1, 8] is the point
    # H[1, 4, 8]; the arrangement reads it as the edge H[1, 4] of cell 1
    sites = write_sites(tmp_path, "exceptional", EXCEPTIONAL.dim, EXCEPTIONAL.sites)
    assert run(["snc", "build", sites], capsys)[0] == 0
    lookup = SubspaceArrangement.lookup

    def corrupted(self, j1, j2):
        key = lookup(self, j1, j2)
        return frozenset({1, 4}) if key == {1, 4, 8} else key

    monkeypatch.setattr(SubspaceArrangement, "lookup", corrupted)
    assert run(["snc", "build", sites], capsys) == (
        1, "", "error: check failed: intersection of parasitic H[0, 5] and H[1, 8] equals "
               "essential H[1, 4]\n")


def test_stage_check_fires_when_overlapping_lines_lose_their_meet(tmp_path, capsys,
                                                                   monkeypatch):
    # two stage-1 lines that share two sites meet in a point, the earlier
    # center that covers their meet; the arrangement forgets every such cover
    sites = write_sites(tmp_path, "spatial", 3,
                        [[0, 0, 0], [4, 1, 0], [1, 5, 1], [0, 1, 6], [5, 5, 5]])
    assert run(["snc", "build", sites], capsys)[0] == 0
    meeting_pairs = SubspaceArrangement.meeting_pairs.func

    def corrupted(self):
        return tuple((a, b, dim, frozenset() if a & b else covers)
                     for a, b, dim, covers in meeting_pairs(self))

    monkeypatch.setattr(SubspaceArrangement, "meeting_pairs", property(corrupted))
    assert run(["snc", "build", sites], capsys) == (
        1, "", "error: check failed: stage-1 centers H[0, 1, 4] and H[0, 2, 4] of cell 0 "
               "overlap outside every earlier center\n")
