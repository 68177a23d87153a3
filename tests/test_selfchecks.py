"""Each gluing self-check fires, through `cli.main`, on a corruption made
just upstream of it.

The ledger agreement (`snc._verify_ledger_match`) and the dual-vs-Delaunay
isomorphism (`snc.dual_complex`) cannot fail on the charts and strata that
`build_snc` makes, since both sides are read off the selection's faces.
So each test corrupts the object the check reads, with the engine function
that makes it wrapped, and asserts that the check refuses it with exit 1
and its message; the same run without the corruption exits 0.
"""

import dataclasses
import json

import pytest

from snclab import cli, snc
from snclab.cli import main

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
