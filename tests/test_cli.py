"""Exit-code contract, JSON formats, and byte-stable reports."""

import json
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from corpus import seeded_sites
from snclab import cli, resolution, snc, voronoi
from snclab.cli import main, run_pipeline
from snclab.voronoi import VoronoiCheckError


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    return {
        "triangle": write(
            tmp_path, "tri.json", {"dim": 2, "sites": [["0", "0"], ["1", "0"], ["0", "1"]]}
        ),
        "square": write(
            tmp_path,
            "square.json",
            {"dim": 2, "sites": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
        ),
        "strip": write(
            tmp_path,
            "strip.json",
            {"dim": 2, "sites": [["0", "0"], ["2", "1"], ["4", "0"], ["2", "-2"]]},
        ),
        "circle": write(
            tmp_path,
            "circle.json",
            {"dim": 1, "cells": [[None, None, None], [[1, 0], [2, 1], [0, 2]]]},
        ),
        "simplex2": write(
            tmp_path,
            "simplex2.json",
            {"dim": 2, "cells": [[None, None, None], [[1, 0], [2, 0], [2, 1]], [[2, 1, 0]]]},
        ),
        "higman": write(
            tmp_path,
            "higman.json",
            {
                "generators": 4,
                "relators": [
                    [1, 1, 2, -1, -2],
                    [2, 2, 3, -2, -3],
                    [3, 3, 4, -3, -4],
                    [4, 4, 1, -4, -1],
                ],
            },
        ),
        "free": write(tmp_path, "free.json", {"generators": 1, "relators": []}),
        "sl2z": write(
            tmp_path,
            "sl2z.json",
            {"generators": 2, "relators": [[1, 1, 1, 1], [1, 1, -2, -2, -2]]},
        ),
        "node": write(tmp_path, "node.json", {"I": [1, 2], "m": 1, "F": []}),
        "cp2": write(tmp_path, "cp2.json", {"d": 2, "h": [1, 0, 1, 0, 1]}),
        "elliptic": write(tmp_path, "elliptic.json", {"d": 1, "h": [1, 2, 1]}),
        "feasible": write(tmp_path, "dec.json", {"k": 0, "c": {"3": 5}, "iM": 0}),
        "infeasible": write(
            tmp_path, "dec2.json", {"k": 0, "c": {"3": 1, "9": 1}, "iM": 0}
        ),
        "region": write(
            tmp_path,
            "region.json",
            {"simplices": [[["0", "0"], ["1", "0"], ["0", "1"]]]},
        ),
        "bad": write(tmp_path, "bad.json", {"dim": 2}),
        "tmp": tmp_path,
    }


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_check_q_perfect_higman(inputs, capsys):
    code, out = run_cli("check", "q-perfect", inputs["higman"], capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["abelianization"] == {"rank": 0, "torsion": []}


def test_check_q_perfect_false_exit_1(inputs, capsys):
    code, _ = run_cli("check", "q-perfect", inputs["free"], capsys=capsys)
    assert code == 1


def test_check_q_acyclic_circle_exit_1(inputs, capsys):
    code, out = run_cli("check", "q-acyclic", inputs["circle"], capsys=capsys)
    assert code == 1
    assert json.loads(out)["betti"] == [1, 1]


def test_check_q_superperfect_sl2z(inputs, capsys):
    code, out = run_cli("check", "q-superperfect", inputs["sl2z"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["state"] == "confirmed"


def test_homology_and_pi1(inputs, capsys):
    code, out = run_cli("homology", inputs["circle"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]
    code, out = run_cli("pi1", inputs["circle"], capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["presentation"]["generators"] == 1
    assert report["abelianization"]["rank"] == 1


def test_resolve_run_node(inputs, capsys):
    code, out = run_cli("resolve", "run", inputs["node"], capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["steps"]) == 1
    assert report["leaf_count"] == 2
    assert report["resolved"] is True


def test_seifert_cli(inputs, capsys):
    code, out = run_cli("seifert", "betti", inputs["cp2"], capsys=capsys)
    assert code == 0 and json.loads(out)["link_betti"] == [1, 0, 0, 0, 0, 1]
    code, out = run_cli("seifert", "betti", inputs["elliptic"], capsys=capsys)
    assert json.loads(out)["link_betti"] == [1, 2, 2, 1]
    code, _ = run_cli("seifert", "circle-action", inputs["feasible"], capsys=capsys)
    assert code == 0
    code, out = run_cli("seifert", "circle-action", inputs["infeasible"], capsys=capsys)
    assert code == 1
    assert json.loads(out)["failed_condition"] == "condition_1"
    code, _ = run_cli("seifert", "qhs", inputs["cp2"], capsys=capsys)
    assert code == 0
    code, _ = run_cli("seifert", "qhs", inputs["elliptic"], capsys=capsys)
    assert code == 1


def test_voronoi_cli(inputs, capsys):
    code, _ = run_cli("voronoi", "simple", inputs["triangle"], capsys=capsys)
    assert code == 0
    code, out = run_cli("voronoi", "simple", inputs["square"], capsys=capsys)
    assert code == 1
    assert json.loads(out)["witness"]["cell_count"] == 4
    code, out = run_cli(
        "voronoi", "classify", inputs["triangle"], "--cell", "0", capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["parasitic"] == [{"dim": 1, "sites": [1, 2]}]
    code, out = run_cli(
        "voronoi", "select", inputs["triangle"], "--region", inputs["region"], capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["cells"] == [0, 1, 2]


def test_snc_cli(inputs, capsys):
    code, out = run_cli(
        "snc", "build", inputs["strip"], "--select", "0,1,2", capsys=capsys
    )
    assert code == 0
    model = json.loads(out)
    assert [s["key"] for s in model["strata"]] == [[0], [0, 1], [1], [1, 2], [2]]
    assert model["flags"]["rational"]["[0, 1]"] is True
    code, out = run_cli(
        "snc", "dual", inputs["strip"], "--select", "0,1,2", capsys=capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 0]
    assert report["sheaf_cohomology"] == [1, 0]
    code, out = run_cli(
        "snc", "pillow", "--cx", "1,1/3", "--cy", "1,1/3", "--cz", "1,1/3", capsys=capsys
    )
    assert code == 0 and json.loads(out)["order"] == 1
    code, _ = run_cli(
        "snc", "pillow", "--cx", "2,0", "--cy", "1,0", "--cz", "1,0", capsys=capsys
    )
    assert code == 1


def test_coordinate_digit_bound(inputs, capsys):
    # exponents are refused before they are expanded
    for coordinate in ["1e5000", "1e10000000", "1e-10000000", "1e100", "1/" + "1" + "0" * 100]:
        path = write(inputs["tmp"], "long.json", {"dim": 1, "sites": [["0"], [coordinate]]})
        start = time.perf_counter()
        code = main(["voronoi", "build", path])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1, coordinate
        assert (code, captured.out) == (2, ""), coordinate
        assert "more than 100 digits" in captured.err, coordinate
    # sites whose common denominator has more than 100 digits are refused:
    # coordinates over the 100-digit denominators n and n - 1, and five 3D
    # sites with random 100-digit numerators and denominators, whose
    # witnesses would pass str(int)'s 4,300-digit limit
    n = 10 ** 100 - 1
    rng = random.Random(3)
    for name, sites in (
        ("two-denominators", [[str(n), "0", "0"], ["0", str(-n), "0"], ["0", "0", f"1/{n}"],
                              ["1e99", "1e99", "1e99"], [f"-{n}/{n - 1}", "-1", "0"]]),
        ("random-denominators", [[f"{rng.randint(-n, n)}/{rng.randint(1, n)}" for _ in range(3)]
                                 for _ in range(5)]),
    ):
        path = write(inputs["tmp"], f"{name}.json", {"dim": 3, "sites": sites})
        code = main(["voronoi", "build", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), name
        assert "common denominator has more than 100 digits" in captured.err, name
    # 3D sites at the bound, 100-digit numerators over one 100-digit
    # denominator, print without a traceback
    rng = random.Random(0)
    den = rng.randint(10 ** 99, n)
    at_bound = write(inputs["tmp"], "at-bound.json", {"dim": 3, "sites": [
        [f"{rng.randint(-n, n)}/{den}" for _ in range(3)] for _ in range(5)
    ]})
    for argv in (["voronoi", "build", at_bound], ["voronoi", "classify", at_bound],
                 ["snc", "build", at_bound, "--select", "0,1,2,3,4"],
                 ["snc", "dual", at_bound, "--select", "0,1,2,3,4"],
                 ["resolve", "embed", "--sites", at_bound, "--select", "0,1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and "Traceback" not in captured.err, (argv, captured.err)


def test_resolution_tree_bound_exits_2(inputs, capsys):
    # the tree of I = 1..6, m = 3 has 1,857,222 nodes: the memo of its 7,892
    # distinct states counts them, and the tree is refused before it is built
    path = write(inputs["tmp"], "six.json", {"I": [1, 2, 3, 4, 5, 6], "m": 3})
    start = time.perf_counter()
    code = main(["resolve", "run", path])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 5
    assert (code, captured.out) == (2, "")
    assert "1857222 nodes, more than the bound of 1000000" in captured.err


def test_resolution_subtree_bound_exits_2_fast(inputs, capsys):
    # I = 1..6, m = 4 holds a subtree above the bound: it is refused as soon
    # as that subtree is counted, long before its memo is complete
    path = write(inputs["tmp"], "six_m4.json", {"I": [1, 2, 3, 4, 5, 6], "m": 4})
    start = time.perf_counter()
    code = main(["resolve", "run", path])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2
    assert (code, captured.out) == (2, "")
    assert "more than the bound of 1000000" in captured.err


def test_input_errors_exit_2(inputs, capsys):
    assert run_cli("homology", "/nonexistent.json", capsys=capsys)[0] == 2
    assert run_cli("voronoi", "build", inputs["bad"], capsys=capsys)[0] == 2
    assert run_cli("resolve", "run", capsys=capsys)[0] == 2
    bad_json = inputs["tmp"] / "notjson.json"
    bad_json.write_text("{nope")
    assert run_cli("homology", str(bad_json), capsys=capsys)[0] == 2
    # a Voronoi vertex on the bisector of two other sites
    vertex_on_bisector = write(inputs["tmp"], "vob.json", {
        "dim": 2, "sites": [[0, 1], [4, 11], [5, 7], [7, 3], [10, 14], [11, 8], [12, 8]],
    })
    assert run_cli("snc", "build", vertex_on_bisector, capsys=capsys)[0] == 2
    no_simplices = write(inputs["tmp"], "empty-region.json", {"simplices": []})
    assert run_cli("voronoi", "delaunay", inputs["triangle"], "--region", no_simplices,
                   capsys=capsys)[0] == 2
    # malformed JSON inputs: no truncation, no bool as int, and an object
    # wherever the reader expects one
    malformed = [
        (("homology",), {"cells": [[None, None, None], [[0, 1.7], [1, 2], [2, 0]]]}),
        (("homology",), {"cells": [[None, None], [[0, True]]]}),
        (("homology",), {"cells": [3, [[0, 1]]]}),
        (("check", "q-perfect"), {"generators": 2, "relators": [[1, 2.5]]}),
        (("check", "q-perfect"), {"generators": 2, "relators": [[2, 1.5]]}),
        (("resolve", "run"), {"I": [1, 2.9], "m": 1, "F": []}),
        (("resolve", "run"), {"I": [1, 2], "m": True, "F": []}),
        (("resolve", "run"), {"I": [1, 2], "m": 2, "F": [[3, 1.5]]}),
        (("resolve", "run"), [{"I": [1, 2], "m": 1, "F": []}]),
        (("seifert", "betti"), {"d": 2, "h": [1, 0, 1.9, 0, 1]}),
        (("seifert", "betti"), [2, [1, 0, 1, 0, 1]]),
        (("voronoi", "build"), {"dim": 2.9, "sites": [[0, 0], [1, 0]]}),
        (("voronoi", "build"), {"dim": True, "sites": [[0], [1]]}),
        (("voronoi", "build"), [[0, 0], [1, 0]]),
        (("voronoi", "build"), {"dim": 2, "sites": [[0, 0], 5]}),
        (("resolve", "run"), {"roots": 3}),
        (("seifert", "circle-action"), {"k": 2.9, "c": {"3": 5}, "iM": 0}),
        (("seifert", "circle-action"), {"k": 1, "c": {"3": 1.5}, "iM": 0}),
        (("seifert", "circle-action"), {"k": 1, "c": {"3": 1}, "iM": 2.9}),
        (("seifert", "circle-action"), [1, {"3": 5}, 0]),
        (("voronoi", "select", inputs["triangle"], "--region"), [[[0, 0], [1, 0], [0, 1]]]),
        (("voronoi", "select", inputs["triangle"], "--region"), {"simplices": [[0, 0]]}),
        # a 3D region vertex is refused whether or not a simplex before it
        # already meets every cell
        (("voronoi", "select", inputs["triangle"], "--region"),
         {"simplices": [[["0", "0"], ["1", "0"], ["0", "1"]], [["0", "0", "0"]]]}),
        (("voronoi", "select", inputs["triangle"], "--region"),
         {"simplices": [[["0", "0", "0"]], [["0", "0"], ["1", "0"], ["0", "1"]]]}),
    ]
    for i, (command, payload) in enumerate(malformed):
        path = write(inputs["tmp"], f"malformed{i}.json", payload)
        code = main([*command, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), payload
        assert captured.err.startswith("error: "), payload
        if isinstance(payload, list):
            assert "JSON object" in captured.err, payload

    def refused(argv, fragment):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith("error: ") and fragment in captured.err, (argv, captured.err)

    # non-generic 3D sites: the equidistance lines H{0,1,2} and H{3,4,5}
    # cross at (1,2,3), where two disjoint lines meet only by accident
    crossing = write(inputs["tmp"], "crossing.json", {
        "dim": 3, "sites": [[3, 4, 4], [-1, 3, 5], [2, 0, 5], [6, 3, 3], [0, 2, 8], [4, -2, 2]],
    })
    refused(["snc", "build", crossing], "H[0, 1, 2] and H[3, 4, 5] meet")
    # a 20-digit prime key: trial division would run for hours
    big_prime = write(inputs["tmp"], "bigprime.json",
                      {"k": 0, "c": {"10000000000000000051": 1}, "iM": 0})
    refused(["seifert", "circle-action", big_prime], "bound 10^12")
    # files that cannot be read as JSON
    refused(["homology", str(inputs["tmp"])], "directory")
    not_utf8 = inputs["tmp"] / "latin1.json"
    not_utf8.write_bytes(b'{"cells": [["\xe9"]]}')
    refused(["homology", str(not_utf8)], "utf-8")
    too_long = inputs["tmp"] / "digits.json"
    too_long.write_text('{"generators": ' + "7" * 5000 + "}")
    refused(["check", "q-perfect", str(too_long)], "digits")
    # command-line strings
    refused(["snc", "pillow", "--cx", "1/0,0", "--cy", "1", "--cz", "1"], "'1/0'")
    refused(["snc", "pillow", "--cx", "x", "--cy", "1", "--cz", "1"], "'x'")
    refused(["snc", "pillow", "--cx", "1,0"], "needs --cx, --cy and --cz")
    refused(["snc", "build", inputs["strip"], "--select", "0,a"], "'0,a'")
    # an empty --select or --region names no cells; it is not read as "every cell"
    for command in (["voronoi", "delaunay", inputs["strip"]], ["snc", "build", inputs["strip"]],
                    ["snc", "dual", inputs["strip"]], ["resolve", "embed", "--sites", inputs["strip"]]):
        refused([*command, "--select="], "--select '' is not a list of cell indices")
        refused([*command, "--region="], "No such file or directory: ''")
    refused(["snc", "build"], "needs a sites file")
    refused(["resolve", "embed"], "needs --sites")
    refused(["voronoi", "select", inputs["triangle"]], "needs --region")
    refused(["voronoi", "select", inputs["triangle"], "--select", "0"], "needs --region")

    # the reader table: for each reader a float, a bool, a null, a missing
    # required key (where the reader has one), a wrong container and a
    # string that is not an integer or a rational
    triangle = ("voronoi", "select", inputs["triangle"], "--region")
    table = [
        # sites
        (("voronoi", "build"), {"dim": 2, "sites": [[0.1, 0], [1, 0], [0, 1]]}, "not 0.1"),
        (("voronoi", "build"), {"dim": 2, "sites": [[True, 5], [1, 0], [0, 1]]}, "not True"),
        (("voronoi", "build"), {"dim": 2, "sites": [[None, 0], [1, 0], [0, 1]]}, "not None"),
        (("voronoi", "build"), {"dim": 2}, "needs a 'sites' field"),
        (("voronoi", "build"), {"sites": [[0], [1]]}, "needs a 'dim' field"),
        (("voronoi", "build"), {"dim": 2, "sites": {"0": [0, 0]}}, "'sites' must be a list"),
        (("voronoi", "build"), {"dim": 2, "sites": [["1/0", 0], [1, 0]]}, "not '1/0'"),
        (("voronoi", "build"), {"dim": 2, "sites": [["x", 0], [1, 0]]}, "not 'x'"),
        (("voronoi", "build"), {"dim": "2", "sites": [[0, 0], [1, 0]]}, "not '2'"),
        # roots (no required key: a file without "roots" is one local model)
        (("resolve", "run"), {"roots": 1.5}, "'roots' must be a list"),
        (("resolve", "run"), {"roots": True}, "'roots' must be a list"),
        (("resolve", "run"), {"roots": None}, "'roots' must be a list"),
        (("resolve", "run"), {"roots": {"I": [1, 2]}}, "'roots' must be a list"),
        (("resolve", "run"), {"roots": "1/0"}, "'roots' must be a list"),
        # region (no required key: "simplices" defaults to none)
        (triangle, {"simplices": [[[0.5, 0]]]}, "not 0.5"),
        (triangle, {"simplices": [[[True, 0]]]}, "not True"),
        (triangle, {"simplices": [[[None, 0]]]}, "not None"),
        (triangle, {"simplices": [[None]]}, "a region point must be a list"),
        (triangle, {"simplices": {"0": [[0, 0]]}}, "'simplices' must be a list"),
        (triangle, {"simplices": [[["1/0", "0"]]]}, "not '1/0'"),
        # local model (no required key: "I", "m" and "F" have defaults)
        (("resolve", "run"), {"I": [1, 2], "m": 1.0, "F": []}, "not 1.0"),
        (("resolve", "run"), {"I": [1, True], "m": 1, "F": []}, "not True"),
        (("resolve", "run"), {"I": [1, 2], "m": None, "F": []}, "not None"),
        (("resolve", "run"), {"I": {"1": 1}, "m": 1, "F": []}, "'I' must be a list"),
        (("resolve", "run"), {"I": [1, 2], "m": 2, "F": [[3]]}, "[label, exponent] pair"),
        (("resolve", "run"), {"I": [1, 2], "m": "1", "F": []}, "not '1'"),
        # base
        (("seifert", "betti"), {"d": 1.0, "h": [1, 2, 1]}, "not 1.0"),
        (("seifert", "betti"), {"d": 1, "h": [1, False, 1]}, "not False"),
        (("seifert", "betti"), {"d": 1, "h": None}, "'h' must be a list"),
        (("seifert", "betti"), {"d": 1}, "needs a 'h' field"),
        (("seifert", "betti"), {"d": 1, "h": {"0": 1}}, "'h' must be a list"),
        (("seifert", "betti"), {"d": "1", "h": [1, 2, 1]}, "not '1'"),
        # H2 decomposition (no required key: "k", "c" and "iM" have defaults)
        (("seifert", "circle-action"), {"k": 0, "c": {"3": 5.0}, "iM": 0}, "not 5.0"),
        (("seifert", "circle-action"), {"k": False, "c": {"3": 5}, "iM": 0}, "not False"),
        (("seifert", "circle-action"), {"k": 0, "c": {"3": 5}, "iM": None}, "not None"),
        (("seifert", "circle-action"), {"k": 0, "c": [[3, 5]], "iM": 0}, "JSON object"),
        (("seifert", "circle-action"), {"k": 0, "c": {"x3": 5}, "iM": 0}, "'x3'"),
        (("seifert", "circle-action"), {"k": 0, "c": {"3": "5"}, "iM": 0}, "not '5'"),
        (("seifert", "circle-action"), {"k": 0, "c": {"3": 5}, "iM": "1/0"}, "not '1/0'"),
        # complex
        (("homology",), {"cells": [[None, None], [[0, 1.0]]]}, "1.0"),
        (("homology",), {"cells": None}, "list of layers"),
        (("homology",), {"dim": 1}, "needs a 'cells' field"),
        (("homology",), {"cells": {"0": [None]}}, "list of layers"),
        (("homology",), {"cells": [[None, None], [["0", 1]]]}, "'0'"),
        # presentation
        (("check", "q-perfect"), {"generators": 2.0, "relators": []}, "not 2.0"),
        (("check", "q-perfect"), {"generators": True, "relators": []}, "not True"),
        (("check", "q-perfect"), {"generators": None}, "not None"),
        (("check", "q-perfect"), {"relators": [[1]]}, "needs a 'generators' field"),
        (("check", "q-perfect"), {"generators": 1, "relators": {"0": [1]}}, "list of words"),
        (("check", "q-perfect"), {"generators": "1/0", "relators": []}, "not '1/0'"),
    ]
    for i, (command, payload, fragment) in enumerate(table):
        refused([*command, write(inputs["tmp"], f"table{i}.json", payload)], fragment)


@pytest.mark.parametrize(
    "exc, last_line",
    [
        (RuntimeError("internal failure"), "RuntimeError: internal failure"),
        (ValueError("internal failure"), "ValueError: internal failure"),
        (KeyError("internal failure"), "KeyError: 'internal failure'"),
    ],
    ids=["RuntimeError", "ValueError", "KeyError"],
)
def test_unexpected_exception_exits_3(inputs, capsys, monkeypatch, exc, last_line):
    def broken(p):
        raise exc

    monkeypatch.setattr(cli, "abelianization", broken)
    code = main(["pi1", inputs["circle"]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.rstrip().endswith(last_line)


def test_select_without_region_exits_2_before_enumerating(inputs, capsys, monkeypatch):
    def enumerated(sites):
        raise RuntimeError("voronoi select enumerated the complex")

    monkeypatch.setattr(cli, "voronoi_complex", enumerated)
    code = main(["voronoi", "select", inputs["triangle"]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: voronoi select needs --region\n"


def _refuse_closure(vc, parasitic):
    raise VoronoiCheckError("intersection closure refused")


def _escaping_mult2(model, i1=None):
    # a multiplicity-2 chart function whose chart adds an x-divisor
    return "binres(1)", [(model.x_divisors | {99}, 0, model.exceptional)]


@pytest.mark.parametrize(
    "module, name, replacement, argv, message",
    [
        (snc, "delta_isomorphic", lambda a, b: False, ("snc", "dual", "triangle"),
         "dual complex is not isomorphic"),
        (voronoi, "_check_intersection_closure", _refuse_closure,
         ("voronoi", "classify", "triangle"), "intersection closure refused"),
        (resolution, "_mult2", _escaping_mult2, ("resolve", "run", "node"),
         "child x-index set escapes"),
    ],
    ids=["dual_isomorphism", "intersection_closure", "resolver_nerve"],
)
def test_failed_check_exits_1(inputs, capsys, monkeypatch, module, name, replacement, argv,
                              message):
    monkeypatch.setattr(module, name, replacement)
    code = main([*argv[:2], inputs[argv[2]]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: check failed: {message}")


def test_delaunay_reports_the_selection_it_used(inputs, capsys):
    # the dual's vertices are the distinct selected cells in order, and the
    # report lists them as `snc build` does
    code, out = run_cli("voronoi", "delaunay", inputs["strip"], "--select", "2,0,0",
                        capsys=capsys)
    report = json.loads(out)
    assert code == 0 and report["selection"] == [0, 2]
    assert report["complex"]["labels"][0] == ["0", "2"]
    assert out == run_cli("voronoi", "delaunay", inputs["strip"], "--select", "0,2",
                          capsys=capsys)[1]
    _, model = run_cli("snc", "build", inputs["strip"], "--select", "2,0,0", capsys=capsys)
    assert json.loads(model)["selection"] == [0, 2]


# every subcommand on the fixtures above; a token naming a fixture stands for its path
SUBCOMMANDS = [
    ("homology", "circle", "--dim", "1"),
    ("pi1", "circle"),
    ("check", "q-acyclic", "circle"),
    ("check", "q-perfect", "higman"),
    ("check", "q-superperfect", "sl2z"),
    ("voronoi", "build", "triangle"),
    ("voronoi", "simple", "square"),
    ("voronoi", "delaunay", "strip", "--select", "0,1,2"),
    ("voronoi", "classify", "triangle"),
    ("voronoi", "select", "triangle", "--region", "region"),
    ("snc", "build", "strip", "--select", "0,1,2"),
    ("snc", "dual", "strip", "--select", "0,1,2"),
    ("snc", "pillow", "--cx", "2,0", "--cy", "1,0", "--cz", "1,0"),
    ("resolve", "run", "node"),
    ("resolve", "embed", "--sites", "strip", "--select", "0,1,2"),
    ("seifert", "betti", "cp2"),
    ("seifert", "qhs", "elliptic"),
    ("seifert", "circle-action", "infeasible"),
    ("pipeline", "simplex2", "triangle", "region"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
def test_subcommand_returns_report_and_main_alone_prints(inputs, capsys, argv):
    argv = [inputs.get(token, token) for token in argv]
    for fmt in ("json", "text"):
        args = cli.build_parser().parse_args(["--format", fmt, *argv])
        report, code = args.func(args)
        assert type(report) is dict and type(code) is int
        assert capsys.readouterr() == ("", "")
        assert main(["--format", fmt, *argv]) == code
        assert capsys.readouterr() == (cli._render(report, fmt), "")


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "snclab.cli", "frobnicate"], capture_output=True
    )
    assert proc.returncode == 2


def test_pipeline_not_simple_exits_2(inputs, capsys):
    code = main(
        ["pipeline", inputs["simplex2"], inputs["square"], inputs["region"]]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "not simple" in captured.err


def test_pipeline_refuses_a_disconnected_complex(inputs, capsys):
    # H_1 is read off each stage's homology, and a stage with more than one
    # component is still refused: the input complex, or a Delaunay dual of
    # two cells that share no face
    two_points = write(inputs["tmp"], "two_points.json", {"cells": [[None, None]]})
    apart = write(inputs["tmp"], "apart.json", {"simplices": [[["0", "0"]], [["4", "0"]]]})
    for argv in (["pipeline", two_points, inputs["triangle"], inputs["region"]],
                 ["pipeline", inputs["simplex2"], inputs["strip"], apart]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: pi_1 needs a connected complex\n")


def test_four_dimensional_meeting_centers_exit_2(inputs, capsys):
    # two disjoint stage-2 planes of a 4D cell meet in a point, the generic
    # dimension 2 * 2 - 4: an input the gluing construction does not cover,
    # refused as an input error; the Voronoi commands do not glue, and a 4D
    # set whose disjoint same-stage centers do not meet still glues
    def sites(n):
        points = seeded_sites(11, n, 4).sites
        return write(inputs["tmp"], f"four{n}.json",
                     {"dim": 4, "sites": [[str(c) for c in p] for p in points]})

    seven, five = sites(7), sites(5)
    big = 4 * 98 + 1
    cover = write(inputs["tmp"], "cover4.json", {"simplices": [
        [[-1] * 4] + [[big if i == j else -1 for i in range(4)] for j in range(4)]]})
    message = ("error: stage-2 centers H[1, 2, 3] and H[4, 5, 6] of cell 0 are disjoint but "
               "meet in dimension 0 outside every earlier center; the gluing construction "
               "covers only inputs whose disjoint same-stage centers do not meet\n")
    for argv in (["snc", "build", seven], ["snc", "dual", seven],
                 ["resolve", "embed", "--sites", seven], ["pipeline", inputs["simplex2"], seven, cover]):
        assert main(argv) == 2
        assert capsys.readouterr().err == message
    for argv in (["voronoi", "build", seven], ["voronoi", "classify", seven, "--cell", "0"],
                 ["snc", "build", five]):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


def test_pipeline_triangle_and_byte_stability(inputs):
    report1, code1 = run_pipeline(inputs["simplex2"], inputs["triangle"], inputs["region"])
    report2, code2 = run_pipeline(inputs["simplex2"], inputs["triangle"], inputs["region"])
    assert code1 == code2 == 0
    blob1 = json.dumps(report1, sort_keys=True)
    blob2 = json.dumps(report2, sort_keys=True)
    assert blob1 == blob2
    assert report1["final"]["betti"] == [1, 0, 0]
    assert report1["verdicts"]["rational_singularity_eligible"] is True
    assert report1["verdicts"]["homology_preserved_across_stages"] is True


def test_pipeline_builds_one_delaunay_dual(inputs, capsys, monkeypatch):
    # run_pipeline hands its Delaunay dual to dual_complex, which still
    # runs the isomorphism check against it; snc dual builds its own once
    # and hands the dual complex to the sheaf cohomology
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "delaunay_dual", counted("delaunay_dual", voronoi.delaunay_dual))
    monkeypatch.setattr(snc, "delaunay_dual", counted("delaunay_dual", voronoi.delaunay_dual))
    monkeypatch.setattr(snc, "delta_isomorphic", counted("delta_isomorphic", snc.delta_isomorphic))
    report, code = run_pipeline(inputs["simplex2"], inputs["triangle"], inputs["region"])
    assert code == 0 and report["snc"]["dual_isomorphic_to_delaunay"]
    assert calls == {"delaunay_dual": 1, "delta_isomorphic": 1}
    calls.clear()
    monkeypatch.setattr(snc, "build_complex", counted("build_complex", snc.build_complex))
    assert main(["snc", "dual", inputs["triangle"]]) == 0
    capsys.readouterr()
    assert calls == {"build_complex": 1, "delaunay_dual": 1, "delta_isomorphic": 1}


def test_pipeline_ring_preserves_circle_homology(inputs, capsys):
    # a non-acyclic end-to-end case: the input is a circle, the region
    # picks the four outer ring cells, and every controlled stage keeps
    # b1 = 1; eligibility verdicts classify rather than fail the run
    from snclab.voronoi import SiteSet, voronoi_complex

    ring = {
        "dim": 2,
        "sites": [["0", "0"], ["2", "0"], ["0", "3"], ["-5/2", "0"], ["0", "-7/4"]],
    }
    sites_path = inputs["tmp"] / "ring.json"
    sites_path.write_text(json.dumps(ring))
    vc = voronoi_complex(SiteSet.build(2, ring["sites"]))
    region = {
        "simplices": [
            [[str(c) for c in vc.faces[frozenset({i})].witness]] for i in (1, 2, 3, 4)
        ]
    }
    region_path = inputs["tmp"] / "ring_region.json"
    region_path.write_text(json.dumps(region))
    code, out = run_cli(
        "pipeline", inputs["circle"], str(sites_path), str(region_path), capsys=capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["voronoi"]["selection"] == [1, 2, 3, 4]
    assert report["final"]["betti"] == [1, 1]
    assert report["verdicts"]["homology_preserved_across_stages"] is True
    assert report["verdicts"]["input_homology_match"] is True
    assert report["verdicts"]["rational_singularity_eligible"] is False


def test_pipeline_row_of_three(inputs, capsys):
    # the input complex is a path of two edges; the region picks the
    # three row cells of the strip configuration
    path = {"dim": 1, "cells": [[None, None, None], [[1, 0], [2, 1]]]}
    path_file = inputs["tmp"] / "path.json"
    path_file.write_text(json.dumps(path))
    region = {
        "simplices": [[["1/4", "0"]], [["2", "1/2"]], [["15/4", "0"]]]
    }
    region_file = inputs["tmp"] / "row_region.json"
    region_file.write_text(json.dumps(region))
    code, out = run_cli(
        "pipeline", str(path_file), inputs["strip"], str(region_file), capsys=capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["voronoi"]["selection"] == [0, 1, 2]
    assert report["final"]["betti"] == [1, 0]
    assert report["resolution"]["nerve_invariant"] is True
    assert report["verdicts"]["input_homology_match"] is True


def test_resolve_embed_feeds_resolve_run(inputs, capsys, tmp_path):
    code, out = run_cli(
        "resolve", "embed", "--sites", inputs["strip"], "--select", "0,1,2",
        capsys=capsys,
    )
    assert code == 0
    roots_file = tmp_path / "roots.json"
    roots_file.write_text(out)
    code, out = run_cli("resolve", "run", str(roots_file), capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["resolved"] is True
    assert report["nerve_constant"] is True
    nerve = [tuple(f) for f in report["nerve"]]
    assert (0, 1) in nerve and (1, 2) in nerve and (0, 2) not in nerve


def test_text_format(inputs, capsys):
    code, out = run_cli(
        "--format", "text", "check", "q-perfect", inputs["higman"], capsys=capsys
    )
    assert code == 0
    assert "verdict = True" in out
    # text output is key-sorted line by line, so it is stable too
    code2, out2 = run_cli(
        "--format", "text", "check", "q-perfect", inputs["higman"], capsys=capsys
    )
    assert out == out2


def test_env_seed_accepted(inputs, capsys, monkeypatch):
    # the seed is read from --seed alone: SNCLAB_SEED, even malformed, is
    # ignored
    plain = run_cli("resolve", "run", inputs["node"], capsys=capsys)
    monkeypatch.setenv("SNCLAB_SEED", "abc")
    assert run_cli("resolve", "run", inputs["node"], capsys=capsys) == plain
    assert plain[0] == 0 and json.loads(plain[1])["resolved"] is True
