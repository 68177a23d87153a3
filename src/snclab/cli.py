"""Command-line front end.

Each subcommand maps its parsed arguments to a (report, exit code) pair;
`main` alone renders the report to stdout and turns errors into exit codes.
Predicate subcommands speak through exit codes (0 = true/success,
1 = predicate false or a check failed, 2 = input error, 3 = unexpected
internal error, with its traceback on stderr) with JSON as the detailed
channel; --format text renders the same report as stable lines.
All JSON output is key-sorted and newline-terminated so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback

from .complexes import AbelianGroup, ComplexError, complex_from_json_dict
from .jsonread import MAX_DIGITS, expect_int, expect_list, expect_object, expect_rational
from .presentations import (
    PresentationError,
    SuperperfectVerdict,
    abelianization,
    is_q_superperfect_sufficient,
    pi1_presentation,
    presentation_from_json_dict,
)
from .resolution import (
    Policy,
    ResolutionError,
    embed_snc,
    model_from_json_dict,
    resolve,
)
from .seifert import (
    SeifertError,
    base_from_json_dict,
    circle_action_feasible,
    decomposition_from_json_dict,
    is_rational_homology_sphere,
    link_betti,
)
from .snc import (
    PillowConstant,
    SncError,
    build_snc,
    dual_complex,
    pi1_link_criterion,
    pillow_projectivity,
    sheaf_cohomology_dims,
)
from .voronoi import (
    CheckFailed,
    SiteSet,
    VoronoiError,
    classify_subspaces,
    delaunay_dual,
    region_from_json_dict,
    select_subcomplex,
    voronoi_complex,
)

INPUT_ERRORS = (
    ComplexError,
    PresentationError,
    VoronoiError,
    SncError,
    ResolutionError,
    SeifertError,
    OSError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError as exc:  # an integer literal longer than int() reads
            raise json.JSONDecodeError(str(exc), "", 0) from None


def _group_dict(g: AbelianGroup) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True) + "\n"
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix} = {json.dumps(value)}")
        else:
            lines.append(f"{prefix} = {value}")

    walk("", report)
    return "\n".join(sorted(lines)) + "\n"


def _load_sites(path: str) -> SiteSet:
    data = expect_object(_load(path), VoronoiError, "a sites file", "dim", "sites")
    sites = [expect_list(s, VoronoiError, "a site", expect_rational)
             for s in expect_list(data["sites"], VoronoiError, "'sites'")]
    site_set = SiteSet.build(expect_int(data["dim"], VoronoiError, "'dim'"), sites)
    if site_set.integer_sites[0] >= 10 ** MAX_DIGITS:
        raise VoronoiError(
            f"the sites' common denominator has more than {MAX_DIGITS} digits"
        )
    return site_set


def _selection(args, vc) -> tuple[int, ...]:
    """The cells named by --select, sorted and deduplicated, or those a
    --region meets, or every cell."""
    if getattr(args, "select", None) is not None:
        try:
            return tuple(sorted({int(x) for x in args.select.split(",")}))
        except ValueError:
            raise VoronoiError(f"--select {args.select!r} is not a list of cell indices") from None
    if getattr(args, "region", None) is not None:
        region = region_from_json_dict(_load(args.region))
        return select_subcomplex(vc, region)
    return tuple(vc.cell_indices())


def _parse_pillow(text: str) -> PillowConstant:
    modulus, _, turns = text.partition(",")
    parts = (expect_rational(x, SncError, "a pillow constant") for x in (modulus, turns or "0"))
    return PillowConstant.build(*parts)


def cmd_homology(args) -> tuple[dict, int]:
    k = complex_from_json_dict(_load(args.file))
    report = {
        "betti": list(k.all_betti()),
        "cells": list(k.cell_counts()),
        "euler_characteristic": k.euler_characteristic(),
        "homology": {
            str(d): _group_dict(k.homology(d)) for d in range(k.dim + 1)
        },
    }
    if args.dim is not None:
        report["requested"] = {str(args.dim): _group_dict(k.homology(args.dim))}
    return report, 0


def cmd_pi1(args) -> tuple[dict, int]:
    k = complex_from_json_dict(_load(args.file))
    p = pi1_presentation(k, args.basepoint)
    return {
        "presentation": p.to_json_dict(),
        "abelianization": _group_dict(abelianization(p)),
    }, 0


def cmd_check(args) -> tuple[dict, int]:
    if args.predicate == "q-acyclic":
        k = complex_from_json_dict(_load(args.file))
        verdict = k.is_q_acyclic()
        report = {"predicate": "q-acyclic", "betti": list(k.all_betti()), "verdict": verdict}
    elif args.predicate == "q-perfect":
        p = presentation_from_json_dict(_load(args.file))
        group = abelianization(p)
        verdict = group.rank == 0
        report = {
            "predicate": "q-perfect",
            "abelianization": _group_dict(group),
            "verdict": verdict,
        }
    else:
        p = presentation_from_json_dict(_load(args.file))
        state = is_q_superperfect_sufficient(p)
        verdict = state is SuperperfectVerdict.CONFIRMED
        report = {"predicate": "q-superperfect", "state": state.value, "verdict": verdict}
    return report, 0 if verdict else 1


def cmd_voronoi(args) -> tuple[dict, int]:
    # select reports the cells a region meets, so it reads --region alone
    if args.action == "select" and not args.region:
        raise VoronoiError("voronoi select needs --region")
    vc = voronoi_complex(_load_sites(args.sites))
    if args.action == "build":
        return vc.to_json_dict(), 0
    if args.action == "simple":
        witness = vc.simplicity_witness()
        report = {"simple": witness is None}
        if witness is not None:
            report["witness"] = {
                "sites": sorted(witness.sites),
                "cell_count": len(witness.sites),
                "codim": witness.codim,
            }
        return report, 0 if witness is None else 1
    if args.action == "delaunay":
        selection = _selection(args, vc)
        dual = delaunay_dual(vc, selection)
        return {
            "selection": list(selection),
            "complex": dual.to_json_dict(),
            "betti": list(dual.all_betti()),
        }, 0
    if args.action == "classify":
        rep = classify_subspaces(vc, args.cell)
        return {
            "cell": rep.cell,
            "essential": [
                {"sites": sorted(r.sites), "dim": r.dim} for r in rep.essential
            ],
            "parasitic": [
                {"sites": sorted(r.sites), "dim": r.dim} for r in rep.parasitic
            ],
            "minimal_parasitic_parent": {
                json.dumps(sorted(k)): sorted(v)
                for k, v in rep.minimal_parasitic_parent.items()
            },
        }, 0
    region = region_from_json_dict(_load(args.region))
    return {"cells": list(select_subcomplex(vc, region))}, 0


def _glued_model(args):
    """The glued model over the selected cells of the sites file's Voronoi complex."""
    vc = voronoi_complex(_load_sites(args.sites))
    return build_snc(vc, _selection(args, vc))


def cmd_snc(args) -> tuple[dict, int]:
    if args.action == "pillow":
        if not (args.cx and args.cy and args.cz):
            raise SncError("pillow needs --cx, --cy and --cz as modulus,turns")
        result, order = pillow_projectivity(
            _parse_pillow(args.cx), _parse_pillow(args.cy), _parse_pillow(args.cz)
        )
        report = {"projective": result}
        if order is not None:
            report["order"] = order
        return report, 0 if result else 1
    if not args.sites:
        raise SncError(f"snc {args.action} needs a sites file")
    model = _glued_model(args)
    if args.action == "build":
        return model.to_json_dict(), 0
    dual = dual_complex(model)
    return {
        "complex": dual.to_json_dict(),
        "betti": list(dual.all_betti()),
        "sheaf_cohomology": list(sheaf_cohomology_dims(model, dual)),
        "pi1_link": pi1_link_criterion(model).value,
    }, 0


def cmd_resolve(args) -> tuple[dict, int]:
    if args.action == "embed":
        if not args.sites:
            raise ResolutionError("resolve embed needs --sites")
        return {"roots": [r.to_json_dict() for r in embed_snc(_glued_model(args))]}, 0
    if not args.file:
        raise ResolutionError("resolve run needs a local-models file")
    data = expect_object(_load(args.file), ResolutionError, "a local-models file")
    roots = expect_list(data.get("roots", [data]), ResolutionError, "'roots'")
    trace = resolve([model_from_json_dict(r) for r in roots], Policy(args.seed), args.max_steps)
    report = trace.to_json_dict()
    report["resolved"] = trace.all_resolved()
    return report, 0


def cmd_seifert(args) -> tuple[dict, int]:
    if args.action == "circle-action":
        h = decomposition_from_json_dict(_load(args.file))
        ok, failed = circle_action_feasible(h)
        report = {"feasible": ok}
        if failed:
            report["failed_condition"] = failed
        return report, 0 if ok else 1
    base = base_from_json_dict(_load(args.file))
    if args.action == "betti":
        return {"link_betti": list(link_betti(base))}, 0
    verdict = is_rational_homology_sphere(base)
    return {"rational_homology_sphere": verdict}, 0 if verdict else 1


def run_pipeline(complex_path: str, sites_path: str, region_path: str,
                 policy: Policy = Policy(), max_steps=None) -> tuple[dict, int]:
    """The end-to-end chain: selection, Delaunay dual, glued model, local
    forms, resolution, and invariant comparison at every controlled stage.

    Each stage's H_1 is read off its complex's homology: by Hurewicz it is
    the abelianized pi_1 of a connected complex, which every stage must be.
    Homotopy equivalence of the region with the selected subcomplex is a
    hypothesis of the construction, not something the pipeline verifies;
    the report carries that caveat and compares homology as a necessary
    condition.
    """
    input_complex = complex_from_json_dict(_load(complex_path))
    sites = _load_sites(sites_path)
    region = region_from_json_dict(_load(region_path))
    vc = voronoi_complex(sites)
    selection = select_subcomplex(vc, region)
    if not selection:
        raise VoronoiError("the region selects no Voronoi cells")
    dual = delaunay_dual(vc, selection)
    model = build_snc(vc, selection)
    model_dual = dual_complex(model, dual)
    roots = embed_snc(model)
    trace = resolve(roots, policy, max_steps)
    nerve = trace.nerve_complex()

    def profile(k):
        betti = list(k.all_betti())
        if not k.is_connected():
            raise ComplexError("pi_1 needs a connected complex")
        return betti, _group_dict(k.homology(1))

    input_betti, input_h1 = profile(input_complex)
    delaunay_betti, delaunay_h1 = profile(dual)
    model_betti, model_h1 = profile(model_dual)
    nerve_betti, nerve_h1 = profile(nerve)

    stages_equal = (
        delaunay_betti == model_betti == nerve_betti
        and delaunay_h1 == model_h1 == nerve_h1
    )
    input_match = input_betti == delaunay_betti and input_h1 == delaunay_h1
    q_acyclic = nerve.is_q_acyclic()
    q_perfect = nerve_h1["rank"] == 0
    certificate = json.dumps(
        [[s.rule, [[list(a), list(b)] for a, b in s.descents]] for s in trace.steps],
        sort_keys=True,
    )
    report = {
        "input": {"betti": input_betti, "h1": input_h1},
        "voronoi": {
            "sites": len(sites.sites),
            "dim": sites.dim,
            "selection": list(selection),
            "simple_on_selection": True,
        },
        "delaunay": {"betti": delaunay_betti, "h1": delaunay_h1},
        "snc": {
            "strata": [sorted(s.key) for s in model.strata],
            "dual_isomorphic_to_delaunay": True,
            "betti": model_betti,
            "h1": model_h1,
        },
        "resolution": {
            "roots": len(roots),
            "steps": len(trace.steps),
            "leaves": trace.leaf_count(),
            "nerve_invariant": trace.nerve_constant(),
            "certificate_sha256": hashlib.sha256(certificate.encode()).hexdigest(),
        },
        "final": {"betti": nerve_betti, "h1": nerve_h1},
        "verdicts": {
            "homology_preserved_across_stages": stages_equal,
            "input_homology_match": input_match,
            "rational_singularity_eligible": q_acyclic,
            "pi1_q_perfect": q_perfect,
        },
        "caveat": (
            "homotopy equivalence between the region and the selected "
            "subcomplex is assumed, not verified; homology agreement is a "
            "necessary condition only"
        ),
    }
    exit_code = 0 if (stages_equal and input_match and trace.nerve_constant()) else 1
    return report, exit_code


def cmd_pipeline(args) -> tuple[dict, int]:
    return run_pipeline(args.complex, args.sites, args.region, Policy(args.seed), args.max_steps)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snclab",
        description="exact-arithmetic Voronoi/SNC/resolution/link toolkit",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="Betti numbers and integral homology of a complex")
    p.add_argument("file")
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("pi1", help="fundamental group presentation of the 2-skeleton")
    p.add_argument("file")
    p.add_argument("--basepoint", type=int, default=0)
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("check", help="rational acyclicity / perfectness predicates")
    p.add_argument("predicate", choices=("q-acyclic", "q-perfect", "q-superperfect"))
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("voronoi", help="exact Voronoi complexes")
    p.add_argument("action", choices=("build", "simple", "delaunay", "classify", "select"))
    p.add_argument("sites")
    p.add_argument("--cell", type=int, default=0)
    p.add_argument("--region")
    p.add_argument("--select")
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("snc", help="glued models over a Voronoi selection")
    p.add_argument("action", choices=("build", "dual", "pillow"))
    p.add_argument("sites", nargs="?")
    p.add_argument("--region")
    p.add_argument("--select")
    p.add_argument("--cx")
    p.add_argument("--cy")
    p.add_argument("--cz")
    p.set_defaults(func=cmd_snc)

    p = sub.add_parser("resolve", help="blow-up rewriting on local models")
    p.add_argument("action", choices=("run", "embed"))
    p.add_argument("file", nargs="?")
    p.add_argument("--sites")
    p.add_argument("--region")
    p.add_argument("--select")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("seifert", help="link invariants over orbifold bases")
    p.add_argument("action", choices=("betti", "qhs", "circle-action"))
    p.add_argument("file")
    p.set_defaults(func=cmd_seifert)

    p = sub.add_parser("pipeline", help="complex -> voronoi -> snc -> resolution report")
    p.add_argument("complex")
    p.add_argument("sites")
    p.add_argument("region")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
        sys.stdout.write(_render(report, args.format))
        return code
    except CheckFailed as exc:
        sys.stderr.write(f"error: check failed: {exc}\n")
        return 1
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
