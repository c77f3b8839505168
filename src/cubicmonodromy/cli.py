"""Command-line front end: solves, loop tracking, campaigns, claim suite.

Every command prints a UTF-8 JSON report (or writes it atomically to
--out).  verify-all exits 0 exactly when all requested claims pass, which
makes it usable as a certificate check in scripts.  Complex parameters
are given as "re,im" pairs; all randomness is derived from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import flexes as fx
from . import linesolver as ls
from . import monodromy, perms, schlafli, tracker
from .forms import FAMILIES, CubicForm, get_family


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _parse_params(values: list[str] | None, family: str, seed: int) -> np.ndarray:
    if values:
        return np.array([_parse_complex(v) for v in values])
    return monodromy.default_basepoint(family, seed)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_solve(args) -> int:
    if args.coeffs:
        form = CubicForm.from_json(json.loads(args.coeffs))
    else:
        family = get_family(args.family)
        form = family.form_at(_parse_params(args.param, args.family, args.seed))
    report = ls.solve_lines(form, seed=args.seed)
    payload = report.to_json()
    payload["schema"] = "cubicmonodromy/solve/1"
    adjacency = ls.incidence_graph(report.lines)
    labeling = schlafli.label_lines(adjacency)
    payload["labeling"] = labeling.to_json()
    _emit(payload, args.out)
    return 0


def cmd_schlafli_check(args) -> int:
    model = schlafli.canonical_incidence()
    weyl = schlafli.weyl_e6()
    triples = schlafli.tritangent_triples()
    rows = weyl.element_array()
    transitive = len(set(rows[:, 0])) == 27
    labeling = schlafli.label_lines(model.adjacency)
    payload = {
        "schema": "cubicmonodromy/schlafli/1",
        "srg_parameters": [27, 10, 1, 5],
        "weyl_order": weyl.order,
        "tritangent_triples": len(triples),
        "transitive_on_lines": transitive,
        "canonical_labeling_is_identity": labeling.assignment == tuple(range(27)),
    }
    ok = (weyl.order == 51840 and len(triples) == 45 and transitive
          and payload["canonical_labeling_is_identity"])
    payload["passed"] = ok
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_track(args) -> int:
    family = get_family(args.family)
    basepoint = _parse_params(args.param, args.family, args.seed)
    form = family.form_at(basepoint)
    base = ls.solve_lines(form, seed=args.seed)
    labeling = schlafli.label_lines(ls.incidence_graph(base.lines))
    if args.petal is not None:
        loops = tracker.petal_loops(family, basepoint[0],
                                    punctures=[_parse_complex(args.petal)],
                                    radius=args.radius)
        loop = loops[0]
    elif args.waypoints:
        pts = [np.array([_parse_complex(c) for c in w])
               for w in json.loads(args.waypoints)]
        loop = tracker.LoopSpec(family=family, basepoint=basepoint,
                                waypoints=tuple(pts))
    else:
        loop = tracker.LoopSpec(family=family, basepoint=basepoint,
                                waypoints=(basepoint, basepoint))
    tracked = tracker.track_loop(loop, base, labeling)
    payload = tracked.to_json()
    payload["schema"] = "cubicmonodromy/track/1"
    payload["perm_cycles"] = perms.cycle_string(tracked.perm)
    _emit(payload, args.out)
    return 0


def cmd_campaign(args) -> int:
    campaign = monodromy.Campaign(
        family=monodromy.family_for(args.family),
        basepoint=_parse_params(args.param, args.family, args.seed),
        loop_budget=args.budget,
        seed=args.seed,
        include_twists=args.twists,
    )
    report = monodromy.run_campaign(campaign)
    _emit(report.to_json(), args.out)
    return 0


def cmd_verify_all(args) -> int:
    claims = args.claims.split(",") if args.claims else None
    if args.budget < 1:
        suite = monodromy.claim_suite()
        if claims:
            suite = [c for c in suite if c.claim_id in set(claims)]
        payload = {
            "schema": "cubicmonodromy/claims/1",
            "budget": args.budget,
            "seed": args.seed,
            "verdicts": [{"claim_id": c.claim_id, "passed": False,
                          "verdict": "inconclusive",
                          "detail": {"reason": "loop budget is zero"}}
                         for c in suite],
            "all_passed": False,
        }
        _emit(payload, args.out)
        return 1
    result = monodromy.run_claim_suite(budget=args.budget, seed=args.seed,
                                       claims=claims)
    _emit(result, args.out)
    return 0 if result["all_passed"] else 1


def cmd_flexes(args) -> int:
    if args.campaign:
        report = fx.flex_monodromy_campaign(budget=args.budget, seed=args.seed)
        _emit(report.to_json(), args.out)
        return 0
    if args.hesse is not None:
        form = fx.hesse_form(_parse_complex(args.hesse))
    elif args.coeffs:
        data = json.loads(args.coeffs)
        form = fx.PlaneCubicForm(np.array([complex(re, im) for re, im in data]))
    else:
        rng = np.random.default_rng(args.seed)
        form = fx.PlaneCubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))
    flexset = fx.solve_flexes(form, seed=args.seed)
    payload = flexset.to_json()
    payload["schema"] = "cubicmonodromy/flexes/1"
    payload["collinear_triples"] = [list(t) for t in
                                    fx.collinear_triples(flexset.points)]
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicmonodromy",
        description="Numerical monodromy certificates for the 27 lines on "
                    "cubic surfaces and the 9 flexes of plane cubics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, families=()):
        if families:
            p.add_argument("--family", default="Generic20", choices=families)
            p.add_argument("--param", nargs="*", metavar="RE,IM",
                           help="basepoint parameters as re,im pairs")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("solve", help="compute the 27 lines of a cubic surface")
    common(p, list(FAMILIES))
    p.add_argument("--coeffs", help="JSON list of 20 [re,im] pairs")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("schlafli-check",
                       help="self-check the canonical 27-line model and W(E6)")
    common(p)
    p.set_defaults(func=cmd_schlafli_check)

    p = sub.add_parser("track", help="track one loop and print its permutation")
    common(p, list(FAMILIES))
    p.add_argument("--petal", help="puncture re,im to encircle")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--waypoints", help="JSON list of waypoint parameter lists")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("campaign", help="run a monodromy campaign for a family")
    common(p, [*FAMILIES, "FlexP9"])
    p.add_argument("--budget", type=int, default=40)
    p.add_argument("--twists", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("verify-all", help="run the full claim suite")
    common(p)
    p.add_argument("--budget", type=int, default=40)
    p.add_argument("--claims", help="comma-separated claim ids (default: all)")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("flexes", help="solve the 9 flexes or run their campaign")
    common(p)
    p.add_argument("--hesse", help="Hesse parameter k as re,im")
    p.add_argument("--coeffs", help="JSON list of 10 [re,im] pairs")
    p.add_argument("--campaign", action="store_true")
    p.add_argument("--budget", type=int, default=40)
    p.set_defaults(func=cmd_flexes)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
