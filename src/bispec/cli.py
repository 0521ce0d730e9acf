"""Command-line interface: catalog access, verification, fitting, solving.

Every invocation writes one JSON report to stdout (schema 1, keys sorted,
deterministic for identical inputs) and a short human summary to stderr.
Exit codes: 0 every claim holds, 1 at least one claim fails, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exact import ExactError, Rat, check_param_name
from .diffop import DiffOp, QuasiRat, XPoly, XRat
from .adcond import (
    SpectrumStep,
    WeightVector,
    ad_power,
    fit_weights,
    heisenberg_series,
    hermite_new_weights,
    reach_weights,
    solve_theta,
)
from .ansatz import generate_system
from .darboux import DarbouxError, darboux_step, intertwine_check
from .expr import ParseError, parse_expr
from .families import catalog_ids, get_entry, probe_entry, verify_entry

SCHEMA = 1


class UsageError(ValueError):
    pass


def _parse_weights(text: str) -> WeightVector:
    """Weights in the form '7:1,5:-14,3:49,1:-36' with rational values; each
    order at most once."""
    weights = {}
    try:
        for chunk in text.split(","):
            order, _, value = chunk.partition(":")
            order = int(order.strip())
            if order in weights:
                raise ValueError(f"order {order} repeated")
            weights[order] = Rat(value.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad weight list {text!r}: {err}") from None
    return WeightVector(weights)


def _parse_step(text: str) -> Rat:
    """A rational spectrum spacing such as '2' or '1/3'."""
    try:
        return Rat(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad spectrum step {text!r}: {err}") from None


def _parse_orders(text: str) -> list:
    """Commutator orders in the form '7,5,3,1'."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as err:
        raise UsageError(f"bad order list {text!r}: {err}") from None


def _render_weights(w: WeightVector) -> dict:
    return {str(j): str(c) for j, c in w.items()}


def _parse(text: str, params) -> object:
    return parse_expr(text, params=params)


def _schrodinger_from(args, params) -> DiffOp:
    if getattr(args, "catalog", None):
        entry = get_entry(args.catalog)
        if entry.kind != "scalar":
            raise UsageError(f"catalog entry {entry.id} is not a scalar operator")
        return entry.operator, entry
    if getattr(args, "L", None) is None:
        raise UsageError("need --L <potential expression> or --catalog <id>")
    v = _parse(args.L, params)
    if isinstance(v, QuasiRat):
        raise UsageError("the potential must be rational, not quasi-rational")
    if isinstance(v, XPoly):
        v = XRat.from_poly(v)
    return DiffOp.schrodinger(v), None


def _theta_from(args, params, entry):
    if getattr(args, "theta", None) is not None:
        theta = _parse(args.theta, params)
        if isinstance(theta, (QuasiRat, XRat)):
            raise UsageError("theta must be a polynomial in x")
        return theta
    if entry is not None and entry.theta is not None:
        return entry.theta
    raise UsageError("need --theta <polynomial> (no catalog theta available)")


def _verdict(claim: str, holds: bool, residual="", assumptions=(), **extra) -> dict:
    v = {"claim": claim, "holds": bool(holds), "residual": str(residual),
         "assumptions": [str(a) for a in assumptions]}
    v.update(extra)
    return v


def _report(command: str, inputs: dict, verdicts: list, provenance: list) -> dict:
    exit_code = 0 if all(v["holds"] for v in verdicts) else 1
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "provenance": provenance,
        "exit_code": exit_code,
    }


def _cmd_catalog(args) -> dict:
    ids = catalog_ids()
    verdicts = [_verdict("catalog listing", True, extra_count=len(ids))]
    listing = []
    for cid in ids:
        entry = get_entry(cid)
        listing.append({"id": cid, "kind": entry.kind, "provenance": entry.provenance,
                        "expected_to_hold": entry.expect_holds})
    return {
        "schema": SCHEMA,
        "command": "catalog list",
        "inputs": {},
        "entries": listing,
        "verdicts": verdicts,
        "provenance": [],
        "exit_code": 0,
    }


def _cmd_verify(args) -> dict:
    if args.all:
        ids = catalog_ids()
    else:
        if not args.id:
            raise UsageError("verify needs a catalog id or --all")
        ids = [args.id]
    verdicts = []
    provenance = []
    for cid in ids:
        entry = get_entry(cid)
        report = verify_entry(entry)
        provenance.append(f"{cid}: {entry.provenance}")
        extra = {"expected_to_hold": entry.expect_holds,
                 "matches_expectation": report.holds == entry.expect_holds}
        if entry.notes:
            extra["notes"] = entry.notes
        if args.all:
            # a flagged entry failing is documented behavior, not a failure
            verdicts.append(_verdict(cid, report.holds == entry.expect_holds,
                                     residual=report.residual, **extra))
        else:
            verdicts.append(_verdict(cid, report.holds, residual=report.residual, **extra))
    return _report("verify", {"ids": ids}, verdicts, provenance)


def _cmd_ad(args) -> dict:
    params = args.param
    op, entry = _schrodinger_from(args, params)
    theta = _theta_from(args, params, entry)
    power = ad_power(op, theta, args.j)
    verdicts = [_verdict(f"ad power {args.j}", True, residual=power,
                         order=power.order())]
    inputs = {"j": args.j, "L": args.L or args.catalog, "theta": str(theta)}
    return _report("ad", inputs, verdicts, [entry.provenance] if entry else [])


def _cmd_fit_weights(args) -> dict:
    params = args.param
    op, entry = _schrodinger_from(args, params)
    theta = _theta_from(args, params, entry)
    orders = _parse_orders(args.orders)
    result = fit_weights(op, theta, orders)
    verdicts = []
    for w in result.vectors:
        verdicts.append(_verdict(f"fitted condition with top order {w.top_order}", True,
                                 assumptions=result.assumptions,
                                 decided_by=result.decided_by,
                                 weights=_render_weights(w.monic())))
    if not result.vectors:
        verdicts.append(_verdict("no condition exists on the given orders", True,
                                 assumptions=result.assumptions,
                                 decided_by=result.decided_by))
    inputs = {"orders": orders, "L": args.L or args.catalog, "theta": str(theta)}
    prov = [entry.provenance] if entry else []
    if entry and entry.notes:
        prov.append(entry.notes)
    return _report("fit-weights", inputs, verdicts, prov)


def _cmd_solve_theta(args) -> dict:
    params = args.param
    op, entry = _schrodinger_from(args, params)
    w = _parse_weights(args.weights)
    result = solve_theta(op, w, args.deg, fix_zero=not args.allow_constant)
    verdicts = []
    for theta in result.thetas:
        verdicts.append(_verdict("eigenvalue polynomial", True,
                                 assumptions=result.assumptions,
                                 decided_by=result.decided_by, theta=str(theta)))
    if not result.thetas:
        verdicts.append(_verdict(
            "no eigenvalue polynomial exists at this degree bound", True,
            assumptions=result.assumptions, decided_by=result.decided_by))
    inputs = {"weights": _render_weights(w), "deg": args.deg,
              "L": args.L or args.catalog}
    return _report("solve-theta", inputs, verdicts,
                   [entry.provenance] if entry else [])


def _cmd_reach_weights(args) -> dict:
    w = reach_weights(args.n, SpectrumStep(_parse_step(args.step)))
    verdicts = [_verdict(f"ladder weights for n={args.n}, step={args.step}", True,
                         weights=_render_weights(w))]
    return _report("reach-weights", {"n": args.n, "step": args.step}, verdicts, [])


def _cmd_hermite_new_weights(args) -> dict:
    w = hermite_new_weights(args.k)
    verdicts = [_verdict(f"lowered condition weights for k={args.k}", True,
                         weights=_render_weights(w))]
    return _report("hermite-new-weights", {"k": args.k}, verdicts, [])


def _cmd_darboux(args) -> dict:
    params = args.param
    op, entry = _schrodinger_from(args, params)
    seed = _parse(args.seed, params)
    if not isinstance(seed, QuasiRat):
        seed = QuasiRat() * (XRat.from_poly(seed) if isinstance(seed, XPoly) else seed)
    new_op, record = darboux_step(op, seed)
    ok = intertwine_check(op, new_op, seed)
    verdicts = [_verdict("darboux step with intertwining check", ok,
                         eigenvalue=str(record.eigenvalue),
                         potential=str(record.output_v))]
    inputs = {"L": args.L or args.catalog, "seed": args.seed}
    return _report("darboux", inputs, verdicts, [entry.provenance] if entry else [])


def _cmd_gen_system(args) -> dict:
    w = _parse_weights(args.weights)
    system = generate_system(w, include_constant=args.allow_constant)
    verdicts = [_verdict(
        "constraint system generated", True,
        unknowns=system.unknowns,
        equations=[str(eq) for eq in system.equations],
        forced=[{ "unknown": name, "value": str(value)} for name, value in system.forced],
        cleared=system.cleared)]
    return _report("gen-system", {"weights": _render_weights(w)}, verdicts, [])


def _cmd_heisenberg(args) -> dict:
    params = args.param
    op, entry = _schrodinger_from(args, params)
    theta = _theta_from(args, params, entry)
    report = heisenberg_series(op, theta, args.order)
    relations = [{"from_order": j, "to_order": j + 2, "constant": str(c)}
                 for j, c in report.relations]
    verdicts = [_verdict(
        f"conjugation series to order {args.order}", True,
        relations=relations,
        rate=str(report.rate) if report.rate is not None else None,
        closed_form_matches={str(k): v for k, v in report.closed_form_matches.items()},
        even_chain_matches={str(k): v for k, v in report.even_chain_matches.items()},
        powers=[str(p) for p in report.powers])]
    inputs = {"order": args.order, "L": args.L or args.catalog, "theta": str(theta)}
    return _report("heisenberg", inputs, verdicts, [entry.provenance] if entry else [])


def _cmd_probe(args) -> dict:
    entry = get_entry(args.id)
    result = probe_entry(entry)
    sides = result["sides"]
    verdicts = [_verdict(f"convention probe for {args.id}", bool(sides),
                         sides=sides,
                         residual_left=str(result["left"].residual),
                         residual_right=str(result["right"].residual))]
    return _report("probe-convention", {"id": args.id}, verdicts, [entry.provenance])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one in the process: parse_args leaves it unchanged, and each call gets
    fresh defaults (``append`` copies the ``--param`` default list).  Each
    subcommand's ``func`` default binds its ``_cmd_*`` function when the
    parser is built, so a later rebinding of that name is not seen."""
    parser = argparse.ArgumentParser(
        prog="bispec",
        description="Exact verification and discovery of ad-conditions for "
                    "second-order differential operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expr_opts(p, theta=True):
        p.add_argument("--L", help="potential V of the operator -D^2 + V")
        p.add_argument("--catalog", "--catalog-id", dest="catalog",
                       help="catalog id supplying operator (and theta)")
        if theta:
            p.add_argument("--theta", help="eigenvalue polynomial in x")
        p.add_argument("--param", action="append", default=[],
                       help="declare a parameter name (repeatable)")

    p = sub.add_parser("catalog", help="list catalog entries")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="verify a catalog entry (or all)")
    p.add_argument("id", nargs="?", help="catalog id")
    p.add_argument("--all", action="store_true",
                   help="verify every entry against its documented expectation")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ad", help="compute an iterated commutator power")
    add_expr_opts(p)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=_cmd_ad)

    p = sub.add_parser("fit-weights", help="find conditions supported on given orders")
    add_expr_opts(p)
    p.add_argument("--orders", required=True, help="comma-separated commutator orders")
    p.set_defaults(func=_cmd_fit_weights)

    p = sub.add_parser("solve-theta", help="solve for eigenvalue polynomials")
    add_expr_opts(p, theta=False)
    p.add_argument("--weights", required=True, help="order:weight pairs, e.g. 3:1,1:-16")
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--allow-constant", action="store_true",
                   help="drop the Theta(0)=0 normalization")
    p.set_defaults(func=_cmd_solve_theta)

    p = sub.add_parser("reach-weights", help="ladder weights for a linear spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step", default="1", help="spectrum spacing (rational)")
    p.set_defaults(func=_cmd_reach_weights)

    p = sub.add_parser("hermite-new-weights", help="lowered condition weights")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_hermite_new_weights)

    p = sub.add_parser("darboux", help="one Darboux step from a seed eigenfunction")
    add_expr_opts(p, theta=False)
    p.add_argument("--seed", required=True, help="quasi-rational seed expression")
    p.set_defaults(func=_cmd_darboux)

    p = sub.add_parser("gen-system", help="generate the polynomial constraint system")
    p.add_argument("--weights", required=True)
    p.add_argument("--allow-constant", action="store_true")
    p.set_defaults(func=_cmd_gen_system)

    p = sub.add_parser("heisenberg", help="conjugation series and its relations")
    add_expr_opts(p)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_heisenberg)

    p = sub.add_parser("probe-convention", help="matrix action-side probe")
    p.add_argument("id", help="matrix catalog id")
    p.set_defaults(func=_cmd_probe)

    return parser


def run(argv=None) -> dict:
    """Parse arguments, execute, and return the report dict; :func:`main`
    prints it.  The parser is built once per process (:func:`build_parser`)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if not exc.code:  # --help and friends are not errors
            raise
        raise UsageError("invalid arguments") from exc
    for name in getattr(args, "param", ()):
        check_param_name(name)
    report = args.func(args)
    return report


def _summarize(report: dict, stream) -> None:
    print(f"# {report['command']}", file=stream)
    for v in report.get("verdicts", []):
        mark = "ok" if v["holds"] else "FAIL"
        print(f"  [{mark}] {v['claim']}", file=stream)
    print(f"# exit {report['exit_code']}", file=stream)


def main(argv=None) -> int:
    try:
        report = run(argv)
    except (UsageError, ParseError, ExactError, DarbouxError) as err:
        print(json.dumps({"schema": SCHEMA, "error": str(err), "exit_code": 2},
                         sort_keys=True))
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    _summarize(report, sys.stderr)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
