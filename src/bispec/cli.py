"""Command-line interface: catalog access, verification, fitting, solving.

Every invocation writes one JSON report to stdout (schema 1, keys sorted,
deterministic for identical inputs) and a short human summary to stderr.
Exit codes: 0 every claim holds, 1 at least one claim fails, 2 usage or
parse error.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .exact import ExactError, Rat, check_param_name
from .diffop import DiffOp, QuasiRat, XPoly, XRat
from .adcond import (
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


def _schrodinger_from(args) -> DiffOp:
    if args.catalog:
        entry = get_entry(args.catalog)
        if entry.kind != "scalar":
            raise UsageError(f"catalog entry {entry.id} is not a scalar operator")
        return entry.operator, entry
    if args.L is None:
        raise UsageError("need --L <potential expression> or --catalog <id>")
    v = parse_expr(args.L, params=args.param)
    if isinstance(v, QuasiRat):
        raise UsageError("the potential must be rational, not quasi-rational")
    if isinstance(v, XPoly):
        v = XRat.from_poly(v)
    return DiffOp.schrodinger(v), None


def _theta_from(args, entry):
    if args.theta is not None:
        theta = parse_expr(args.theta, params=args.param)
        if isinstance(theta, (QuasiRat, XRat)):
            raise UsageError("theta must be a polynomial in x")
        return theta
    if entry is not None and entry.theta is not None:
        return entry.theta
    raise UsageError("need --theta <polynomial> (no catalog theta available)")


def _verdict(claim: str, holds: bool, residual="", assumptions=(), **extra) -> dict:
    """One verdict; a ``residual`` of None leaves the key out."""
    v = {"claim": claim, "holds": bool(holds), "assumptions": [str(a) for a in assumptions]}
    if residual is not None:
        v["residual"] = str(residual)
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
    report = _report("catalog list", {}, verdicts, [])
    report["entries"] = listing
    return report


def _cmd_verify(args) -> dict:
    if args.all:
        if args.id:
            raise UsageError("verify takes a catalog id or --all, not both")
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
                 "matches_expectation": report.holds == entry.expect_holds,
                 "decided_by": report.decided_by}
        if report.witness is not None:
            extra["witness"] = report.witness
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
    op, entry = _schrodinger_from(args)
    theta = _theta_from(args, entry)
    power = ad_power(op, theta, args.j)
    verdicts = [_verdict(f"ad power {args.j}", True, residual=power,
                         order=power.order())]
    inputs = {"j": args.j, "L": args.L or args.catalog, "theta": str(theta)}
    return _report("ad", inputs, verdicts, [entry.provenance] if entry else [])


def _cmd_fit_weights(args) -> dict:
    op, entry = _schrodinger_from(args)
    theta = _theta_from(args, entry)
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
    op, entry = _schrodinger_from(args)
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
    w = reach_weights(args.n, _parse_step(args.step))
    verdicts = [_verdict(f"ladder weights for n={args.n}, step={args.step}", True,
                         weights=_render_weights(w))]
    return _report("reach-weights", {"n": args.n, "step": args.step}, verdicts, [])


def _cmd_hermite_new_weights(args) -> dict:
    w = hermite_new_weights(args.k)
    verdicts = [_verdict(f"lowered condition weights for k={args.k}", True,
                         weights=_render_weights(w))]
    return _report("hermite-new-weights", {"k": args.k}, verdicts, [])


def _cmd_darboux(args) -> dict:
    op, entry = _schrodinger_from(args)
    seed = parse_expr(args.seed, params=args.param)
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
    op, entry = _schrodinger_from(args)
    theta = _theta_from(args, entry)
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


_EXPR = {"--L": "value", "--catalog": "value", "--param": "repeat"}
_THETA = {**_EXPR, "--theta": "value"}
_ALIASES = {"--catalog-id": "--catalog"}
_HELP = ("-h", "--help")

# command: (function, help, positionals, options).  A positional ending in "?"
# may be left out; "name=word" accepts only that word.  An option's kind is
# "value" (a string), "int", "flag" or "repeat" (a list, one item per use); a
# trailing "!" makes it required, and "value=text" gives it a default.
COMMANDS = {
    "catalog": (_cmd_catalog, "list catalog entries", ("action=list",), {}),
    "verify": (_cmd_verify, "verify a catalog entry (or all)", ("id?",), {"--all": "flag"}),
    "ad": (_cmd_ad, "compute an iterated commutator power", (), {**_THETA, "--j": "int!"}),
    "fit-weights": (_cmd_fit_weights, "find conditions supported on given orders", (),
                    {**_THETA, "--orders": "value!"}),
    "solve-theta": (_cmd_solve_theta, "solve for eigenvalue polynomials", (),
                    {**_EXPR, "--weights": "value!", "--deg": "int!", "--allow-constant": "flag"}),
    "reach-weights": (_cmd_reach_weights, "ladder weights for a linear spectrum", (),
                      {"--n": "int!", "--step": "value=1"}),
    "hermite-new-weights": (_cmd_hermite_new_weights, "lowered condition weights", (),
                            {"--k": "int!"}),
    "darboux": (_cmd_darboux, "one Darboux step from a seed eigenfunction", (),
                {**_EXPR, "--seed": "value!"}),
    "gen-system": (_cmd_gen_system, "generate the polynomial constraint system", (),
                   {"--weights": "value!", "--allow-constant": "flag"}),
    "heisenberg": (_cmd_heisenberg, "conjugation series and its relations", (),
                   {**_THETA, "--order": "int!"}),
    "probe-convention": (_cmd_probe, "matrix action-side probe", ("id",), {}),
}


def _help(command=None):
    """Print the commands, or one command's row of COMMANDS; exit 0."""
    lines = ["usage: bispec <command> [options]; bispec <command> --help lists its options"]
    lines += [f"  {name:<20} {spec[1]}" for name, spec in COMMANDS.items()]
    if command is not None:
        _, text, positionals, options = COMMANDS[command]
        words = [f"[{p[:-1]}]" if p[-1] == "?" else p.partition("=")[2] or p for p in positionals]
        lines = [f"usage: bispec {' '.join([command, *words])} [options]", text,
                 "options, by kind (value, int, flag, repeat; ! required, =default):"]
        lines += [f"  {name:<18} {spec}" for name, spec in options.items()]
        lines += [f"  {a:<18} alias of {o}" for a, o in _ALIASES.items() if o in options]
    print("\n".join(lines))
    raise SystemExit(0)


def parse_args(argv) -> SimpleNamespace:
    """The namespace of one command line, read from :data:`COMMANDS`: ``command``,
    ``func`` and an attribute per positional and option (``--allow-constant`` gives
    ``allow_constant``).  Options take ``--name value`` or ``--name=value`` in any
    order, the last one given wins; bad usage raises :class:`UsageError`."""
    command, *rest = argv or [""]
    if command in _HELP:
        _help()
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; commands: {', '.join(COMMANDS)}")
    func, _, positionals, options = COMMANDS[command]
    kinds, values, words, tokens = {}, {}, [], iter(rest)
    for name, spec in options.items():
        kinds[name], _, default = spec.rstrip("!").partition("=")
        values[name] = {"repeat": [], "flag": False}.get(kinds[name], default or None)
    for token in tokens:
        if token in _HELP:
            _help(command)
        if not token.startswith("--"):
            words.append(token)
            continue
        name, has_value, value = token.partition("=")
        name = _ALIASES.get(name, name)
        kind = kinds.get(name)
        if kind is None or kind == "flag" and has_value:
            raise UsageError(f"{command}: unknown option {token!r}")
        if kind != "flag" and not has_value and (value := next(tokens, None)) is None:
            raise UsageError(f"{command}: {name} needs a value")
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{command}: {name} takes an integer, not {value!r}") from None
        values[name] = values[name] + [value] if kind == "repeat" else kind == "flag" or value
    for name, spec in options.items():
        if spec.endswith("!") and values[name] is None:
            raise UsageError(f"{command}: missing required option {name}")
    for spec in positionals:
        name, _, word = spec.rstrip("?").partition("=")
        values[name] = words.pop(0) if words else None
        if values[name] is None and not spec.endswith("?"):
            raise UsageError(f"{command}: missing {name}")
        if word and values[name] != word:
            raise UsageError(f"{command}: {name} must be {word!r}, not {values[name]!r}")
    if words:
        raise UsageError(f"{command}: unexpected argument {words[0]!r}")
    values = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, func=func, **values)


def run(argv=None) -> dict:
    """Parse ``argv`` (default ``sys.argv[1:]``) with :func:`parse_args`, check the
    declared parameter names, run the command and return the report dict."""
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    for name in getattr(args, "param", ()):
        check_param_name(name)
    return args.func(args)


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
