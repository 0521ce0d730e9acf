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
from .diffop import DiffOp, QuasiRat, XRat
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
from .darboux import darboux_step, intertwine_check
from .expr import TERMS_MAX, ParseError, parse_expr
from .families import catalog_ids, get_entry, probe_entry, verify_entry

SCHEMA = 1


class UsageError(ValueError):
    pass


def _check_limit(what: str, value: int) -> None:
    """Raise UsageError if value exceeds LIMITS[what]; no check for what ''."""
    if what and value > (limit := LIMITS[what]):
        raise UsageError(f"{what} {value} exceeds the limit {limit}")


def _parse_int(text: str, limit: str = "") -> int:
    """An integer, at most the LIMITS entry ``limit``."""
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"not an integer: {text!r}") from None
    _check_limit(limit, value)
    return value


def _parse_weights(text: str, limit: str = "") -> WeightVector:
    """Weights in the form '7:1,5:-14,3:49,1:-36' with rational values; each
    order at most once, and none above the LIMITS entry ``limit``."""
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
    _check_limit(limit, max(weights))
    return WeightVector(weights)


def _parse_step(text: str) -> Rat:
    """A rational spectrum spacing such as '2' or '1/3'."""
    try:
        return Rat(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad spectrum step {text!r}: {err}") from None


def _parse_orders(text: str, limit: str = "") -> list:
    """Commutator orders in the form '7,5,3,1', none above the LIMITS entry
    ``limit``."""
    try:
        orders = [int(s) for s in text.split(",")]
    except ValueError as err:
        raise UsageError(f"bad order list {text!r}: {err}") from None
    _check_limit(limit, max(orders))
    return orders


def _render_weights(w: WeightVector) -> dict:
    return {str(j): str(c) for j, c in w.items()}


def _schrodinger_from(args) -> tuple:
    """The operator of --catalog or --L, its catalog entry or None, the "L"
    input of the report and its provenance list."""
    name = args.L or args.catalog
    if args.catalog:
        entry = get_entry(args.catalog)
        if entry.kind != "scalar":
            raise UsageError(f"catalog entry {entry.id} is not a scalar operator")
        return entry.operator, entry, name, [entry.provenance]
    if args.L is None:
        raise UsageError("need --L <potential expression> or --catalog <id>")
    v = parse_expr(args.L, params=args.param)
    if isinstance(v, QuasiRat):
        raise UsageError("the potential must be rational, not quasi-rational")
    return DiffOp.schrodinger(v), None, name, []


def _theta_from(args, entry, order: int):
    """Theta of --theta or of the catalog entry, if an ad tower of it to
    ``order`` fits the commutator-order limit: an order j on a theta of x-degree
    d counts j * (j + d) against the limit's own count on theta = x."""
    if args.theta is not None:
        theta = parse_expr(args.theta, params=args.param)
        if isinstance(theta, (QuasiRat, XRat)):
            raise UsageError("theta must be a polynomial in x")
    elif entry is not None and entry.theta is not None:
        theta = entry.theta
    else:
        raise UsageError("need --theta <polynomial> (no catalog theta available)")
    limit, degree = LIMITS["commutator order"], theta.degree()
    if order * (order + degree) > limit * (limit + 1):
        raise UsageError(f"commutator order {order} on a theta of x-degree {degree} exceeds "
                         f"the limit {limit}: order * (order + x-degree) may be at most "
                         f"{limit} * {limit + 1}")
    return theta


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
    op, entry, name, provenance = _schrodinger_from(args)
    theta = _theta_from(args, entry, args.j)
    power = ad_power(op, theta, args.j)
    verdicts = [_verdict(f"ad power {args.j}", True, residual=power,
                         order=power.order())]
    inputs = {"j": args.j, "L": name, "theta": str(theta)}
    return _report("ad", inputs, verdicts, provenance)


def _cmd_fit_weights(args) -> dict:
    op, entry, name, provenance = _schrodinger_from(args)
    theta = _theta_from(args, entry, max(args.orders))
    result = fit_weights(op, theta, args.orders)
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
    inputs = {"orders": args.orders, "L": name, "theta": str(theta)}
    if entry and entry.notes:
        provenance.append(entry.notes)
    return _report("fit-weights", inputs, verdicts, provenance)


def _cmd_solve_theta(args) -> dict:
    op, _, name, provenance = _schrodinger_from(args)
    result = solve_theta(op, args.weights, args.deg, fix_zero=not args.allow_constant)
    verdicts = []
    for theta in result.thetas:
        verdicts.append(_verdict("eigenvalue polynomial", True,
                                 assumptions=result.assumptions,
                                 decided_by=result.decided_by, theta=str(theta)))
    if not result.thetas:
        verdicts.append(_verdict(
            "no eigenvalue polynomial exists at this degree bound", True,
            assumptions=result.assumptions, decided_by=result.decided_by))
    inputs = {"weights": _render_weights(args.weights), "deg": args.deg, "L": name}
    return _report("solve-theta", inputs, verdicts, provenance)


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
    op, _, name, provenance = _schrodinger_from(args)
    seed = parse_expr(args.seed, params=args.param)
    if not isinstance(seed, QuasiRat):
        seed = QuasiRat() * seed
    new_op, record = darboux_step(op, seed)
    ok = intertwine_check(op, new_op, seed)
    verdicts = [_verdict("darboux step with intertwining check", ok,
                         eigenvalue=str(record.eigenvalue),
                         potential=str(record.output_v))]
    return _report("darboux", {"L": name, "seed": args.seed}, verdicts, provenance)


def _cmd_gen_system(args) -> dict:
    system = generate_system(args.weights, include_constant=args.allow_constant)
    verdicts = [_verdict(
        "constraint system generated", True,
        unknowns=system.unknowns,
        equations=[str(eq) for eq in system.equations],
        forced=[{ "unknown": name, "value": str(value)} for name, value in system.forced],
        cleared=system.cleared)]
    return _report("gen-system", {"weights": _render_weights(args.weights)}, verdicts, [])


def _cmd_heisenberg(args) -> dict:
    op, entry, name, provenance = _schrodinger_from(args)
    theta = _theta_from(args, entry, args.order)
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
    inputs = {"order": args.order, "L": name, "theta": str(theta)}
    return _report("heisenberg", inputs, verdicts, provenance)


def _cmd_probe(args) -> dict:
    entry = get_entry(args.id)
    result = probe_entry(entry)
    sides = result["sides"]
    verdicts = [_verdict(f"convention probe for {args.id}", bool(sides),
                         sides=sides,
                         residual_left=str(result["left"].residual),
                         residual_right=str(result["right"].residual))]
    return _report("probe-convention", {"id": args.id}, verdicts, [entry.provenance])


_EXPR = {"--L": "value<=expression terms", "--catalog": "value", "--param": "repeat"}
_THETA = {**_EXPR, "--theta": "value<=expression terms"}
_ALIASES = {"--catalog-id": "--catalog"}
_HELP = ("-h", "--help")

# command: (function, help, positionals, options).  A positional ending in "?"
# may be left out; "name=word" accepts only that word.  An option's kind is
# "value" (a string), "int", "flag", "repeat" (a list, one item per use),
# "orders" or "weights" (the list or WeightVector of _parse_orders or
# _parse_weights); a trailing "!" makes it required, "value=text" gives it a
# default, and "<=name" bounds the value, its largest order or, for an
# expression, the terms of each value its parser builds by LIMITS[name].
COMMANDS = {
    "catalog": (_cmd_catalog, "list catalog entries", ("action=list",), {}),
    "verify": (_cmd_verify, "verify a catalog entry (or all)", ("id?",), {"--all": "flag"}),
    "ad": (_cmd_ad, "compute an iterated commutator power", (),
           {**_THETA, "--j": "int!<=commutator order"}),
    "fit-weights": (_cmd_fit_weights, "find conditions supported on given orders", (),
                    {**_THETA, "--orders": "orders!<=commutator order"}),
    "solve-theta": (_cmd_solve_theta, "solve for eigenvalue polynomials", (),
                    {**_EXPR, "--weights": "weights!<=solve-theta order",
                     "--deg": "int!<=--deg", "--allow-constant": "flag"}),
    "reach-weights": (_cmd_reach_weights, "ladder weights for a linear spectrum", (),
                      {"--n": "int!<=--n", "--step": "value=1"}),
    "hermite-new-weights": (_cmd_hermite_new_weights, "lowered condition weights", (),
                            {"--k": "int!<=--k"}),
    "darboux": (_cmd_darboux, "one Darboux step from a seed eigenfunction", (),
                {**_EXPR, "--seed": "value!<=expression terms"}),
    "gen-system": (_cmd_gen_system, "generate the polynomial constraint system", (),
                   {"--weights": "weights!<=weight order", "--allow-constant": "flag"}),
    "heisenberg": (_cmd_heisenberg, "conjugation series and its relations", (),
                   {**_THETA, "--order": "int!<=commutator order"}),
    "probe-convention": (_cmd_probe, "matrix action-side probe", ("id",), {}),
}
# the kinds parse_args reads as it parses, so a bad value or one above its
# limit is a usage error before any command starts
_READERS = {"int": _parse_int, "orders": _parse_orders, "weights": _parse_weights}

# The largest value of each size a command line sets; an option's spec in
# COMMANDS names the size that bounds it.  Each keeps the runs measured at it
# (2 cores, Python 3.11, fractions.Fraction) within about 14 s.  The times
# at the limits below were measured in process (cli.run) since ad towers
# fill half their orders from the formal adjoint, and the certificate times
# since rank certificates read one point functional in place of a jet tower;
# the others were measured before those changes, which only remove work, so
# they are upper bounds where they bound a time and stale where they say
# "over".  The limits themselves did not change with either:
# - commutator order, measured on towers that grow every step (--L
#   'x^2+1/x^2'; theta x^2 closes there and hides the growth): an order j on
#   a theta of x-degree d counts j * (j + d) (_theta_from), since a larger
#   theta makes each step larger.  At that count's limit, 70 * 71, fit-weights
#   --orders 70,1 took 0.06 s on --theta x and at 68 on (x+1)^5 (decided by
#   the rank certificate), ad --j 68 3.7 s and heisenberg --order 68 3.9 s on
#   x^3, ad --j 53 4.5 s and heisenberg --order 53 4.7 s on (x+1)^40, ad --j
#   36 3.1 s on (x+1)^100 and --j 9 0.3 s on (x+1)^499.  Beyond it:
#   fit_weights on orders 80,1 0.09 s on x^3 (called directly), and ad --j
#   60 over 60 s on (x+1)^499, before the adjoint step.
# - solve-theta order and --deg: solve-theta's rank certificate costs about
#   order^3 per monomial and point; at 30 and 30 it took 0.11-0.16 s on
#   x^2+1/x^2, laguerre-step:2 and ansatz:A5-5A3+4A1:7 (2.5-3.5 s with a jet
#   tower).  Past the limits, on x^2+1/x^2: 30 and 40 0.29 s, 100 and 2
#   0.24 s, 2 and 300 3.5 s (solve_theta called directly).
# - weight order: gen-system --weights 6:1,0:1 1.0 s (7, before the adjoint
#   step: over 15 s).
# - --n and --k: reach-weights --n 800 3.9 s and hermite-new-weights --k 1400
#   3.1 s; from 900 and 1600 on, the weights no longer print within Python's
#   4 300-digit limit on integer strings.
LIMITS = {"commutator order": 70, "solve-theta order": 30, "--deg": 30, "weight order": 6,
          "--n": 800, "--k": 1400, "expression terms": TERMS_MAX}


def _help(command=None):
    """Print the commands, or one command's row of COMMANDS; exit 0."""
    lines = ["usage: bispec <command> [options]; bispec <command> --help lists its options"]
    lines += [f"  {name:<20} {spec[1]}" for name, spec in COMMANDS.items()]
    if command is not None:
        _, text, positionals, options = COMMANDS[command]
        words = [f"[{p[:-1]}]" if p[-1] == "?" else p.partition("=")[2] or p for p in positionals]
        lines = [f"usage: bispec {' '.join([command, *words])} [options]", text,
                 "options, by kind (value, int, orders, weights, flag, repeat; "
                 "! required, =default, <=limit):"]
        lines += [f"  {name:<18} {spec}" for name, spec in options.items()]
        lines += [f"  {a:<18} alias of {o}" for a, o in _ALIASES.items() if o in options]
    lines += ["limits (larger values exit 2):"]
    for what, limit in LIMITS.items():
        where = [f"{c} {o}" for c, spec in COMMANDS.items() for o, k in spec[3].items()
                 if k.endswith(f"<={what}")]
        lines.append(f"  {what} at most {limit}: {', '.join(where)}")
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
    kinds, limits, values, words, tokens = {}, {}, {}, [], iter(rest)
    for name, spec in options.items():
        spec, _, limits[name] = spec.partition("<=")
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
        if kind in _READERS:
            try:
                value = _READERS[kind](value, limits[name])
            except UsageError as err:
                raise UsageError(f"{command}: {name}: {err}") from None
        values[name] = values[name] + [value] if kind == "repeat" else kind == "flag" or value
    for name, spec in options.items():
        if spec.partition("<=")[0].endswith("!") and values[name] is None:
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
    except (UsageError, ParseError, ExactError) as err:
        print(json.dumps({"schema": SCHEMA, "error": str(err), "exit_code": 2},
                         sort_keys=True))
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    _summarize(report, sys.stderr)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
