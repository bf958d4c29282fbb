"""Command-line front end.

Subcommands: ``axioms`` (audit a game's pricing functionals), ``expect``
(conditional upper/lower expectation of a payoff), ``simulate`` (capital
processes and the named constructions over a path, with an exact CSV
trace), ``verify`` (check a capital table), ``law`` (the finite-horizon
law experiments).  Exit codes: 0 computed and every checked property
holds, 1 a property was violated (witness printed), 2 input error.

Numbers print in the exact ``p/q`` form and outputs are byte-stable for
identical inputs.  The ``GTP_MAX_DEPTH`` environment variable raises the
dense-table depth cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from gtprob.extreal import ext
from gtprob.functionals import Measure, UnknownGambleError, check_axioms
from gtprob.gametree import (
    EMPTY,
    BudgetViolation,
    GameSpec,
    Strategy,
    Supermartingale,
    capital_process,
    format_situation,
    parse_situation,
    verify_supermartingale,
)
from gtprob.expectation import (
    EventWindow,
    Payoff,
    indicator,
    lower_expectation,
    path_values,
    sup_variant_upper_expectation,
    upper_expectation,
)
from gtprob.forecaster import ForecastError, Protocol2Spec, delta_mixing_check
from gtprob.laws import (
    ergodic_bound,
    kolmogorov_invariance,
    levy_experiment,
    require_levy_path,
    zero_one_classify,
)
from gtprob.strategies import doob_upcrossing, levy_strategy, require_band
from gtprob.serialize import (
    SchemaError,
    _at,
    _extreal,
    _fraction,
    _integer,
    csv_text,
    forecasting_system_from_json,
    load_spec,
    payoff_from_json,
    read_file,
    supermartingale_from_csv,
    supermartingale_to_csv,
    window_from_json,
)

def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_payoff(raw: str, game: GameSpec) -> Payoff:
    """A payoff file, or a shorthand: e_w<k> (indicator of coordinate k
    being "1"), leading_ones:<cap>, const:<value>, settled by the horizon."""
    if os.path.exists(raw):
        xi = payoff_from_json(read_file(raw, "/payoff"), game)
    elif raw.startswith("e_w"):
        k = _integer(raw[3:], "/payoff")
        if "1" not in game.outcomes:
            raise SchemaError("/payoff", "e_w shorthand needs an outcome labeled '1'")
        with _at("/payoff"):
            xi = indicator(EventWindow.coordinate_is(k, "1"))
    elif raw.startswith("leading_ones:"):
        cap = _fraction(raw.split(":", 1)[1], "/payoff")
        if "1" not in game.outcomes:
            raise SchemaError("/payoff", "leading_ones shorthand needs an outcome labeled '1'")
        with _at("/payoff"):
            xi = Payoff.leading_ones_capped(cap, game.horizon)
    elif raw.startswith("const:"):
        xi = Payoff.constant(_extreal(raw.split(":", 1)[1], "/payoff"), game.horizon)
    else:
        raise SchemaError("/payoff", f"no such file and not a recognized shorthand: {raw!r}")
    with _at("/payoff"):
        xi.require_within(game.horizon)
    return xi


def _parse_event(raw: str, game: GameSpec) -> EventWindow:
    """An event file or shorthand (omega, empty, w<k>=<label>) whose
    window ends within the game horizon."""
    if os.path.exists(raw):
        event = window_from_json(read_file(raw, "/event"), game.outcomes)
    elif raw == "omega":
        event = EventWindow.whole_space()
    elif raw == "empty":
        event = EventWindow.empty()
    elif raw.startswith("w") and "=" in raw:
        idx, lab = raw[1:].split("=", 1)
        if lab not in game.outcomes:
            raise SchemaError("/event", f"unknown outcome {lab!r}")
        with _at("/event"):
            event = EventWindow.coordinate_is(_integer(idx, "/event"), lab)
    else:
        raise SchemaError("/event", f"no such file and not a recognized shorthand: {raw!r}")
    with _at("/event"):
        event.require_within(game.horizon)
    return event


def _parse_situation(raw: str, game: GameSpec) -> tuple[str, ...]:
    with _at("/situation"):
        return game.validate_situation(parse_situation(raw, game.outcomes))


def _parse_path(raw: str, game: GameSpec, where: str) -> tuple[str, ...]:
    """A comma-separated path within the horizon, read for flag ``where``."""
    with _at(where):
        return game.validate_situation(tuple(raw.split(",")) if raw else ())


def _strategy_numbers(name: str, usage: str) -> tuple[Fraction, Fraction, list[str]]:
    """The band ``a,b`` of a construction named ``kind:a,b[,slack]``, and
    the parts after it, as many as ``usage`` allows."""
    parts = name.split(":", 1)[1].split(",")
    if not 2 <= len(parts) <= usage.count(",") + 1:
        raise SchemaError("/strategy", f"expected {usage}, got {name!r}")
    a, b = (_fraction(t, "/strategy") for t in parts[:2])
    with _at("/strategy"):
        require_band(a, b, *parts[2:])
    return a, b, parts[2:]


def _read_table(path: str, game: GameSpec, where: str) -> Supermartingale:
    """The capital table CSV at flag ``where``, no deeper than the horizon."""
    sm = supermartingale_from_csv(read_file(path, where, str), game.outcomes)
    with _at(where):
        sm.require_within(game.horizon)
    return sm


def _default_base(game: GameSpec) -> Supermartingale:
    """Step-multiplier base when the first round is a measure putting mass
    at most 2/3 on the last outcome; constant 1 otherwise."""
    content = game.content_at(1)
    if game.depth_independent and isinstance(content, Measure):
        p_last = content.probs[-1]
        if 0 < p_last <= Fraction(2, 3):
            up = Fraction(3, 2)
            rest = (1 - up * p_last) / (1 - p_last)
            last = game.outcomes.labels[-1]
            value = functools.cache(lambda c, n: ext(up**c * rest ** (n - c)))
            return Supermartingale.from_fn(game, lambda s: value(s.count(last), len(s)))
    return Supermartingale.constant(game, 1)


def _write_file(path: str | None, where: str, text: str) -> None:
    """Write ``text`` to the file given by flag ``where``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(where, f"cannot write {path}: {exc}") from exc


# -- subcommands ----------------------------------------------------------


def cmd_axioms(args, game: GameSpec) -> int:
    all_ok = True
    for i, content in enumerate(dict.fromkeys(game.contents)):
        report = check_axioms(content)
        print(f"functional {i}: {type(content).__name__}")
        print(str(report))
        all_ok = all_ok and report.all_passed
    return 0 if all_ok else 1


def cmd_expect(args, game: GameSpec) -> int:
    xi = _parse_payoff(args.payoff, game)
    s = _parse_situation(args.situation, game)
    if args.variant == "sup":
        if s != EMPTY:
            raise SchemaError("/situation", "the sup variant is defined at the root only")
        if args.lower:
            raise SchemaError("/lower", "the sup variant has no lower form")
        value = sup_variant_upper_expectation(game, xi)
    elif args.lower:
        value = lower_expectation(game, xi, s)
    else:
        value = upper_expectation(game, xi, s)
    print(str(value))
    return 0


def cmd_simulate(args, game: GameSpec) -> int:
    path = _parse_path(args.path, game, "/path")
    xi = _parse_payoff(args.payoff, game) if args.payoff else None
    prefixes = [path[:n] for n in range(len(path) + 1)]
    name = args.strategy
    plain = name in ("doubling", "donothing")
    if args.base and (plain or name.startswith("levy:")):
        raise SchemaError("/strategy", "--base applies to the doob construction only")
    if plain and (args.table or args.cuts):
        raise SchemaError("/strategy", "--table and --cuts apply to the doob/levy constructions only")
    res = cond = None  # the construction's result; the conditional column
    if plain:
        last = game.outcomes.labels[-1]
        strat = Strategy.double_on(game, last) if name == "doubling" else Strategy.do_nothing(game)
        try:
            capitals = capital_process(game, strat, path)
        except BudgetViolation as exc:  # a built-in strategy overspent: a violated property
            where = format_situation(exc.situation, game.outcomes) or "□"
            print(f"{where}: gamble priced {exc.price} exceeds capital {exc.capital}")
            return 1
    elif name.startswith("doob:"):
        a, b, _ = _strategy_numbers(name, "doob:a,b")
        base = _read_table(args.base, game, "/base") if args.base else _default_base(game)
        res = doob_upcrossing(game, base, a, b)
        words = ("upcross", "drop")
    elif name.startswith("levy:"):
        a, b, slack = _strategy_numbers(name, "levy:a,b[,dyadic]")
        if xi is None:
            raise SchemaError("/payoff", "the levy construction needs --payoff")
        res = levy_strategy(game, xi, a, b, slack=slack[0] if slack else "none")
        cond = [res.cond_table.value(s) for s in prefixes]  # the shifted payoff's, which the ride follows
        words = ("exit", "enter")
    else:
        raise SchemaError(
            "/strategy",
            f"unknown strategy {name!r}; use doubling, donothing, doob:a,b or levy:a,b[,dyadic]",
        )
    if res is not None:
        capitals = [res.table.value(s) for s in prefixes]
    if cond is None:
        cond = [""] * len(prefixes) if xi is None else path_values(game, xi)(path)

    rows = []
    for n, s in enumerate(prefixes):
        # The note names the last of the construction's cuts that holds s.
        note = ""
        for k in range(1, len(res.trace.sigma) if res else 0):
            if s in res.trace.sigma[k]:
                note = f"{words[0]} {k}"
            if s in res.trace.tau[k]:
                note = f"{words[1]} {k}"
        rows.append([str(n), format_situation(s, game.outcomes), str(capitals[n]), str(cond[n]), note])

    if args.table:
        _write_file(args.table, "/table", supermartingale_to_csv(res.table, game.outcomes))
    if args.cuts:
        cuts = res.trace.to_json(lambda s: format_situation(s, game.outcomes))
        _write_file(args.cuts, "/cuts", json.dumps(cuts, sort_keys=True, indent=2) + "\n")

    _write_file(args.trace, "/trace", csv_text(["n", "situation", "capital", "conditional_upper", "note"], rows))
    return 0


def cmd_verify(args, game: GameSpec) -> int:
    res = verify_supermartingale(game, _read_table(args.supermartingale, game, "/supermartingale"))
    if res.ok:
        kind = "martingale" if res.martingale else "supermartingale"
        print(f"ok: {kind} up to depth {res.checked_depth}")
        return 0
    print(res.witness_str(game.outcomes))
    return 1


def cmd_law_levy(args, game: GameSpec) -> int:
    xi = _parse_payoff(args.payoff, game)
    paths = [_parse_path(p, game, "/paths") for p in args.paths.split(";")] if args.paths else []
    with _at("/paths"):
        for path in paths:
            require_levy_path(xi, path)
    report = levy_experiment(game, xi, paths)
    if args.trace:
        _write_file(args.trace, "/trace", csv_text(["n", "situation", "value"], report.trace_rows()))
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return 0 if report.all_terminal_ok else 1


def cmd_law_kolmogorov(args, game: GameSpec) -> int:
    report = kolmogorov_invariance(game, _parse_event(args.event, game))
    print(str(report))
    ok = report.invariant and report.witness_ok in (True, None)
    return 0 if ok else 1


def cmd_law_ergodic(args, game: GameSpec) -> int:
    with _at("/"):  # the spec, not a flag, is at fault
        game.require_depth_independent("shift bound")
    event = _parse_event(args.event, game)
    report = ergodic_bound(game, event, _parse_situation(args.situation, game))
    print(str(report))
    ok = report.condition_holds and report.bound_holds and report.witness_ok
    return 0 if ok else 1


def cmd_law_classify(args, game: GameSpec) -> int:
    event = _parse_event(args.event, game)
    report = zero_one_classify(game, event)
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return 0


def cmd_law_mixing(args, spec: Protocol2Spec) -> int:
    phi = forecasting_system_from_json(read_file(args.system, "/system"), spec)
    events = [window_from_json(read_file(raw, "/events"), spec.outcomes) for raw in args.events.split(";")]
    with _at("/events"):
        for event in events:
            event.require_within(spec.horizon)
    delta = _fraction(args.delta, "/delta")
    # The check conditions on prefixes of length n only when an event starts at n + gap or later.
    if args.max_prefix > spec.horizon and any(e.start > spec.horizon + args.gap for e in events):
        raise SchemaError("/max-prefix", "outcome path longer than the horizon")
    try:
        report = delta_mixing_check(phi, delta, args.gap, events, max_prefix=args.max_prefix)
    except ForecastError as exc:
        raise SchemaError("/system", str(exc)) from exc
    print(str(report))
    return 0 if report.violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtprob",
        description="Exact finite-horizon game-theoretic probability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="audit a game's pricing functionals")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("expect", help="conditional upper/lower expectation")
    p.add_argument("spec")
    p.add_argument("--payoff", required=True)
    p.add_argument("--situation", default="")
    p.add_argument("--variant", choices=["liminf", "sup"], default="liminf")
    p.add_argument("--lower", action="store_true")
    p.set_defaults(fn=cmd_expect)

    p = sub.add_parser("simulate", help="run a strategy or construction over a path")
    p.add_argument("spec")
    p.add_argument("--strategy", required=True)
    p.add_argument("--path", required=True, help="comma-separated outcomes")
    p.add_argument("--payoff")
    p.add_argument("--base", help="CSV base table for doob")
    p.add_argument("--trace", help="write the trace CSV here instead of stdout")
    p.add_argument("--table", help="write the full capital table CSV (constructions)")
    p.add_argument("--cuts", help="write the cut-trace JSON sidecar (constructions)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="check a capital table from CSV")
    p.add_argument("spec")
    p.add_argument("--supermartingale", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("law", help="finite-horizon law experiments")
    p.add_argument("spec")
    modes = p.add_subparsers(dest="mode", required=True)
    event = argparse.ArgumentParser(add_help=False)
    event.add_argument("--event", required=True)
    m = modes.add_parser("levy", help="conditional expectations along paths")
    m.add_argument("--payoff", required=True)
    m.add_argument("--paths", help="semicolon-separated comma paths")
    m.add_argument("--trace", help="write the path values as CSV here")
    m.set_defaults(fn=cmd_law_levy)
    m = modes.add_parser("kolmogorov", parents=[event], help="invariance across ignored prefixes")
    m.set_defaults(fn=cmd_law_kolmogorov)
    m = modes.add_parser("ergodic", parents=[event], help="shift bound for a weakly invariant event")
    m.add_argument("--situation", default="")
    m.set_defaults(fn=cmd_law_ergodic)
    m = modes.add_parser("mixing", help="delta-mixing under a forecasting system")
    m.add_argument("--system", required=True, help="forecasting system JSON")
    m.add_argument("--events", required=True, help="semicolon-separated window files")
    m.add_argument("--delta", default="0")
    m.add_argument("--gap", type=int, default=1)
    m.add_argument("--max-prefix", type=int, default=2)
    m.set_defaults(fn=cmd_law_mixing)
    m = modes.add_parser("classify", parents=[event], help="zero-one classification at the game horizon")
    m.set_defaults(fn=cmd_law_classify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, load the spec once and check its kind, then run the
    handler on it; an input error at any of these steps exits 2, and a
    violated property (an ``AssertionError``) is printed and exits 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec)
        if args.fn is cmd_law_mixing:
            if not isinstance(spec, Protocol2Spec):
                raise SchemaError("/", "mixing needs a forecaster spec with a 'predictions' field")
        elif isinstance(spec, Protocol2Spec):
            if args.command == "law":
                raise SchemaError("/", f"law {args.mode} needs a basic game spec")
            raise SchemaError("/", "this command needs a basic game spec, not a forecaster spec")
        return args.fn(args, spec)
    except UnknownGambleError as exc:
        return _fail(exc.args[0])
    except (OSError, ValueError) as exc:  # SchemaError, DepthCapError and JSONDecodeError too
        return _fail(str(exc))
    except AssertionError as exc:  # a violated property, e.g. a negative Lévy conditional
        print(exc)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
