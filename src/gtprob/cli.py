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
import csv
import json
import os
import sys
from fractions import Fraction

from gtprob.extreal import ext
from gtprob.functionals import UnknownGambleError, check_axioms
from gtprob.gametree import (
    EMPTY,
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
    sup_variant_upper_expectation,
    upper_expectation,
)
from gtprob.forecaster import Protocol2Spec
from gtprob.laws import (
    ergodic_bound,
    kolmogorov_invariance,
    levy_experiment,
    zero_one_classify,
)
from gtprob.strategies import doob_upcrossing, levy_strategy
from gtprob.serialize import (
    SchemaError,
    _extreal,
    _fraction,
    forecasting_system_from_json,
    load_spec,
    payoff_from_json,
    supermartingale_from_csv,
    window_from_json,
)

TRACE_COLUMNS = ["n", "situation", "capital", "conditional_upper", "note"]


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_game(path: str) -> GameSpec:
    spec = load_spec(path)
    if isinstance(spec, Protocol2Spec):
        raise SchemaError("/", "this command needs a basic game spec, not a forecaster spec")
    return spec


def _parse_payoff(raw: str, game: GameSpec) -> Payoff:
    """A payoff file, or a shorthand: e_w<k> (indicator of coordinate k
    being "1"), leading_ones:<cap>, const:<value>."""
    if os.path.exists(raw):
        with open(raw) as fh:
            return payoff_from_json(json.load(fh), game)
    if raw.startswith("e_w"):
        k = int(raw[3:])
        if "1" not in game.outcomes:
            raise SchemaError("/payoff", "e_w shorthand needs an outcome labeled '1'")
        return indicator(EventWindow.coordinate_is(k, "1"))
    if raw.startswith("leading_ones:"):
        return Payoff.leading_ones_capped(_fraction(raw.split(":", 1)[1], "/payoff"), game.horizon)
    if raw.startswith("const:"):
        return Payoff.constant(_extreal(raw.split(":", 1)[1], "/payoff"), game.horizon)
    raise SchemaError("/payoff", f"no such file and not a recognized shorthand: {raw!r}")


def _parse_event(raw: str, game: GameSpec) -> EventWindow:
    if os.path.exists(raw):
        with open(raw) as fh:
            return window_from_json(json.load(fh), game.outcomes)
    if raw == "omega":
        return EventWindow.whole_space()
    if raw == "empty":
        return EventWindow.empty()
    if raw.startswith("w") and "=" in raw:
        idx, lab = raw[1:].split("=", 1)
        if lab not in game.outcomes:
            raise SchemaError("/event", f"unknown outcome {lab!r}")
        return EventWindow.coordinate_is(int(idx), lab)
    raise SchemaError("/event", f"no such file and not a recognized shorthand: {raw!r}")


def _parse_path(raw: str, game: GameSpec) -> tuple[str, ...]:
    if raw == "":
        return ()
    parts = tuple(raw.split(","))
    return game.validate_situation(parts)


def _default_base(game: GameSpec) -> Supermartingale:
    """Step-multiplier base when the first round is a measure putting mass
    at most 2/3 on the last outcome; constant 1 otherwise."""
    from gtprob.functionals import Measure

    content = game.content_at(1)
    if game.depth_independent and isinstance(content, Measure):
        p_last = content.probs[-1]
        if 0 < p_last <= Fraction(2, 3):
            up = Fraction(3, 2)
            rest = (1 - up * p_last) / (1 - p_last)
            factors = [rest] * (len(game.outcomes) - 1) + [up]

            def fn(s):
                v = Fraction(1)
                for x in s:
                    v *= factors[game.outcomes.index(x)]
                return ext(v)

            return Supermartingale.from_fn(game, fn)
    return Supermartingale.constant(game, 1)


def _write_trace(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


# -- subcommands ----------------------------------------------------------


def cmd_axioms(args) -> int:
    game = _load_game(args.spec)
    distinct = []
    for c in game.contents:
        if all(c != d for d in distinct):
            distinct.append(c)
    all_ok = True
    for i, content in enumerate(distinct):
        report = check_axioms(content)
        print(f"functional {i}: {type(content).__name__}")
        print(str(report))
        all_ok = all_ok and report.all_passed
    return 0 if all_ok else 1


def cmd_expect(args) -> int:
    game = _load_game(args.spec)
    xi = _parse_payoff(args.payoff, game)
    s = parse_situation(args.situation, game.outcomes)
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


def _cut_rows(game, path, table, trace, cond_at, sigma_word: str, tau_word: str) -> list[list[str]]:
    """Trace rows of a construction along ``path``; the note names the
    last of the trace's sigma/tau cuts that holds the situation."""
    rows = []
    for n in range(len(path) + 1):
        s = path[:n]
        note = ""
        for k in range(1, len(trace.sigma)):
            if s in trace.sigma[k]:
                note = f"{sigma_word} {k}"
            if k < len(trace.tau) and s in trace.tau[k]:
                note = f"{tau_word} {k}"
        rows.append([str(n), format_situation(s, game.outcomes), str(table.value(s)), cond_at(s), note])
    return rows


def cmd_simulate(args) -> int:
    game = _load_game(args.spec)
    path = _parse_path(args.path, game)
    xi = _parse_payoff(args.payoff, game) if args.payoff else None
    rows: list[list[str]] = []
    built = None  # (table, trace) for the named constructions

    def cond_at(s) -> str:
        if xi is None:
            return ""
        return str(upper_expectation(game, xi, s))

    name = args.strategy
    if name in ("doubling", "donothing"):
        strat = (
            Strategy.double_on(game, game.outcomes.labels[-1])
            if name == "doubling"
            else Strategy.do_nothing(game)
        )
        capitals = capital_process(game, strat, path)
        for n, k in enumerate(capitals):
            rows.append([str(n), format_situation(path[:n], game.outcomes), str(k), cond_at(path[:n]), ""])
    elif name.startswith("doob:"):
        a, b = (_fraction(t, "/strategy") for t in name.split(":", 1)[1].split(","))
        if args.base:
            with open(args.base) as fh:
                base = supermartingale_from_csv(fh.read(), game.outcomes)
        else:
            base = _default_base(game)
        res = doob_upcrossing(game, base, a, b)
        built = (res.table, res.trace)
        rows = _cut_rows(game, path, res.table, res.trace, cond_at, "upcross", "drop")
    elif name.startswith("levy:"):
        parts = name.split(":", 1)[1].split(",")
        a, b = _fraction(parts[0], "/strategy"), _fraction(parts[1], "/strategy")
        slack = parts[2] if len(parts) > 2 else "none"
        if xi is None:
            raise SchemaError("/payoff", "the levy construction needs --payoff")
        res = levy_strategy(game, xi, a, b, slack=slack)
        built = (res.table, res.trace)
        rows = _cut_rows(game, path, res.table, res.trace, lambda s: str(res.cond_table.value(s)), "exit", "enter")
    else:
        raise SchemaError(
            "/strategy",
            f"unknown strategy {name!r}; use doubling, donothing, doob:a,b or levy:a,b[,dyadic]",
        )

    if args.table or args.cuts:
        if built is None:
            raise SchemaError(
                "/strategy", "--table and --cuts apply to the doob/levy constructions only"
            )
        from gtprob.serialize import supermartingale_to_csv

        table, trace = built
        if args.table:
            with open(args.table, "w") as fh:
                fh.write(supermartingale_to_csv(table, game.outcomes))
        if args.cuts:
            with open(args.cuts, "w") as fh:
                json.dump(
                    trace.to_json(lambda s: format_situation(s, game.outcomes)),
                    fh,
                    sort_keys=True,
                    indent=2,
                )
                fh.write("\n")

    if args.trace:
        _write_trace(args.trace, rows)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)
    return 0


def cmd_verify(args) -> int:
    game = _load_game(args.spec)
    with open(args.supermartingale) as fh:
        sm = supermartingale_from_csv(fh.read(), game.outcomes)
    res = verify_supermartingale(game, sm)
    if res.ok:
        kind = "martingale" if res.martingale else "supermartingale"
        print(f"ok: {kind} up to depth {res.checked_depth}")
        return 0
    print(res.witness_str(game.outcomes))
    return 1


def cmd_law(args) -> int:
    mode = args.mode
    for flag in {"levy": ["payoff"], "mixing": ["system", "events"]}.get(mode, ["event"]):
        if getattr(args, flag) is None:
            raise SchemaError(f"/{flag}", f"law {mode} needs --{flag}")
    game_or_spec = load_spec(args.spec)
    if mode == "mixing":
        if not isinstance(game_or_spec, Protocol2Spec):
            raise SchemaError("/", "mixing needs a forecaster spec with a 'predictions' field")
        spec = game_or_spec
        with open(args.system) as fh:
            phi = forecasting_system_from_json(json.load(fh), spec)
        events = []
        for raw in args.events.split(";"):
            with open(raw) as fh:
                events.append(window_from_json(json.load(fh), spec.outcomes))
        from gtprob.forecaster import delta_mixing_check

        report = delta_mixing_check(
            phi,
            _fraction(args.delta, "/delta"),
            lambda n: args.gap,
            events,
            max_prefix=args.max_prefix,
        )
        print(str(report))
        return 0 if report.violations == 0 else 1

    if isinstance(game_or_spec, Protocol2Spec):
        raise SchemaError("/", f"law {mode} needs a basic game spec")
    game = game_or_spec
    if mode == "levy":
        xi = _parse_payoff(args.payoff, game)
        paths = [
            _parse_path(p, game) for p in (args.paths.split(";") if args.paths else [])
        ]
        report = levy_experiment(game, xi, paths)
        print(json.dumps(report.to_json(game.outcomes), sort_keys=True, indent=2))
        if args.trace:
            rows = [[str(n), s, v] for n, s, v in report.trace_rows(game.outcomes)]
            with open(args.trace, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["n", "situation", "value"])
                writer.writerows(rows)
        return 0 if report.all_terminal_ok else 1
    if mode == "kolmogorov":
        event = _parse_event(args.event, game)
        report = kolmogorov_invariance(game, event)
        print(str(report))
        ok = report.invariant and report.witness_ok in (True, None)
        return 0 if ok else 1
    if mode == "ergodic":
        event = _parse_event(args.event, game)
        s = parse_situation(args.situation, game.outcomes)
        report = ergodic_bound(game, event, s)
        print(str(report))
        ok = report.condition_holds and report.bound_holds and report.witness_ok
        return 0 if ok else 1
    if mode == "classify":
        event = _parse_event(args.event, game)
        horizons = (
            [int(h) for h in args.horizons.split(",")] if args.horizons else None
        )
        report = zero_one_classify(game, event, horizons)
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
        return 0
    raise SchemaError("/mode", f"unknown law mode {mode!r}")


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
    p.add_argument("mode", choices=["levy", "kolmogorov", "ergodic", "mixing", "classify"])
    p.add_argument("--payoff")
    p.add_argument("--paths", help="semicolon-separated comma paths")
    p.add_argument("--event")
    p.add_argument("--situation", default="")
    p.add_argument("--horizons")
    p.add_argument("--system", help="forecasting system JSON (mixing)")
    p.add_argument("--events", help="semicolon-separated window files (mixing)")
    p.add_argument("--delta", default="0")
    p.add_argument("--gap", type=int, default=1)
    p.add_argument("--max-prefix", type=int, default=2)
    p.add_argument("--trace")
    p.set_defaults(fn=cmd_law)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnknownGambleError as exc:
        return _fail(exc.args[0])
    except (OSError, ValueError) as exc:  # SchemaError, DepthCapError and JSONDecodeError too
        return _fail(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
