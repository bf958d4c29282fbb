"""Finite-horizon checks of zero-one phenomena, and the fixtures they need.

True tail events live beyond any finite horizon, so every law here is
exercised through its finite-horizon skeleton: exact terminal agreement of
conditional values with the payoff, invariance of conditional values
across prefixes the event ignores, the shift inequality for events closed
under dropping a prefix, and the growth of the multiplicative ride on
scripted oscillations.  Report vocabulary says "finite-horizon surrogate"
wherever the asymptotic statement itself is out of reach.

:func:`scripted_conditional_game` manufactures a measure game and an event
whose conditional upper probability along the all-ones path follows a
prescribed target sequence exactly; it feeds the growth checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

from gtprob import config
from gtprob.extreal import ExtReal, ONE, ZERO, ext
from gtprob.functionals import Measure, OutcomeSet
from gtprob.gametree import (
    EMPTY,
    GameSpec,
    Situation,
    format_situation,
    shift_strategy,
    translate_strategy,
    verify_supermartingale,
)
from gtprob.expectation import (
    EventWindow,
    Payoff,
    indicator,
    lower_probability,
    path_values,
    upper_probability,
    upper_table,
)

__all__ = [
    "LevyExperimentReport",
    "require_levy_path",
    "levy_experiment",
    "InvarianceReport",
    "kolmogorov_invariance",
    "ShiftBoundReport",
    "ergodic_bound",
    "ScriptedGame",
    "scripted_conditional_game",
    "ClassifyReport",
    "zero_one_classify",
]

SURROGATE_NOTE = "finite-horizon surrogate"


# -- conditional convergence skeleton ------------------------------------


@dataclass
class LevyPathRow:
    path: Situation
    values: list[ExtReal]
    terminal_ok: bool
    in_event: bool | None = None
    reaches_one: bool | None = None


@dataclass
class LevyExperimentReport:
    outcomes: OutcomeSet
    rows: list[LevyPathRow] = field(default_factory=list)
    note: ClassVar[str] = (
        f"{SURROGATE_NOTE}: conditional values listed to the payoff depth, "
        "where they equal the payoff exactly"
    )

    @property
    def all_terminal_ok(self) -> bool:
        return all(r.terminal_ok for r in self.rows)

    def trace_rows(self) -> list[tuple[int, str, str]]:
        out = []
        for r in self.rows:
            for n, v in enumerate(r.values):
                out.append((n, format_situation(r.path[:n], self.outcomes), str(v)))
        return out

    def to_json(self) -> dict:
        return {
            "note": self.note,
            "paths": [
                {
                    "path": format_situation(r.path, self.outcomes),
                    "values": [str(v) for v in r.values],
                    "terminal_ok": r.terminal_ok,
                    "in_event": r.in_event,
                    "reaches_one": r.reaches_one,
                }
                for r in self.rows
            ],
        }

    def __str__(self) -> str:
        lines = []
        for r in self.rows:
            seq = ", ".join(str(v) for v in r.values)
            flag = "" if r.in_event is None else (
                f" (in event: {r.in_event}, reaches 1: {r.reaches_one})"
            )
            lines.append(f"{format_situation(r.path, self.outcomes) or 'root'}: {seq}{flag}")
        lines.append(self.note)
        return "\n".join(lines)


def require_levy_path(xi: Payoff, path: Situation) -> None:
    if len(path) != xi.depth:
        raise ValueError(f"paths must have the payoff depth {xi.depth}, got {len(path)}")


def levy_experiment(game: GameSpec, xi: Payoff, paths: Sequence[Situation]) -> LevyExperimentReport:
    """Conditional upper expectations along each path, with the exact
    terminal check, plus event-reaching flags for indicator payoffs."""
    report = LevyExperimentReport(game.outcomes)
    for raw, values in zip(paths, list(map(path_values(game, xi), paths))):
        path = tuple(raw)
        require_levy_path(xi, path)
        terminal_ok = values[-1] == xi.value(path)
        row = LevyPathRow(path, values, terminal_ok)
        if xi.event is not None:
            row.in_event = xi.event.member(path)
            row.reaches_one = any(v == ONE for v in values)
        report.rows.append(row)
    return report


# -- invariance across ignored prefixes -----------------------------------


@dataclass
class InvarianceReport:
    outcomes: OutcomeSet
    start_depth: int
    values: dict[Situation, ExtReal]
    invariant: bool
    witness_ok: bool | None
    note: ClassVar[str] = f"{SURROGATE_NOTE}: invariance checked across one prefix level"

    def __str__(self) -> str:
        head = "invariant" if self.invariant else "NOT invariant"
        vals = ", ".join(
            f"{format_situation(s, self.outcomes) or 'root'}: {v}" for s, v in sorted(self.values.items())
        )
        wit = "" if self.witness_ok is None else f"; relocation witness ok: {self.witness_ok}"
        return f"{head} at prefix depth {self.start_depth - 1} [{vals}]{wit}; {self.note}"


def kolmogorov_invariance(game: GameSpec, event: EventWindow) -> InvarianceReport:
    """Conditional upper probability of an event that ignores the first
    ``start - 1`` coordinates, computed at every prefix of that depth.

    Passes when all values agree.  Additionally relocates the exact
    conditional table from one prefix to another and verifies it still
    covers the event there at the same start value, witnessing the
    equality constructively.
    """
    n = event.start
    prefix_depth = n - 1
    xi = indicator(event)
    # The table's checks cover the prefixes, which sit above the window.
    table = upper_table(game, xi)
    prefixes = list(game.outcomes.tuples(prefix_depth))
    values: dict[Situation, ExtReal] = {s: table.value(s) for s in prefixes}
    invariant = len(set(values.values())) == 1

    witness_ok = None
    if len(prefixes) >= 2:
        s, t = sorted(prefixes)[:2]
        moved = translate_strategy(table, s, t)
        ok = verify_supermartingale(game, moved).ok
        ok = ok and moved.value(t) == values[s]
        for rest in game.outcomes.tuples(event.end - prefix_depth):
            leaf = t + rest
            ok = ok and moved.value(leaf) == xi.value(s + rest)
            ok = ok and xi.value(s + rest) == xi.value(leaf)
        witness_ok = ok
    return InvarianceReport(game.outcomes, n, values, invariant, witness_ok)


# -- shift bound for weakly invariant events --------------------------------


@dataclass
class ShiftBoundReport:
    outcomes: OutcomeSet
    condition_holds: bool
    counterexample: Situation | None
    conditional: ExtReal | None
    unconditional: ExtReal | None
    bound_holds: bool | None
    witness_ok: bool | None
    note: ClassVar[str] = (
        f"{SURROGATE_NOTE}: the drop-prefix condition is enumerated on the "
        "event's window and the bound asserted at this truncation"
    )

    def __str__(self) -> str:
        if not self.condition_holds:
            return (
                "drop-prefix condition fails at continuation "
                f"{format_situation(self.counterexample, self.outcomes)}; "
                f"{self.note}"
            )
        return (
            f"conditional {self.conditional} <= unconditional {self.unconditional}: "
            f"{self.bound_holds}; replay witness ok: {self.witness_ok}; {self.note}"
        )


def ergodic_bound(game: GameSpec, event: EventWindow, s: Situation) -> ShiftBoundReport:
    """For a game priced identically at every round, check by enumeration
    that prefixing ``s`` can only leave the event (membership of ``s + w``
    implies membership of ``w``), then assert that conditioning on ``s``
    cannot raise the event's upper probability, exhibiting the replayed
    table as the witness."""
    game.require_depth_independent("shift bound")
    s = game.validate_situation(s)
    m = event.end
    config.require_dense(m, what="shift condition enumeration")
    counterexample = None
    for w in game.outcomes.tuples(m):
        if event.member(s + w) and not event.member(w):
            counterexample = w
            break
    if counterexample is not None:
        return ShiftBoundReport(game.outcomes, False, counterexample, None, None, None, None)

    table = upper_table(game, indicator(event))
    unconditional = table.value(EMPTY)
    # Every round prices alike, so the table holds the conditional below s.
    conditional = table.value(s)
    deep = GameSpec(game.outcomes, game.contents[0], len(s) + m)
    bound_holds = conditional <= unconditional

    moved = shift_strategy(deep, table, s)
    ok = verify_supermartingale(deep, moved).ok
    ok = ok and moved.value(s) == unconditional
    for w in game.outcomes.tuples(m):
        leaf = s + w
        covered = moved.value(leaf) >= (ONE if event.member(leaf) else ZERO)
        ok = ok and covered
    return ShiftBoundReport(game.outcomes, True, None, conditional, unconditional, bound_holds, ok)


# -- scripted fixtures ---------------------------------------------------------


@dataclass
class ScriptedGame:
    """A measure game whose conditional upper probability of ``event``
    along ``path`` equals the prescribed targets exactly at depths 0..N-1
    and resolves at depth N.

    ``cond`` computes the conditional at any situation in O(depth) without
    touching the tree, so fixtures may run far beyond the dense cap.
    """

    game: GameSpec
    event: EventWindow
    path: Situation
    cond: Callable[[Situation], ExtReal]


def scripted_conditional_game(targets: Sequence[Fraction | str | int]) -> ScriptedGame:
    """Build a binary measure game realizing a prescribed conditional
    sequence along the all-ones path.

    Each step splits the current target into the next one on the
    ``"1"`` branch and a closed-form value off it: 0 under a rise, 1
    under a fall, and the unchanged value (carried forward) under a flat
    step.  Carried values must eventually coincide with a step probability
    to resolve into event membership; if one survives to the horizon the
    prescription is infeasible and construction fails.
    """
    targets = [Fraction(t) for t in targets]
    if not targets:
        raise ValueError("need at least one target")
    if any(not (0 < t < 1) for t in targets):
        raise ValueError(f"targets must lie strictly inside (0, 1): {targets}")
    n_steps = len(targets)
    outcomes = OutcomeSet(["0", "1"])
    path = ("1",) * n_steps

    # Step probabilities of the "1" branch, and the off-branch
    # state introduced at each step: 0, 1, or a carried fraction.
    probs: list[Fraction] = []
    off_state: list[Fraction | int] = []
    for i in range(1, n_steps):
        prev, cur = targets[i - 1], targets[i]
        if cur == prev:
            probs.append(Fraction(1, 2))
            off_state.append(prev)
        elif cur > prev:
            probs.append(prev / cur)
            off_state.append(0)
        else:
            probs.append((1 - prev) / (1 - cur))
            off_state.append(1)
    # Resolution step: the all-ones leaf joins the event.
    probs.append(targets[-1])
    off_state.append(0)

    # Resolve carried values: the first later step whose branch
    # probabilities match decides membership by that coordinate.
    resolution: dict[int, tuple[int, str]] = {}
    for i, state in enumerate(off_state):
        if isinstance(state, Fraction) and not isinstance(state, int):
            for m in range(i + 2, n_steps + 1):
                p_d = probs[m - 1]
                if state in (p_d, 1 - p_d):
                    resolution[i] = (m, "1" if state == p_d else "0")
                    break
            else:
                raise ValueError(
                    f"infeasible prescription: carried value {state} introduced at "
                    f"step {i + 1} never matches a later step probability"
                )

    def cond(s: Situation) -> ExtReal:
        """The target on the path; off it, the state of the first step
        off it: absorbed at 0 or 1, or carried until its coordinate m."""
        s = tuple(s)[:n_steps]
        off = next((i for i, x in enumerate(s) if x != "1"), None)
        if off is None:
            return ONE if len(s) == n_steps else ext(targets[len(s)])
        state = off_state[off]
        if off in resolution:
            m, in_branch = resolution[off]
            if len(s) < m:
                return ext(state)
            state = s[m - 1] == in_branch
        return ONE if state else ZERO

    contents = [Measure(outcomes, {"1": p, "0": 1 - p}) for p in probs]
    game = GameSpec(outcomes, contents, n_steps)
    # A full window always resolves, so its conditional is 0 or 1.
    event = EventWindow(1, n_steps, predicate=lambda w: cond(w) == ONE, label="scripted")
    return ScriptedGame(game, event, path, cond)


# -- interval classification -----------------------------------------------


@dataclass
class ClassifyReport:
    rows: list[tuple[int, ExtReal, ExtReal, str]]
    note: ClassVar[str] = (
        f"{SURROGATE_NOTE}: window events settle at their window's end; the "
        "classification cannot see genuine tail behaviour"
    )

    @property
    def classification(self) -> str:
        return self.rows[0][3]

    def to_json(self) -> dict:
        return {
            "rows": [
                {"horizon": h, "lower": str(lo), "upper": str(hi), "class": kind}
                for h, lo, hi, kind in self.rows
            ],
            "classification": self.classification,
            "note": self.note,
        }


def _classify(lo: ExtReal, hi: ExtReal) -> str:
    if lo == ONE and hi == ONE:
        return "almost-certain"
    if lo == ZERO and hi == ZERO:
        return "almost-impossible"
    if lo == ZERO and hi == ONE:
        return "fully-unprobabilized"
    return f"undetermined [{lo}, {hi}]"


def zero_one_classify(game: GameSpec, event: EventWindow) -> ClassifyReport:
    """Probability interval of the event at the game horizon, classified as
    almost certain ({1}), almost impossible ({0}), fully unprobabilized
    ([0, 1]), or honestly undetermined.  A window event settles at its
    window's end, so no other horizon gives a different interval."""
    event.require_within(game.horizon)
    hi = upper_probability(game, event, EMPTY)
    lo = lower_probability(game, event, EMPTY)
    return ClassifyReport([(game.horizon, lo, hi, _classify(lo, hi))])
