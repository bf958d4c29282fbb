"""The prediction protocol with an explicit forecaster, and its reduction
to the basic protocol.

Each round the forecaster announces a symbol from that round's prediction
menu; the symbol selects the pricing functional the bettor faces; the
world then picks an outcome.  Histories alternate prediction and outcome;
histories ending with an outcome are the clearing situations, and only
those are addressed publicly (the intermediate betting situations exist
transiently inside the two-phase pricing step).

The reduction: play the basic protocol over pairs (prediction, outcome)
with the round functional "worst case over this round's menu of the
selected functional on the outcome section".  Upper expectations computed
natively (alternating a worst-case-over-menu step with a priced step)
coincide with upper expectations of the lifted payoff in the embedded
game; tests assert the round trip exactly.

A forecasting system's rule reads the state of a small automaton: one state
for a constant system, the last outcome for a last-outcome one, the history
for a table.  An outcome event's upper probability under a system is that of
the embedded event pinning every prediction up to the window's end to the
rule, an automaton payoff on the system's states plus one absorbing off-rule
state worth 0, swept by the one kernel on its state lattice.
The mixing check quantifies over all outcome prefixes (minus an explicit
exception list) and all supplied events whose window clears the declared
gap; the quantifier over *all* sufficiently remote events is not finitely
checkable and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, ClassVar, Mapping, Sequence

from gtprob import config
from gtprob.extreal import ExtReal, ONE, ZERO, _over, ext
from gtprob.functionals import OutcomeSet, OuterContent
from gtprob.gametree import EMPTY, GameSpec, Situation, format_situation
from gtprob.expectation import EventWindow, Payoff, path_values, upper_expectation

__all__ = [
    "Protocol2Spec",
    "EmbeddedContent",
    "ForecastError",
    "ForecastingSystem",
    "embed",
    "pair_label",
    "split_label",
    "lift_payoff",
    "upper_expectation_p2",
    "chi_phi",
    "upper_prob_phi",
    "MixingReport",
    "delta_mixing_check",
]


PAIR_SEP = ":"


def pair_label(p: str, x: str) -> str:
    return f"{p}{PAIR_SEP}{x}"


def split_label(label: str) -> tuple[str, str]:
    p, _, x = label.partition(PAIR_SEP)
    return p, x


class Protocol2Spec:
    """Outcome set, per-round prediction menus and the symbol-to-functional
    map; the horizon is the number of menus, one per round."""

    def __init__(
        self,
        outcomes: OutcomeSet,
        prediction_menus: Sequence[Sequence[str]],
        contents: Mapping[str, OuterContent],
    ):
        config.require_outcomes(len(outcomes))
        for m in prediction_menus:
            if isinstance(m, str):
                raise ValueError(f"a prediction menu must be a sequence of symbols, not {m!r}")
        menus = tuple(tuple(m) for m in prediction_menus)
        if not menus or any(not m for m in menus):
            raise ValueError("every round needs a non-empty prediction menu")
        symbols = {p for menu in menus for p in menu}
        for p in symbols:
            if p not in contents:
                raise ValueError(f"no pricing functional for prediction {p!r}")
            if contents[p].outcomes != outcomes:
                raise ValueError(
                    f"functional for {p!r} must live on the shared outcome set"
                )
            if PAIR_SEP in p:
                raise ValueError(f"prediction symbols must not contain {PAIR_SEP!r}: {p!r}")
        self.outcomes = outcomes
        self.menus = menus
        self.contents = {p: contents[p] for p in sorted(symbols)}
        self.horizon = len(menus)

    @property
    def all_predictions(self) -> tuple[str, ...]:
        return tuple(self.contents)

    def menu_at(self, n: int) -> tuple[str, ...]:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"round {n} outside 1..{self.horizon}")
        return self.menus[n - 1]

    def __repr__(self) -> str:
        return f"Protocol2Spec(|X|={len(self.outcomes)}, menus={[len(m) for m in self.menus]})"


class EmbeddedContent(OuterContent):
    """Round functional of the embedded game: worst case over the round's
    menu of the selected functional applied to the outcome section, priced
    a level at a time by each symbol's ``price_level`` on its sections."""

    def __init__(self, spec: Protocol2Spec, round_no: int, product: OutcomeSet):
        super().__init__(product)
        self.spec = spec
        self.round_no = round_no
        self.menu = spec.menu_at(round_no)
        self._sections = {
            p: [product.index(pair_label(p, x)) for x in spec.outcomes.labels]
            for p in self.menu
        }

    @property
    def declared_level(self) -> str:  # type: ignore[override]
        levels = {self.spec.contents[p].declared_level for p in self.menu}
        return "superexpectation" if levels == {"superexpectation"} else "outer-content"

    def price_level(self, nums: list, den: int) -> tuple[list, int]:
        k = len(self.outcomes.labels)
        priced = [
            self.spec.contents[p].price_level([nums[i + j] for i in range(0, len(nums), k) for j in section], den)
            for p, section in self._sections.items()
        ]
        levels, den = _over(priced)
        return (levels[0] if len(levels) == 1 else list(map(max, *levels))), den

    def _key(self):
        return (self.outcomes, self.round_no, self.menu, id(self.spec))


def embed(spec: Protocol2Spec) -> GameSpec:
    """The basic-protocol game over (prediction, outcome) pairs whose round
    functionals take the worst case over that round's menu."""
    product = OutcomeSet(
        [pair_label(p, x) for p in spec.all_predictions for x in spec.outcomes.labels]
    )
    contents = [EmbeddedContent(spec, n, product) for n in range(1, spec.horizon + 1)]
    return GameSpec(product, contents, spec.horizon, outcome_cap=len(product))


PairPath = tuple[tuple[str, str], ...]


def lift_payoff(spec: Protocol2Spec, xi2: Callable[[PairPath], ExtReal], depth: int) -> Payoff:
    """A payoff on prediction/outcome histories as a payoff of the
    embedded game."""

    def fn(s: Situation) -> ExtReal:
        return xi2(tuple(split_label(lab) for lab in s))

    return Payoff(depth, fn)


def upper_expectation_p2(
    spec: Protocol2Spec,
    xi2: Callable[[PairPath], ExtReal],
    depth: int,
    at: PairPath = (),
) -> ExtReal:
    """Native two-phase dynamic program on clearing situations.

    One round = a worst-case step over the menu of a priced step over
    outcomes.  Equals the embedded-game value of the lifted payoff.
    """
    at = tuple(at)
    if len(at) > depth:
        raise ValueError("conditioning history longer than the payoff depth")
    config.require_dense(depth - len(at), what="native two-phase sweep")

    def value(s: PairPath) -> ExtReal:
        if len(s) == depth:
            return xi2(s)
        menu = spec.menu_at(len(s) + 1)
        best = None
        for p in menu:
            content = spec.contents[p]
            children = [value(s + ((p, x),)) for x in spec.outcomes.labels]
            v = content.eval_seq(children)
            best = v if best is None else max(best, v)
        return best

    return value(at)


# -- forecasting systems -----------------------------------------------------


class ForecastError(ValueError):
    """A forecasting system's rule has no prediction on the round's menu for a history."""


class ForecastingSystem:
    """A rule mapping a state of the automaton ``(start, step)`` to a prediction each round, ``step(w, x)``
    being the state after outcome ``x``; by default the state is the outcome history."""

    def __init__(self, spec: Protocol2Spec, rule: Callable, start=EMPTY, step=lambda w, x: w + (x,)):
        self.spec, self._rule, self._start, self._step = spec, rule, start, step

    @classmethod
    def constant(cls, spec: Protocol2Spec, symbol: str) -> "ForecastingSystem":
        return cls(spec, lambda w: symbol, None, lambda w, x: None)

    @classmethod
    def from_table(cls, spec: Protocol2Spec, table: Mapping[Situation, str]) -> "ForecastingSystem":
        fixed = {tuple(k): v for k, v in table.items()}

        def rule(s: Situation) -> str:
            try:
                return fixed[s]
            except KeyError:
                history = format_situation(s, spec.outcomes) or "□"
                raise ForecastError(f"forecasting table has no entry for history {history}")

        return cls(spec, rule)

    @classmethod
    def last_outcome(
        cls, spec: Protocol2Spec, by_outcome: Mapping[str, str], initial: str
    ) -> "ForecastingSystem":
        """Predict from the most recent outcome; ``initial`` opens play."""
        return cls(spec, lambda w: initial if w is None else by_outcome[w], None, lambda w, x: x)

    def predict(self, history: Situation) -> str:
        return self._on_menu(reduce(self._step, history, self._start), len(history) + 1)

    def _on_menu(self, w, n: int) -> str:
        """The prediction in state ``w`` for round ``n``, refused off the round's menu."""
        p = self._rule(w)
        menu = self.spec.menu_at(n)
        if p not in menu:
            raise ForecastError(f"rule returned {p!r} at round {n}, menu is {menu}")
        return p


def chi_phi(phi: ForecastingSystem, chi: Sequence[str]) -> PairPath:
    """Interleave a forecasting system with an outcome path:
    prediction, outcome, prediction, outcome, ..., truncated.  An unknown
    outcome is refused before the rule is asked for the history after it."""
    chi = tuple(chi)
    if len(chi) > phi.spec.horizon:
        raise ValueError("outcome path longer than the horizon")
    out: list[tuple[str, str]] = []
    w = phi._start
    for n, x in enumerate(chi):
        p = phi._on_menu(w, n + 1)
        if x not in phi.spec.outcomes:
            raise ValueError(f"situation uses unknown outcome {pair_label(p, x)!r}")
        out.append((p, x))
        w = phi._step(w, x)
    return tuple(out)


def _on_rule(phi: ForecastingSystem, event: EventWindow, prefix: Situation) -> Payoff:
    """``event`` with every prediction on ``phi``'s rule, as an automaton payoff of the embedded game: the
    state is ``phi``'s state, its prediction there and the part of the window seen so far, or None (worth
    0) off the rule.  Raises first if the window, the cap or a prediction below ``prefix`` is refused."""
    spec, end, rule, advance, checked = phi.spec, event.end, phi._rule, phi._step, set()
    event.require_within(spec.horizon)
    config.require_dense(end - len(prefix), what="conditional expectation sweep")

    def check(w, n: int) -> None:
        # Depth first, so the first refused history is the embedded game's (the lattice asks breadth first).
        if n < end and (w, n) not in checked:
            checked.add((w, n))
            phi._on_menu(w, n + 1)
            for x in spec.outcomes.labels:
                check(advance(w, x), n + 1)

    check(reduce(advance, prefix, phi._start), len(prefix))
    pairs = {pair_label(p, x): (p, x) for p in spec.all_predictions for x in spec.outcomes.labels}

    def step(v, n: int, label: str):
        if v is not None:
            p, x = pairs[label]
            if p == v[1]:
                w = advance(v[0], x)
                return w, rule(w) if n < end else None, v[2] + (x,) if n >= event.start else v[2]
        return None

    value = lambda v: ONE if v is not None and event.member_window(v[2]) else ZERO
    return Payoff._from_automaton(end, (phi._start, rule(phi._start), ()), step, value)


def upper_prob_phi(
    phi: ForecastingSystem, event: EventWindow, chi_prefix: Sequence[str] = ()
) -> ExtReal:
    """Upper probability of an outcome event under a fixed forecasting
    system, conditional on an outcome prefix: the embedded game's upper
    expectation of the on-rule event at the interleaved prefix, swept on
    that event's state lattice."""
    at = tuple(pair_label(p, x) for p, x in chi_phi(phi, chi_prefix))  # refuses off-menu predictions first
    xi = _on_rule(phi, event, tuple(chi_prefix))
    return upper_expectation(embed(phi.spec), xi, at)


# -- mixing ----------------------------------------------------------------------


@dataclass
class MixingReport:
    outcomes: OutcomeSet
    delta: Fraction
    rows: list[tuple[int, str, Situation, ExtReal, ExtReal]] = field(default_factory=list)
    worst_margin: ExtReal = ZERO
    worst_at: tuple[int, str, Situation] | None = None
    violations: int = 0
    dichotomy: list[tuple[str, ExtReal, bool]] = field(default_factory=list)
    note: ClassVar[str] = (
        "finite-horizon surrogate: the bound is checked on the supplied event "
        "list only, not on every sufficiently remote event, and prefixes in "
        "the exception list are skipped"
    )

    def __str__(self) -> str:
        head = (
            f"delta={self.delta}: {self.violations} violation(s) over {len(self.rows)} "
            f"checks; worst margin {self.worst_margin}"
        )
        if self.worst_at:
            head += f" for {self.worst_at[1]} given {format_situation(self.worst_at[2], self.outcomes)}"
        dich = ", ".join(
            f"{label}: upper={v} {'ok' if ok else 'outside'}" for label, v, ok in self.dichotomy
        )
        return f"{head}\ndichotomy on supplied events: {dich}\n{self.note}"


def delta_mixing_check(
    phi: ForecastingSystem,
    delta: Fraction,
    gap: int,
    events: Sequence[EventWindow],
    max_prefix: int,
    exceptions: Sequence[Situation] = (),
) -> MixingReport:
    """Check, exactly, that conditioning on any outcome prefix of length
    ``n <= max_prefix`` raises the upper probability of each supplied
    event whose window starts at or past ``n + gap`` by at most
    ``delta``.  Each event is swept once from the root, and every prefix
    reads its conditional from that sweep by walking the interleaved prefix
    down the on-rule event's lattice (past the window's end, its leaf).

    Also evaluates the two-sided dichotomy on the supplied events: upper
    probability 0 or at least ``1 - delta``.  Both checks are finite
    surrogates and the report names the quantifier gap.
    """
    delta = Fraction(delta)
    skip = {tuple(s) for s in exceptions}
    report = MixingReport(phi.spec.outcomes, delta)
    config.require_dense(max_prefix, what="mixing prefix enumeration")
    game = embed(phi.spec)
    readers = [path_values(game, _on_rule(phi, event, EMPTY)) for event in events]
    worst: ExtReal | None = None
    for n in range(1, max_prefix + 1):
        remote = [(idx, e) for idx, e in enumerate(events) if e.start >= n + gap]
        if not remote:
            continue
        for prefix in phi.spec.outcomes.tuples(n):
            if prefix in skip:
                continue
            at = tuple(pair_label(p, x) for p, x in chi_phi(phi, prefix))
            for idx, event in remote:
                row = readers[idx](at)
                cond, margin = row[n], row[n] - row[0]
                report.rows.append((n, event.label or f"event{idx}", prefix, cond, margin))
                if worst is None or margin > worst:
                    worst = margin
                    report.worst_at = (n, event.label or f"event{idx}", prefix)
                if margin > ext(delta):
                    report.violations += 1
    report.worst_margin = worst if worst is not None else ZERO
    for idx, event in enumerate(events):
        v = readers[idx](EMPTY)[0]
        ok = v == ZERO or v >= ONE - ext(delta)
        report.dichotomy.append((event.label or f"event{idx}", v, ok))
    return report
