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

A forecasting system is a rule mapping outcome histories to predictions.
Fixing one turns the protocol back into the outcome tree.  An outcome
event's upper probability, that of the embedded event pinning every
prediction coordinate up to the window's end to the rule, is swept there:
a node takes the largest over its menu symbols ``q`` of the price under
``q`` of its children, a child off the rule being worth the off-rule
constant ``Z(d+1)``: ``Z(end) = 0``, ``Z(d) = max over q of c_q(Z(d+1)·1)``.
The mixing check quantifies over all outcome prefixes (minus an explicit
exception list) and all supplied events whose window clears the declared
gap; the quantifier over *all* sufficiently remote events is not finitely
checkable and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from gtprob import config
from gtprob.extreal import ExtReal, ONE, ZERO, _over, _read_out, ext
from gtprob.functionals import OutcomeSet, OuterContent
from gtprob.gametree import GameSpec, Situation, Supermartingale
from gtprob.expectation import EventWindow, Payoff

__all__ = [
    "Protocol2Spec",
    "EmbeddedContent",
    "ForecastingSystem",
    "embed",
    "pair_label",
    "split_label",
    "lift_payoff",
    "upper_expectation_p2",
    "chi_phi",
    "upper_prob_phi",
    "lower_prob_phi",
    "restrict_to_clearing",
    "verify_p2_supermartingale",
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
    """Outcome set, per-round prediction menus, the symbol-to-functional
    map, and a horizon."""

    def __init__(
        self,
        outcomes: OutcomeSet,
        prediction_menus: Sequence[Sequence[str]],
        contents: Mapping[str, OuterContent],
        horizon: int | None = None,
    ):
        for m in prediction_menus:
            if isinstance(m, str):
                raise ValueError(f"a prediction menu must be a sequence of symbols, not {m!r}")
        menus = tuple(tuple(m) for m in prediction_menus)
        if not menus or any(not m for m in menus):
            raise ValueError("every round needs a non-empty prediction menu")
        n = len(menus) if horizon is None else horizon
        if n != len(menus):
            raise ValueError("need one prediction menu per round 1..horizon")
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
        self.horizon = n

    @property
    def all_predictions(self) -> tuple[str, ...]:
        return tuple(sorted({p for menu in self.menus for p in menu}))

    def menu_at(self, n: int) -> tuple[str, ...]:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"round {n} outside 1..{self.horizon}")
        return self.menus[n - 1]

    def __repr__(self) -> str:
        return (
            f"Protocol2Spec(|X|={len(self.outcomes)}, menus={[len(m) for m in self.menus]})"
        )


class EmbeddedContent(OuterContent):
    """Round functional of the embedded game: worst case over the round's
    menu of the selected functional applied to the outcome section."""

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

    def eval_seq(self, values: Sequence[ExtReal]) -> ExtReal:
        best = None
        for p in self.menu:
            section = [values[i] for i in self._sections[p]]
            v = self.spec.contents[p].eval_seq(section)
            best = v if best is None else max(best, v)
        return best

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
    if depth > spec.horizon:
        raise ValueError("payoff settles beyond the horizon")
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
            kids = [value(s + ((p, x),)) for x in spec.outcomes.labels]
            v = content.eval_seq(kids)
            best = v if best is None else max(best, v)
        return best

    return value(at)


# -- forecasting systems -----------------------------------------------------


class ForecastingSystem:
    """A rule mapping outcome histories to predictions, one per round."""

    def __init__(self, spec: Protocol2Spec, rule: Callable[[Situation], str]):
        self.spec = spec
        self._rule = rule

    @classmethod
    def constant(cls, spec: Protocol2Spec, symbol: str) -> "ForecastingSystem":
        return cls(spec, lambda s: symbol)

    @classmethod
    def from_table(cls, spec: Protocol2Spec, table: Mapping[Situation, str]) -> "ForecastingSystem":
        fixed = {tuple(k): v for k, v in table.items()}

        def rule(s: Situation) -> str:
            try:
                return fixed[tuple(s)]
            except KeyError:
                raise ValueError(f"forecasting table has no entry for history {s!r}")

        return cls(spec, rule)

    @classmethod
    def last_outcome(
        cls, spec: Protocol2Spec, by_outcome: Mapping[str, str], initial: str
    ) -> "ForecastingSystem":
        """Predict from the most recent outcome; ``initial`` opens play."""

        def rule(s: Situation) -> str:
            return initial if not s else by_outcome[s[-1]]

        return cls(spec, rule)

    def predict(self, history: Situation) -> str:
        p = self._rule(tuple(history))
        menu = self.spec.menu_at(len(history) + 1)
        if p not in menu:
            raise ValueError(
                f"rule returned {p!r} at round {len(history) + 1}, menu is {menu}"
            )
        return p


def chi_phi(phi: ForecastingSystem, chi: Sequence[str]) -> PairPath:
    """Interleave a forecasting system with an outcome path:
    prediction, outcome, prediction, outcome, ..., truncated.  An unknown
    outcome is refused before the rule is asked for the history after it."""
    chi = tuple(chi)
    if len(chi) > phi.spec.horizon:
        raise ValueError("outcome path longer than the horizon")
    out: list[tuple[str, str]] = []
    for n, x in enumerate(chi):
        p = phi.predict(chi[:n])
        if x not in phi.spec.outcomes:
            raise ValueError(f"situation uses unknown outcome {pair_label(p, x)!r}")
        out.append((p, x))
    return tuple(out)


def _phi_levels(phi: ForecastingSystem, event: EventWindow, prefix: Situation) -> list[list[ExtReal]]:
    """Upper probabilities of ``event`` under ``phi`` at the outcome
    histories from ``prefix`` to the window's end, one level per depth in
    base-K rank order.  A child off the rule is worth ``Z(d+1)``, carried
    as one extra parent wherever the embedded game holds nodes off the
    rule, so each functional is asked for the embedded sweep's gambles."""
    spec, top, end = phi.spec, len(prefix), event.end
    if end > spec.horizon:
        raise ValueError("payoff settles beyond the game horizon")
    config.require_dense(end - top, what="conditional expectation sweep")
    k, rules, nums = len(spec.outcomes), {}, []
    for rest in spec.outcomes.tuples(max(end - top, 0)):
        # Ask the rule in the order the embedded event's leaf scan does.
        for h in (prefix + rest[:n] for n in range(len(rest))):
            if h not in rules:
                rules[h] = phi.predict(h)
        nums.append(int(event.member(prefix + rest)))
    den, z = 1, 0
    kept = [_read_out(nums, den)]
    for d in range(end - 1, top - 1, -1):
        extra = [z] * k if d > top and len(spec.all_predictions) > 1 else []
        preds = [rules[prefix + h] for h in spec.outcomes.tuples(d - top)]
        priced = []
        for q in dict.fromkeys(spec.menu_at(d + 1)):
            children = [x if preds[j // k] == q else z for j, x in enumerate(nums)]
            priced.append(spec.contents[q].price_level(k, children + extra, den))
        levels, den = _over(priced)
        nums = levels[0] if len(levels) == 1 else list(map(max, *levels))
        if extra:
            z = nums.pop()
        kept.append(_read_out(nums, den))
    return kept[::-1]


def upper_prob_phi(
    phi: ForecastingSystem, event: EventWindow, chi_prefix: Sequence[str] = ()
) -> ExtReal:
    """Upper probability of an outcome event under a fixed forecasting
    system, conditional on an outcome prefix: the embedded game's value at
    the interleaved prefix, swept on the outcome tree below the prefix."""
    chi_phi(phi, chi_prefix)  # refuses unknown outcomes and off-menu predictions
    return _phi_levels(phi, event, tuple(chi_prefix))[0][0]


def lower_prob_phi(
    phi: ForecastingSystem, event: EventWindow, chi_prefix: Sequence[str] = ()
) -> ExtReal:
    """Defined as one minus the upper probability of the complement."""
    return ONE - upper_prob_phi(phi, event.complement(), chi_prefix)


def restrict_to_clearing(spec: Protocol2Spec, sm: Supermartingale) -> dict[PairPath, ExtReal]:
    """Values of an embedded-game table on the clearing situations."""
    out: dict[PairPath, ExtReal] = {}
    for s, v in sm.table.items():
        pairs = tuple(split_label(lab) for lab in s)
        if all(p in spec.menu_at(i + 1) for i, (p, _x) in enumerate(pairs)):
            out[pairs] = v
    return out


def verify_p2_supermartingale(
    spec: Protocol2Spec, values: Mapping[PairPath, ExtReal], depth: int
) -> bool:
    """The two-phase inequality on clearing situations: for every history
    and every menu prediction, the priced children stay at or below the
    current value."""
    def history_ok(s: PairPath) -> bool:
        if len(s) == depth:
            return True
        menu = spec.menu_at(len(s) + 1)
        for p in menu:
            kids = [values[s + ((p, x),)] for x in spec.outcomes.labels]
            if spec.contents[p].eval_seq(kids) > values[s]:
                return False
            if not all(history_ok(s + ((p, x),)) for x in spec.outcomes.labels):
                return False
        return True

    return history_ok(())


# -- mixing ----------------------------------------------------------------------


@dataclass
class MixingReport:
    delta: Fraction
    rows: list[tuple[int, str, Situation, ExtReal, ExtReal]] = field(default_factory=list)
    worst_margin: ExtReal = ZERO
    worst_at: tuple[int, str, Situation] | None = None
    violations: int = 0
    dichotomy: list[tuple[str, ExtReal, bool]] = field(default_factory=list)
    note: str = (
        "finite-horizon surrogate: the bound is checked on the supplied event "
        "list only, not on every sufficiently remote event, and prefixes in "
        "the exception list are skipped"
    )

    def __str__(self) -> str:
        head = (
            f"delta={self.delta}: {self.violations} violation(s) over {len(self.rows)} "
            f"checks; worst margin {self.worst_margin}"
            + (f" at {self.worst_at}" if self.worst_at else "")
        )
        dich = ", ".join(
            f"{label}: upper={v} {'ok' if ok else 'outside'}" for label, v, ok in self.dichotomy
        )
        return f"{head}\ndichotomy on supplied events: {dich}\n{self.note}"


def delta_mixing_check(
    phi: ForecastingSystem,
    delta: Fraction,
    gap: Callable[[int], int],
    events: Sequence[EventWindow],
    max_prefix: int,
    exceptions: Sequence[Situation] = (),
) -> MixingReport:
    """Check, exactly, that conditioning on any outcome prefix of length
    ``n <= max_prefix`` raises the upper probability of each supplied
    event whose window starts at or past ``n + gap(n)`` by at most
    ``delta``.  Each event is swept once from the root, and every prefix
    reads its conditional from that table (past the window's end, its leaf).

    Also evaluates the two-sided dichotomy on the supplied events: upper
    probability 0 or at least ``1 - delta``.  Both checks are finite
    surrogates and the report names the quantifier gap.
    """
    delta = Fraction(delta)
    skip = {tuple(s) for s in exceptions}
    report = MixingReport(delta=delta)
    config.require_dense(max_prefix, what="mixing prefix enumeration")
    tables = [_phi_levels(phi, event, ()) for event in events]
    k = len(phi.spec.outcomes)
    worst: ExtReal | None = None
    for n in range(1, max_prefix + 1):
        remote = [
            (idx, e) for idx, e in enumerate(events) if e.start >= n + gap(n)
        ]
        if not remote:
            continue
        for rank, prefix in enumerate(phi.spec.outcomes.tuples(n)):
            if prefix in skip:
                continue
            chi_phi(phi, prefix)
            for idx, event in remote:
                cond = tables[idx][min(n, event.end)][rank // k ** max(n - event.end, 0)]
                margin = cond - tables[idx][0][0]
                report.rows.append((n, event.label or f"event{idx}", prefix, cond, margin))
                if worst is None or margin > worst:
                    worst = margin
                    report.worst_at = (n, event.label or f"event{idx}", prefix)
                if margin > ext(delta):
                    report.violations += 1
    report.worst_margin = worst if worst is not None else ZERO
    for idx, event in enumerate(events):
        v = tables[idx][0][0]
        ok = v == ZERO or v >= ONE - ext(delta)
        report.dichotomy.append((event.label or f"event{idx}", v, ok))
    return report
