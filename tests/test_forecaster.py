import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtprob.config import DepthCapError
from gtprob.extreal import INF, NEG_INF, ONE, ZERO, ext
from gtprob.functionals import (
    Envelope,
    ExtendedContent,
    Gamble,
    Measure,
    OutcomeSet,
    SupContent,
    TableContent,
    UnknownGambleError,
    check_axioms,
    extend_bounded_below,
)
from gtprob.gametree import verify_supermartingale
from gtprob.expectation import EventWindow, Payoff, indicator, path_values, upper_expectation, upper_table
from gtprob.forecaster import (
    ForecastError,
    ForecastingSystem,
    MixingReport,
    Protocol2Spec,
    _on_rule,
    chi_phi,
    delta_mixing_check,
    embed,
    lift_payoff,
    pair_label,
    split_label,
    upper_expectation_p2,
    upper_prob_phi,
)
from oracles import reference_phi_levels, reference_price

BIN = OutcomeSet(["0", "1"])
COIN = Measure.uniform(BIN)
SUP = SupContent(BIN)
POINT0 = Measure(BIN, {"0": 1, "1": 0})
POINT1 = Measure(BIN, {"0": 0, "1": 1})


def spec_with(menus, contents):
    return Protocol2Spec(BIN, menus, contents)


def coin_sup_spec(horizon=2):
    return spec_with([("c", "s")] * horizon, {"c": COIN, "s": SUP})


def singleton_spec(horizon=2):
    return spec_with([("c",)] * horizon, {"c": COIN})


# -- embedding -----------------------------------------------------------


def test_singleton_menu_reduces_to_the_plain_functional():
    spec = singleton_spec(1)
    game = embed(spec)
    content = game.content_at(1)
    for values in [(0, 1), ("1/2", 2), (-1, "inf")]:
        f = Gamble.of(BIN, list(values))
        lifted = Gamble.of(
            game.outcomes, {pair_label("c", x): f[x] for x in BIN.labels}
        )
        assert content.eval(lifted) == COIN.eval(f)


def test_menu_with_coin_and_sup_prices_prediction_blind_gambles_at_max():
    spec = coin_sup_spec(1)
    assert repr(spec) == "Protocol2Spec(|X|=2, menus=[2])"
    game = embed(spec)
    content = game.content_at(1)
    f = Gamble.of(BIN, [0, 1])
    lifted = Gamble.of(
        game.outcomes,
        {pair_label(p, x): f[x] for p in spec.all_predictions for x in BIN.labels},
    )
    # Oracle: max of the two prices, here max(1/2, max f) = max f.
    assert content.eval(lifted) == max(COIN.eval(f), SUP.eval(f)) == ONE


def rand_ext(rng):
    return ext(Fraction(rng.randrange(-8, 9), rng.choice([1, 2, 3, 4])))


def test_an_embedded_round_claims_superexpectation_when_every_menu_functional_does():
    table = TableContent(BIN, [(Gamble.of(BIN, [0, 0]), ZERO)])
    for contents, level in (({"c": COIN, "s": SUP}, "superexpectation"), ({"c": COIN, "t": table}, "outer-content")):
        content = embed(spec_with([tuple(contents)], contents)).content_at(1)
        report = check_axioms(content, [Gamble.constant(content.outcomes, 0)])
        assert (report.level_claimed, report.level_audited) == (level, level)


def test_native_two_phase_equals_embedded_dynamic_program():
    rng = random.Random(7)
    for menus in [[("c",), ("c", "s")], [("c", "s")] * 3, [("s",), ("c",)]]:
        spec = spec_with(menus, {"c": COIN, "s": SUP})
        game = embed(spec)
        depth = spec.horizon
        leaves = {}

        def xi2(pairs, _leaves=leaves, _rng=rng):
            if pairs not in _leaves:
                _leaves[pairs] = rand_ext(_rng)
            return _leaves[pairs]

        lifted = lift_payoff(spec, xi2, depth)
        for pairs in [(), (("c", "0"),)]:
            if len(pairs) > depth:
                continue
            if any(p not in spec.menu_at(i + 1) for i, (p, _x) in enumerate(pairs)):
                continue
            native = upper_expectation_p2(spec, xi2, depth, pairs)
            at = tuple(pair_label(p, x) for p, x in pairs)
            embedded = upper_expectation(game, lifted, at)
            assert native == embedded


def test_native_two_phase_past_the_horizon_names_the_missing_round():
    spec = singleton_spec(3)
    with pytest.raises(ValueError, match=r"^round 4 outside 1\.\.3$"):
        upper_expectation_p2(spec, lambda pairs: ONE, 4)


def restrict_to_clearing(spec, sm):
    """Values of an embedded-game table on the clearing situations."""
    out = {}
    for s, v in sm.table.items():
        pairs = tuple(split_label(lab) for lab in s)
        if all(p in spec.menu_at(i + 1) for i, (p, _x) in enumerate(pairs)):
            out[pairs] = v
    return out


def verify_p2_supermartingale(spec, values, depth):
    """The two-phase inequality on clearing situations: for every history
    and every menu prediction, the priced children stay at or below the
    current value."""
    def history_ok(s):
        if len(s) == depth:
            return True
        menu = spec.menu_at(len(s) + 1)
        for p in menu:
            kids = [values[s + ((p, x),)] for x in spec.outcomes.labels]
            if reference_price(spec.contents[p], kids) > values[s]:
                return False
            if not all(history_ok(s + ((p, x),)) for x in spec.outcomes.labels):
                return False
        return True

    return history_ok(())


def test_embedded_table_restricts_to_a_two_phase_supermartingale():
    spec = coin_sup_spec(2)
    game = embed(spec)
    xi = Payoff(2, lambda s: ONE if s[-1].endswith("1") else ZERO)
    table = upper_table(game, xi)
    assert verify_supermartingale(game, table).ok
    clearing = restrict_to_clearing(spec, table)
    assert verify_p2_supermartingale(spec, clearing, 2)
    # Any value below its children's price under some menu symbol fails,
    # at the root and one round in.
    for s in [(), (("s", "0"),)]:
        short = dict(clearing)
        short[s] = clearing[s] - ext("1/4")
        assert not verify_p2_supermartingale(spec, short, 2)


# -- forecasting systems -----------------------------------------------------


def test_interleaving_examples():
    spec = coin_sup_spec(3)
    phi = ForecastingSystem.constant(spec, "c")
    assert chi_phi(phi, ()) == ()
    assert chi_phi(phi, ("0", "1")) == ((("c", "0")) , ("c", "1"))

    sticky_spec = spec_with([("a", "b")] * 2, {"a": POINT0, "b": POINT1})
    phi2 = ForecastingSystem.last_outcome(sticky_spec, {"0": "a", "1": "b"}, initial="a")
    assert chi_phi(phi2, ("1", "0")) == (("a", "1"), ("b", "0"))


def test_rule_must_respect_the_menu():
    spec = spec_with([("c",), ("s",)], {"c": COIN, "s": SUP})
    phi = ForecastingSystem.constant(spec, "c")
    with pytest.raises(ValueError):
        chi_phi(phi, ("0", "1"))


def test_upper_prob_under_constant_coin_forecaster():
    spec = coin_sup_spec(1)
    phi = ForecastingSystem.constant(spec, "c")
    assert upper_prob_phi(phi, EventWindow.coordinate_is(1, "1")) == ext("1/2")


def test_upper_prob_of_empty_event_is_zero():
    spec = coin_sup_spec(2)
    phi = ForecastingSystem.constant(spec, "c")
    assert upper_prob_phi(phi, EventWindow.empty()) == ZERO


def test_upper_prob_under_point_mass_forecaster():
    spec = spec_with([("a", "b")] * 2, {"a": POINT0, "b": POINT1})
    for first, expected in (("a", ZERO), ("b", ONE)):
        phi = ForecastingSystem(
            spec, lambda s, _f=first: _f if not s else ("b" if len(s) % 2 else "a")
        )
        assert upper_prob_phi(phi, EventWindow.coordinate_is(1, "1")) == expected


def test_upper_probabilities_of_an_event_and_its_complement_sum_to_at_least_one():
    spec = coin_sup_spec(2)
    e = EventWindow(1, 2, accepts=[("1", "1"), ("1", "0")])
    for symbol, total in (("c", ONE), ("s", ext(2))):
        phi = ForecastingSystem.constant(spec, symbol)
        assert upper_prob_phi(phi, e) + upper_prob_phi(phi, e.complement()) == total


def test_conditioning_on_a_prefix_lifts_through_the_interleaving():
    spec = coin_sup_spec(2)
    phi = ForecastingSystem.constant(spec, "c")
    e = EventWindow.coordinate_is(2, "1")
    assert upper_prob_phi(phi, e, ("0",)) == ext("1/2")
    assert upper_prob_phi(phi, e, ("0", "1")) == ONE


# -- mixing ------------------------------------------------------------------


def test_product_forecaster_has_margin_exactly_zero():
    spec = spec_with(
        [("c",), ("d",), ("c",), ("d",)],
        {"c": COIN, "d": Measure(BIN, {"0": "1/3", "1": "2/3"})},
    )
    phi = ForecastingSystem(spec, lambda s: "c" if len(s) % 2 == 0 else "d")
    events = [
        EventWindow.coordinate_is(3, "1"),
        EventWindow(3, 4, predicate=lambda w: w[0] == w[1], label="match34"),
    ]
    report = delta_mixing_check(phi, Fraction(0), 2, events, max_prefix=2)
    assert report.violations == 0
    assert report.worst_margin == ZERO
    assert len(report.rows) > 0


def test_trivial_delta_close_to_one_flags_everything_bounded():
    spec = coin_sup_spec(3)
    phi = ForecastingSystem.constant(spec, "c")
    events = [EventWindow.coordinate_is(3, "1")]
    report = delta_mixing_check(phi, Fraction(99, 100), 2, events, max_prefix=1)
    assert report.violations == 0
    for label, value, ok in report.dichotomy:
        assert value <= ONE


def test_sticky_forecaster_violates_mixing_with_exact_witness():
    spec = spec_with([("a", "b")] * 2, {"a": POINT0, "b": POINT1})
    phi = ForecastingSystem.last_outcome(spec, {"0": "a", "1": "b"}, initial="a")
    event = EventWindow.coordinate_is(2, "1")
    report = delta_mixing_check(phi, Fraction(1, 2), 1, [event], max_prefix=1)
    assert report.violations > 0
    assert report.worst_margin == ONE
    n, label, prefix = report.worst_at
    assert (n, prefix) == (1, ("1",))
    # Oracle by hand: after seeing 1 the system predicts the point mass at
    # 1, so the event is certain; unconditionally the first prediction is
    # the point mass at 0 and the event is null.
    assert upper_prob_phi(phi, event, ("1",)) == ONE
    assert upper_prob_phi(phi, event) == ZERO


def test_mixing_exception_list_skips_prefixes():
    spec = spec_with([("a", "b")] * 2, {"a": POINT0, "b": POINT1})
    phi = ForecastingSystem.last_outcome(spec, {"0": "a", "1": "b"}, initial="a")
    event = EventWindow.coordinate_is(2, "1")
    report = delta_mixing_check(
        phi, Fraction(1, 2), 1, [event], max_prefix=1, exceptions=[("1",)]
    )
    assert report.violations == 0


def test_mixing_prefix_enumeration_is_held_to_the_depth_cap(monkeypatch):
    spec = coin_sup_spec(6)
    phi = ForecastingSystem.constant(spec, "c")
    events = [EventWindow.coordinate_is(2, "1")]
    monkeypatch.setenv("GTP_MAX_DEPTH", "3")
    delta_mixing_check(phi, Fraction(0), -6, events, max_prefix=3)
    with pytest.raises(DepthCapError, match="dense mixing prefix enumeration to depth 6 exceeds the cap 3"):
        delta_mixing_check(phi, Fraction(0), -6, events, max_prefix=6)


# -- the outcome-tree sweep against the embedded game ------------------------


def lift_event(phi, event):
    """The event over embedded paths: the outcome part belongs to the
    original event and every prediction coordinate matches the rule."""

    def member(window):
        pairs = [split_label(lab) for lab in window]
        chi = tuple(x for _p, x in pairs)
        for n, (p, _x) in enumerate(pairs):
            if phi.predict(chi[:n]) != p:
                return False
        return event.member_window(chi[event.start - 1 : event.end])

    return EventWindow(1, event.end, predicate=member)


def embedded_upper_prob(phi, event, prefix=()):
    at = tuple(pair_label(p, x) for p, x in chi_phi(phi, prefix))
    return upper_expectation(embed(phi.spec), indicator(lift_event(phi, event)), at)


def embedded_mixing(phi, delta, gap, events, max_prefix, exceptions=()):
    """The mixing check as one embedded sweep per (prefix, event) pair."""
    uncond = [embedded_upper_prob(phi, e) for e in events]
    rows, worst, worst_at, violations = [], None, None, 0
    for n in range(1, max_prefix + 1):
        remote = [(i, e) for i, e in enumerate(events) if e.start >= n + gap]
        if not remote:
            continue
        for prefix in phi.spec.outcomes.tuples(n):
            if prefix in exceptions:
                continue
            for i, e in remote:
                cond = embedded_upper_prob(phi, e, prefix)
                margin = cond - uncond[i]
                rows.append((n, e.label or f"event{i}", prefix, cond, margin))
                if worst is None or margin > worst:
                    worst, worst_at = margin, (n, e.label or f"event{i}", prefix)
                violations += margin > ext(delta)
    dichotomy = [
        (e.label or f"event{i}", v, v == ZERO or v >= ONE - ext(delta))
        for i, (e, v) in enumerate(zip(events, uncond))
    ]
    return MixingReport(phi.spec.outcomes, delta, rows, worst if worst is not None else ZERO, worst_at, violations, dichotomy)


def settle(fn):
    """A value, or the exception's type with its text; an unknown gamble
    is compared by type only."""
    try:
        return fn()
    except UnknownGambleError:
        return UnknownGambleError
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


@st.composite
def forecaster_cases(draw, deep=False):
    """A spec, a forecasting system and events on one window.  The system is
    a table or a constant; ``deep`` lets the horizon reach 5 and the system
    be a last-outcome rule too."""
    k = draw(st.sampled_from([2, 3]))
    outcomes = OutcomeSet([str(i) for i in range(k)])
    symbols = ["a", "b", "c"][: draw(st.integers(1, 3))]
    horizon = draw(st.integers(1, 5 if deep else 4 if k * len(symbols) <= 6 else 3))
    weight = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)])
    odd = st.sampled_from([Fraction(-1, 2), Fraction(3, 4), Fraction(2), Fraction(-5, 3)])

    def measure():
        w = draw(st.lists(weight, min_size=k, max_size=k).filter(any))
        return Measure(outcomes, [x / sum(w) for x in w])

    def table():
        # A price list on a small grid of values: gambles off the grid, or
        # the constant 0 when it is left out, raise UnknownGambleError.
        extra = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2)])
        grid = [Fraction(0), Fraction(1)] + draw(st.lists(extra, max_size=1))
        rule = draw(st.sampled_from([max, lambda g: g[0]]))
        entries = {g: rule(g) for g in itertools.product(grid, repeat=k)}
        zero = (Fraction(0),) * k
        if draw(st.booleans()):
            del entries[zero]
        elif draw(st.booleans()):
            entries[zero] = draw(st.sampled_from(grid))
        return TableContent(
            outcomes, [(Gamble(outcomes, [ext(v) for v in g]), ext(p)) for g, p in entries.items()]
        )

    makers = {
        "measure": measure,
        "unchecked": lambda: Measure.unchecked(outcomes, draw(st.lists(odd, min_size=k, max_size=k))),
        "envelope": lambda: Envelope(outcomes, [measure(), measure()]),
        "sup": lambda: SupContent(outcomes),
        "table": table,
        "extended": lambda: extend_bounded_below(outcomes, measure().eval),
    }
    contents = {p: makers[draw(st.sampled_from(sorted(makers)))]() for p in symbols}
    menus = [
        tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=3)))
        for _ in range(horizon)
    ]
    spec = Protocol2Spec(outcomes, menus, contents)
    rule = {h: draw(st.sampled_from(menus[len(h)])) for d in range(horizon) for h in outcomes.tuples(d)}
    # Now and then a history whose symbol is off the round's menu, or
    # which the table lacks.
    histories = sorted(rule)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        h = draw(st.sampled_from(histories))
        if draw(st.booleans()):
            rule[h] = draw(st.sampled_from(symbols))
        else:
            rule.pop(h, None)
    phi = ForecastingSystem.from_table(spec, rule)
    kind = draw(st.sampled_from(["table", "constant", "last-outcome"][: 2 + deep]))
    if kind == "constant":
        # Always on the first round's menu, not always on a later one's.
        phi = ForecastingSystem.constant(spec, draw(st.sampled_from(menus[0])))
    elif kind == "last-outcome":
        by_outcome = {x: draw(st.sampled_from(symbols)) for x in outcomes.labels}
        phi = ForecastingSystem.last_outcome(spec, by_outcome, draw(st.sampled_from(menus[0])))
    start = draw(st.integers(1, horizon))
    end = draw(st.integers(start, horizon))
    windows = list(outcomes.tuples(end - start + 1))
    events = [
        EventWindow(start, end, accepts=draw(st.lists(st.sampled_from(windows), unique=True)), label=label)
        for label in draw(st.sampled_from([[""], ["", "x"], ["x", ""]]))
    ]
    return phi, events


@settings(max_examples=150, deadline=None)
@given(forecaster_cases(), st.data())
def test_outcome_tree_sweep_matches_the_embedded_game(case, data):
    phi, events = case
    labels = phi.spec.outcomes.labels
    prefix = tuple(data.draw(st.lists(st.sampled_from(labels), max_size=phi.spec.horizon + 1)))
    for at in ((), prefix):
        for event in events:
            assert settle(lambda: upper_prob_phi(phi, event, at)) == settle(
                lambda: embedded_upper_prob(phi, event, at)
            )


@settings(max_examples=80, deadline=None)
@given(forecaster_cases(), st.data())
def test_mixing_report_matches_the_embedded_game(case, data):
    phi, events = case
    horizon = phi.spec.horizon
    gap = data.draw(st.integers(-3, 1))
    max_prefix = data.draw(st.integers(1, horizon + 1))
    delta = data.draw(st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 2)]))
    skip = data.draw(st.lists(st.tuples(st.sampled_from(phi.spec.outcomes.labels)), max_size=1))
    expected = settle(lambda: embedded_mixing(phi, delta, gap, events, max_prefix, skip))
    got = settle(lambda: delta_mixing_check(phi, delta, gap, events, max_prefix, skip))
    assert got == expected
    if isinstance(got, MixingReport):
        assert str(got) == str(expected)


@settings(max_examples=150, deadline=None)
@given(forecaster_cases(deep=True), st.data())
def test_every_level_of_the_embedded_sweep_matches_the_level_loop(case, data):
    phi, events = case
    spec, horizon = phi.spec, phi.spec.horizon
    path = tuple(data.draw(st.lists(st.sampled_from(spec.outcomes.labels), min_size=horizon, max_size=horizon)))

    def interleaved(h):
        return tuple(pair_label(p, x) for p, x in chi_phi(phi, h))

    def root_levels(event):
        # The mixing check's read: one root sweep, walked down to every outcome history.
        read = path_values(embed(spec), _on_rule(phi, event, ()))
        return [[read(interleaved(h))[d] for h in spec.outcomes.tuples(d)] for d in range(event.end + 1)]

    def reference_at(prefix, event):
        chi_phi(phi, prefix)  # upper_prob_phi refuses an off-menu prediction along the prefix first
        return reference_phi_levels(phi, event, prefix)[0][0]

    for event in events:
        assert settle(lambda: root_levels(event)) == settle(lambda: reference_phi_levels(phi, event, ()))
        # Prefixes shorter than, as long as and longer than the window.
        for n in sorted({0, event.end - 1, event.end, min(event.end + 1, horizon)}):
            assert settle(lambda: upper_prob_phi(phi, event, path[:n])) == settle(
                lambda: reference_at(path[:n], event)
            )


@settings(max_examples=100, deadline=None)
@given(forecaster_cases(), st.data())
def test_an_embedded_round_prices_a_gamble_as_its_menu_sections_do(case, data):
    spec = case[0].spec
    content = embed(spec).content_at(data.draw(st.integers(1, spec.horizon)))
    grid = [NEG_INF, ext(-1), ZERO, ext("1/2"), ONE, INF]
    values = data.draw(st.lists(st.sampled_from(grid), min_size=len(content.outcomes), max_size=len(content.outcomes)))
    assert settle(lambda: content.eval_seq(values)) == settle(lambda: reference_price(content, values))


def test_an_embedded_round_audits_as_before():
    envelope = Envelope(BIN, [{"0": "1/3", "1": "2/3"}, {"0": 1, "1": 0}])
    spec = spec_with([("c", "u")], {"c": envelope, "u": Measure.unchecked(BIN, ["3/2", "-1/2"])})
    # The default grid on four pair outcomes holds both infinities.
    assert str(check_axioms(embed(spec).content_at(1))) == "\n".join([
        "monotone: FAIL (10256 checks) [f=(-inf, -inf, 0, 0) <= g=(-inf, -inf, 0, 1) but E(f)=0 > E(g)=-1/2]",
        "homogeneous: pass (768 checks)",
        "subadditive: pass (65536 checks)",
        "normalized: pass (5 checks)",
        "countable-subadditive (finite surrogate): pass (500 checks)",
        "claimed level: superexpectation; audited level: not-an-outer-content",
    ])


def test_off_rule_constant_is_priced_where_the_embedded_game_prices_it():
    # The price list lacks the constant 0, the off-rule value at the leaves.
    grid = [ZERO, ONE]
    gaps = TableContent(
        BIN, [(Gamble(BIN, g), max(g)) for g in itertools.product(grid, repeat=2) if ONE in g]
    )
    window = EventWindow(1, 2, accepts=[("0", "1"), ("1", "0"), ("1", "1")])
    # Two symbols, one per round: the embedded game still holds off-rule
    # nodes (pair labels whose symbol is off the menu) and prices them.
    spec = spec_with([("a",), ("b",)], {"a": COIN, "b": gaps})
    phi = ForecastingSystem(spec, lambda s: "b" if s else "a")
    assert settle(lambda: upper_prob_phi(phi, window)) == UnknownGambleError
    assert settle(lambda: embedded_upper_prob(phi, window)) == UnknownGambleError
    # One symbol: no off-rule node, so the missing entry is never asked for.
    phi = ForecastingSystem.constant(spec_with([("b",)] * 2, {"b": gaps}), "b")
    assert upper_prob_phi(phi, window) == embedded_upper_prob(phi, window) == ONE
    # Below a prefix the off-rule constant is priced from the next depth
    # on, so the rule's symbol is never asked for it at the prefix.
    phi = ForecastingSystem.constant(spec_with([("a", "b")] * 2, {"a": gaps, "b": COIN}), "a")
    assert upper_prob_phi(phi, window, ("0",)) == embedded_upper_prob(phi, window, ("0",)) == ONE


def test_off_rule_constant_carries_up_the_tree():
    # A functional that prices the constant 0 at 1/4 makes the off-rule
    # constant 0, 1/4, 1/2 at depths 3, 2, 1; the root then takes the
    # off-rule symbol's price 3/4 over the rule's 1/2.
    shifted = ExtendedContent(BIN, lambda g: max(g.values) + ext("1/4"))
    phi = ForecastingSystem.constant(spec_with([("a", "b")] * 3, {"a": COIN, "b": shifted}), "a")
    event = EventWindow.coordinate_is(3, "1")
    assert upper_prob_phi(phi, event) == embedded_upper_prob(phi, event) == ext("3/4")


def test_first_failing_history_matches_the_embedded_scan():
    spec = spec_with([("a",)] * 3, {"a": COIN})
    rule = {h: "a" for d in range(3) for h in BIN.tuples(d)}
    rule[("1",)] = "x"
    rule[("0", "1")] = "x"
    phi = ForecastingSystem.from_table(spec, rule)
    event = EventWindow.coordinate_is(3, "1")
    expected = (ForecastError, "rule returned 'x' at round 3, menu is ('a',)")
    assert settle(lambda: upper_prob_phi(phi, event)) == expected
    assert settle(lambda: embedded_upper_prob(phi, event)) == expected
    del rule[("0",)]
    phi = ForecastingSystem.from_table(spec, rule)
    expected = (ForecastError, "forecasting table has no entry for history 0")
    assert settle(lambda: upper_prob_phi(phi, event)) == expected
    assert settle(lambda: embedded_upper_prob(phi, event)) == expected


class CountingMap(dict):
    """A dict that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_a_last_outcome_system_is_swept_on_its_states_not_its_histories():
    # Fourteen rounds hold 2**14 histories but three states of the system.
    spec = spec_with([("a", "b")] * 14, {"a": Measure(BIN, [Fraction(1, 3), Fraction(2, 3)]), "b": SUP})
    by_outcome = CountingMap({"0": "a", "1": "b"})
    phi = ForecastingSystem.last_outcome(spec, by_outcome, "a")
    event = EventWindow(11, 14, predicate=lambda w: w.count("1") >= 2)
    assert upper_prob_phi(phi, event) == ext("1594322/1594323")
    assert by_outcome.reads < 200
    by_outcome.reads = 0
    delta_mixing_check(phi, Fraction(0), 1, [event], max_prefix=2)
    assert by_outcome.reads < 200


def test_a_constant_symbol_off_a_later_menu_is_refused():
    # The system has one state, yet its symbol is checked against every round's menu.
    phi = ForecastingSystem.constant(spec_with([("c", "s"), ("s",)], {"c": COIN, "s": SUP}), "c")
    with pytest.raises(ForecastError, match=r"^rule returned 'c' at round 2, menu is \('s',\)$"):
        upper_prob_phi(phi, EventWindow.coordinate_is(2, "1"))


def test_unknown_outcome_in_a_prefix_is_named_with_its_prediction():
    phi = ForecastingSystem.constant(coin_sup_spec(2), "c")
    with pytest.raises(ValueError, match="^situation uses unknown outcome 'c:z'$"):
        upper_prob_phi(phi, EventWindow.coordinate_is(2, "1"), ("z",))
    sticky = ForecastingSystem.last_outcome(coin_sup_spec(2), {"0": "c", "1": "s"}, initial="s")
    for prefix, named in ((("0", "z"), "c:z"), (("z", "0"), "s:z")):
        with pytest.raises(ValueError, match=f"^situation uses unknown outcome '{named}'$"):
            upper_prob_phi(sticky, EventWindow.coordinate_is(2, "1"), prefix)


def test_a_string_prediction_menu_is_refused():
    with pytest.raises(ValueError, match="^a prediction menu must be a sequence of symbols, not 'cs'$"):
        spec_with(["cs", ("c",)], {"c": COIN, "s": SUP})
