import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gtprob import laws
from gtprob.cli import main
from gtprob.extreal import ONE, ZERO, ext
from gtprob.functionals import Envelope, Measure, OutcomeSet, SupContent
from gtprob.gametree import EMPTY, GameSpec
from gtprob.expectation import EventWindow, Payoff, determinacy_check, indicator, upper_probability, upper_table
from gtprob.laws import (
    ergodic_bound,
    kolmogorov_invariance,
    levy_experiment,
    scripted_conditional_game,
    zero_one_classify,
)
from gtprob.strategies import levy_strategy

BIN = OutcomeSet(["0", "1"])


def coin_game(horizon=3):
    return GameSpec(BIN, Measure.uniform(BIN), horizon)


def sup_game(horizon=3):
    return GameSpec(BIN, SupContent(BIN), horizon)


# -- conditional convergence skeleton ------------------------------------


def test_levy_experiment_coin_second_coordinate():
    game = coin_game(2)
    xi = indicator(EventWindow.coordinate_is(2, "1"))
    report = levy_experiment(game, xi, [("1", "1")])
    row = report.rows[0]
    assert row.values == [ext("1/2"), ext("1/2"), ONE]
    assert row.terminal_ok and row.in_event and row.reaches_one


def test_levy_experiment_sup_game_not_all_ones():
    # Away from the horizon every conditional is 1, including on the
    # all-ones path that is not in the event; only the terminal value
    # separates them.  This is exactly why the convergence statement is an
    # inequality, not an equality.
    game = sup_game(3)
    event = EventWindow(1, 3, predicate=lambda w: any(x != "1" for x in w))
    xi = indicator(event)
    report = levy_experiment(game, xi, list(BIN.tuples(3)))
    for row in report.rows:
        assert row.values[:-1] == [ONE, ONE, ONE]
        assert row.terminal_ok
        assert row.values[-1] == (ONE if row.in_event else ZERO)
        assert row.reaches_one
    assert upper_probability(game, event.complement()) == ONE


def test_levy_report_names_multi_character_labels_readably():
    lo1hi = OutcomeSet(["lo", "1", "hi"])
    game = GameSpec(lo1hi, Measure.uniform(lo1hi), 2)
    report = levy_experiment(game, indicator(EventWindow.coordinate_is(2, "1")), [("1", "hi")])
    assert str(report).splitlines()[0] == "1,hi: 1/3, 1/3, 0 (in event: False, reaches 1: False)"
    assert report.trace_rows() == [(0, "", "1/3"), (1, "1", "1/3"), (2, "1,hi", "0")]
    assert report.to_json()["paths"][0]["path"] == "1,hi"


def test_levy_experiment_constant_payoff():
    game = coin_game(2)
    report = levy_experiment(game, Payoff.constant("7/3", 2), [("0", "1")])
    assert report.rows[0].values == [ext("7/3")] * 3


def test_levy_experiment_martingale_identity_along_paths():
    game = coin_game(3)
    xi = indicator(EventWindow(2, 3, predicate=lambda w: w[0] == w[1]))
    report = levy_experiment(game, xi, list(BIN.tuples(3)))
    from gtprob.expectation import upper_expectation

    for row in report.rows:
        for n in range(3):
            s = row.path[:n]
            content = game.content_at(n + 1)
            kids = [upper_expectation(game, xi, s + (x,)) for x in BIN.labels]
            assert content.eval_seq(kids) == row.values[n]


# -- invariance ---------------------------------------------------------------


def test_invariance_coin_second_coordinate():
    report = kolmogorov_invariance(coin_game(2), EventWindow.coordinate_is(2, "1"))
    assert report.invariant
    assert set(report.values.values()) == {ext("1/2")}
    assert report.witness_ok


def test_invariance_sup_game():
    report = kolmogorov_invariance(sup_game(2), EventWindow.coordinate_is(2, "1"))
    assert report.invariant
    assert set(report.values.values()) == {ONE}
    assert report.witness_ok


def test_invariance_whole_space():
    report = kolmogorov_invariance(coin_game(2), EventWindow.whole_space())
    assert report.invariant
    assert report.values == {EMPTY: ONE}


def test_invariance_detects_prefix_dependence():
    # An event window that starts at 1 but is queried as if it started at 2
    # cannot be fed here; instead check a genuinely non-invariant case by
    # conditioning a window that straddles the prefix.
    game = coin_game(3)
    event = EventWindow(1, 2, predicate=lambda w: w[0] == w[1], label="match")
    values = {
        s: upper_probability(game, event, s) for s in BIN.tuples(1)
    }
    assert len({str(v) for v in values.values()}) == 1  # symmetric event still agrees
    skewed = EventWindow(1, 2, accepts=[("1", "1")])
    values = {s: upper_probability(game, skewed, s) for s in BIN.tuples(1)}
    assert values[("0",)] != values[("1",)]


def test_invariance_verdict_reads_every_prefix(monkeypatch, tmp_path, capsys):
    # No valid game gives an ignored prefix its own value, so the table is
    # skewed at the last prefix only; the relocation witness uses the first two.
    exact = laws.upper_table

    def skewed(game, xi):
        table = exact(game, xi)
        table.table[("1", "1")] = ONE
        return table

    monkeypatch.setattr(laws, "upper_table", skewed)
    report = kolmogorov_invariance(coin_game(3), EventWindow.coordinate_is(3, "1"))
    assert str(report).startswith("NOT invariant at prefix depth 2 [00: 1/2, 01: 1/2, 10: 1/2, 11: 1]")
    assert report.witness_ok
    spec = tmp_path / "coin.json"
    spec.write_text(json.dumps({"outcomes": ["0", "1"], "horizon": 3, "content": {"type": "measure", "probs": {"0": "1/2", "1": "1/2"}}}))
    assert main(["law", str(spec), "kolmogorov", "--event", "w3=1"]) == 1
    assert capsys.readouterr().out.startswith("NOT invariant")


# -- shift bound ----------------------------------------------------------------


def test_shift_bound_vacuous_condition():
    game = coin_game(3)
    report = ergodic_bound(game, EventWindow.coordinate_is(1, "1"), ("0",))
    assert report.condition_holds
    assert report.conditional == ZERO
    assert report.unconditional == ext("1/2")
    assert report.bound_holds and report.witness_ok


def test_shift_bound_whole_space():
    game = coin_game(2)
    report = ergodic_bound(game, EventWindow.whole_space(), ("1",))
    assert report.condition_holds and report.bound_holds
    assert report.conditional == ONE and report.unconditional == ONE


def test_shift_bound_envelope_game():
    # Conditioning on "0" keeps the drop-prefix condition non-vacuously
    # true for "some coordinate in the window equals 1": membership of 0w
    # needs a 1 among the first window coordinates of w, which stays a 1
    # in w's own window.  Conditioning on "1" would break the condition
    # (any continuation gains membership from the prefix), and the
    # enumeration reports exactly that.
    env = Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "1/4", "1": "3/4"}])
    game = GameSpec(BIN, env, 3)
    event = EventWindow(1, 2, predicate=lambda w: "1" in w, label="some-one")
    report = ergodic_bound(game, event, ("0",))
    assert report.condition_holds
    assert report.bound_holds and report.witness_ok
    failing = ergodic_bound(game, event, ("1",))
    assert not failing.condition_holds
    assert failing.counterexample == ("0", "0")


def test_shift_bound_counterexample_reported():
    game = coin_game(3)
    # Membership demands the first coordinate be 0; prefixing "0" can move
    # a continuation into the event, violating the drop-prefix condition.
    event = EventWindow.coordinate_is(1, "0")
    report = ergodic_bound(game, event, ("0",))
    assert not report.condition_holds
    assert report.counterexample is not None
    w = report.counterexample
    assert event.member(("0",) + w) and not event.member(w)


def test_shift_bound_rejects_round_dependent_games():
    game = GameSpec(BIN, [Measure.uniform(BIN), Measure(BIN, {"0": "1/3", "1": "2/3"})], 2)
    with pytest.raises(ValueError):
        ergodic_bound(game, EventWindow.whole_space(), ("1",))


@st.composite
def shift_cases(draw):
    """A game on K <= 3 outcomes priced alike at each of its three rounds,
    and an event on a window inside the horizon."""
    k = draw(st.integers(1, 3))
    outcomes = OutcomeSet([str(i) for i in range(k)])
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    measure = Measure(outcomes, [Fraction(w, sum(weights)) for w in weights])
    contents = [measure, SupContent(outcomes), Envelope(outcomes, [measure, Measure.uniform(outcomes)])]
    end = draw(st.integers(1, 3))
    start = draw(st.integers(1, end))
    window = list(outcomes.tuples(end - start + 1))
    accepts = draw(st.lists(st.sampled_from(window), unique=True))
    return GameSpec(outcomes, draw(st.sampled_from(contents)), 3), EventWindow(start, end, accepts=accepts)


@settings(max_examples=40, deadline=None)
@given(shift_cases())
def test_shift_bound_conditional_equals_the_sweep_on_the_deeper_game(case):
    # The conditional is read off the unconditional table; the sweep of the
    # game deepened by len(s) rounds is the oracle.
    game, event = case
    passed = 0
    for s in game.all_situations(3):
        report = ergodic_bound(game, event, s)
        if report.condition_holds:
            deep = GameSpec(game.outcomes, game.contents[0], len(s) + event.end)
            assert report.conditional == upper_probability(deep, event, s)
            passed += 1
    assert passed  # the root always meets the condition


def test_a_payoff_past_the_horizon_is_refused_before_its_rule_runs():
    def rule(_):
        raise AssertionError("the payoff rule ran")

    game = coin_game(3)
    xi = Payoff.from_rule(rule, 5)
    refusals = [
        lambda: determinacy_check(game, xi, 2),
        lambda: levy_strategy(game, xi, Fraction(1, 2), Fraction(3, 4)),
        lambda: kolmogorov_invariance(game, EventWindow(5, 5, predicate=rule)),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match="^payoff settles beyond the game horizon$"):
            refuse()


# -- scripted fixtures -------------------------------------------------------------


def test_scripted_constant_half_is_iid_coin_on_last_coordinate():
    scripted = scripted_conditional_game([Fraction(1, 2), Fraction(1, 2)])
    for content in scripted.game.contents:
        assert content.probs == (Fraction(1, 2), Fraction(1, 2))
    # The event is exactly "second coordinate equals 1".
    accepts = scripted.event.accepts(BIN)
    assert accepts == {("1", "1"), ("0", "1")}


def test_scripted_round_trip_against_the_dynamic_program():
    targets = [Fraction(1, 2), Fraction(2, 5), Fraction(19, 20)]
    scripted = scripted_conditional_game(targets)
    xi = indicator(scripted.event)
    for n, t in enumerate(targets):
        s = scripted.path[:n]
        assert upper_probability(scripted.game, scripted.event, s) == ext(t)
        assert scripted.cond(s) == ext(t)
    # Off-path conditionals also agree with the dynamic program.
    for s in list(BIN.tuples(1)) + list(BIN.tuples(2)):
        assert scripted.cond(s) == upper_probability(scripted.game, scripted.event, s)


def test_scripted_infeasible_prescription_raises():
    with pytest.raises(ValueError, match="infeasible"):
        scripted_conditional_game([Fraction(1, 2), Fraction(1, 2), Fraction(2, 5)])


def test_scripted_rejects_targets_outside_unit_interval():
    with pytest.raises(ValueError):
        scripted_conditional_game([Fraction(1, 2), Fraction(1)])


def test_scripted_oscillation_crosses_band():
    targets = [Fraction(1, 2), Fraction(19, 20)] * 3
    scripted = scripted_conditional_game(targets)
    vals = [scripted.cond(scripted.path[:n]).finite for n in range(len(targets))]
    assert vals == targets
    for s in list(BIN.tuples(2)) + list(BIN.tuples(4)):
        assert scripted.cond(s) == upper_probability(scripted.game, scripted.event, s)


@st.composite
def scripted_targets(draw):
    """Target lists of up to six steps, about half of them flat."""
    values = st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
    targets = [draw(values)]
    for _ in range(draw(st.integers(0, 5))):
        targets.append(targets[-1] if draw(st.booleans()) else draw(values))
    return targets


@settings(max_examples=150, deadline=None)
@example([Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)])  # carried 1/3 resolved by 1 - 2/3
@example([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)])  # carried 1/2 resolved by 1/2
@given(scripted_targets())
def test_scripted_conditionals_match_the_kernel_everywhere(targets):
    try:
        scripted = scripted_conditional_game(targets)
    except ValueError as exc:
        assert "infeasible prescription" in str(exc)
        assume(False)
    table = upper_table(scripted.game, indicator(scripted.event))
    for s in scripted.game.all_situations():
        assert scripted.cond(s) == table.value(s)


# -- classification -----------------------------------------------------------------


def test_classify_whole_space_almost_certain():
    report = zero_one_classify(coin_game(2), EventWindow.whole_space())
    assert report.classification == "almost-certain"


def test_classify_sup_game_fully_unprobabilized():
    event = EventWindow(1, 2, accepts=[("1", "0"), ("1", "1")])
    report = zero_one_classify(sup_game(2), event)
    assert report.classification == "fully-unprobabilized"


def test_classify_coin_point_interval_is_undetermined():
    report = zero_one_classify(coin_game(2), EventWindow.coordinate_is(1, "1"))
    assert report.rows[0][1] == ext("1/2") and report.rows[0][2] == ext("1/2")
    assert report.classification.startswith("undetermined")


def test_classify_refuses_an_event_past_the_horizon():
    with pytest.raises(ValueError, match="^horizon 3 must cover the event window end 4 and stay within the game horizon 3$"):
        zero_one_classify(coin_game(3), EventWindow.coordinate_is(4, "1"))
