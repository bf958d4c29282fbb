from fractions import Fraction

import pytest

from gtprob.extreal import INF, ONE, ZERO, ext, scale
from gtprob.functionals import Envelope, Measure, OutcomeSet, SupContent
from gtprob.gametree import EMPTY, GameSpec, verify_supermartingale
from gtprob.expectation import (
    EventWindow,
    Payoff,
    determinacy_check,
    indicator,
    lower_expectation,
    lower_probability,
    path_values,
    sup_variant_upper_expectation,
    upper_expectation,
    upper_probability,
    upper_table,
)
from oracles import reference_constant, reference_indicator, reference_leading_ones, reference_price, union_of

BIN = OutcomeSet(["0", "1"])


def coin_game(horizon=3):
    return GameSpec(BIN, Measure.uniform(BIN), horizon)


def sup_game(horizon=3):
    return GameSpec(BIN, SupContent(BIN), horizon)


def point_envelope_game(horizon=2):
    return GameSpec(BIN, Envelope(BIN, [{"0": 1, "1": 0}, {"0": 0, "1": 1}]), horizon)


def enumerate_leaf_average(game, xi):
    """Independent oracle for measure games: average with path-product weights."""
    total = Fraction(0)
    for leaf in game.outcomes.tuples(xi.depth):
        w = Fraction(1)
        for n, x in enumerate(leaf, start=1):
            content = game.content_at(n)
            w *= content.probs[game.outcomes.index(x)]
        total += w * xi.value(leaf).finite
    return ext(total)


def leaf_extreme(game, xi, s, best=max):
    return best(xi.value(s + rest) for rest in game.outcomes.tuples(xi.depth - len(s)))


# -- upper/lower expectation ----------------------------------------------


def test_one_step_indicator_is_half():
    game = coin_game()
    xi = indicator(EventWindow.coordinate_is(1, "1"))
    assert upper_expectation(game, xi, EMPTY) == ext("1/2")


def test_capped_doubling_run_depth_two():
    # Enumeration over {0,1}^2: values 1, 1, 2, 4 average to 2.
    game = coin_game(horizon=2)
    xi = Payoff.leading_ones_capped(4, 2)
    vals = sorted(xi.value(leaf).finite for leaf in BIN.tuples(2))
    assert vals == [1, 1, 2, 4]
    assert upper_expectation(game, xi) == ext(2)
    assert upper_expectation(game, xi) == enumerate_leaf_average(game, xi)


def test_capped_doubling_run_closed_form():
    # Direct-summation oracle: expectation of the capped run is k/2 + 1.
    for k in range(1, 7):
        game = coin_game(horizon=k)
        xi = Payoff.leading_ones_capped(Fraction(2) ** k, k)
        assert enumerate_leaf_average(game, xi) == ext(Fraction(k, 2) + 1)
        assert upper_expectation(game, xi) == ext(Fraction(k, 2) + 1)


def test_sup_game_prices_at_leaf_max():
    game = sup_game(horizon=3)
    xi = Payoff(3, lambda s: ext(sum(1 for x in s if x == "1")))
    assert upper_expectation(game, xi) == leaf_extreme(game, xi, EMPTY, max) == ext(3)
    assert lower_expectation(game, xi) == leaf_extreme(game, xi, EMPTY, min) == ZERO


def test_lower_expectation_examples():
    game = coin_game()
    xi = indicator(EventWindow.coordinate_is(1, "1"))
    assert lower_expectation(game, xi) == ext("1/2")
    s_game = sup_game()
    assert lower_expectation(s_game, xi) == ZERO
    assert upper_expectation(s_game, xi) == ONE
    const = Payoff.constant("7/3", 2)
    assert lower_expectation(game, const) == ext("7/3")
    assert upper_expectation(game, const) == ext("7/3")


def test_conditioning_at_and_beyond_the_payoff_depth():
    game = coin_game()
    xi = indicator(EventWindow.coordinate_is(2, "1"))
    assert upper_expectation(game, xi, ("0", "1")) == ONE
    assert upper_expectation(game, xi, ("0", "0", "1")) == ZERO


def test_situation_outside_tree_is_an_error():
    game = coin_game(horizon=2)
    xi = indicator(EventWindow.coordinate_is(1, "1"))
    with pytest.raises(ValueError):
        upper_expectation(game, xi, ("1", "1", "1"))
    with pytest.raises(ValueError):
        upper_expectation(game, Payoff.constant(0, 3))


# -- probabilities -----------------------------------------------------------


def test_conditional_probability_after_one_move():
    game = coin_game()
    e = EventWindow.coordinate_is(2, "1")
    assert upper_probability(game, e, ("0",)) == ext("1/2")


def test_envelope_game_mismatch_event():
    game = point_envelope_game()
    e = EventWindow(1, 2, predicate=lambda w: w[0] != w[1], label="mismatch")
    assert upper_probability(game, e) == ONE
    assert lower_probability(game, e) == ZERO


def test_whole_space_has_probability_one_everywhere():
    for game in (coin_game(), sup_game()):
        omega = EventWindow.whole_space()
        for s in [EMPTY, ("0",), ("1", "1")]:
            assert upper_probability(game, omega, s) == ONE
            assert lower_probability(game, omega, s) == ONE


def test_lower_probability_complement_identity_holds():
    game = coin_game()
    e = EventWindow(1, 2, accepts=[("1", "1"), ("0", "1")])
    assert lower_probability(game, e) == ONE - upper_probability(game, e.complement())


# -- running-maximum coverage -------------------------------------------------


def test_sup_variant_of_capped_run_is_one():
    for k in range(1, 6):
        game = coin_game(horizon=k)
        xi = Payoff.leading_ones_capped(Fraction(2) ** k, k)
        assert sup_variant_upper_expectation(game, xi) == ONE


def test_sup_variant_of_indicator_equals_upper_probability():
    game = coin_game(horizon=3)
    events = [
        EventWindow.coordinate_is(1, "1"),
        EventWindow(1, 2, accepts=[("1", "1")]),
        EventWindow(1, 3, predicate=lambda w: w.count("1") >= 2),
        EventWindow.empty(),
        EventWindow.whole_space(),
    ]
    for e in events:
        xi = indicator(e)
        assert sup_variant_upper_expectation(game, xi) == upper_probability(game, e)


def test_sup_variant_of_constant_is_the_constant():
    game = coin_game(horizon=2)
    for c in (0, 1, "7/2"):
        assert sup_variant_upper_expectation(game, Payoff.constant(c, 2)) == ext(c)


def test_sup_variant_rejects_infinite_payoffs():
    game = coin_game(horizon=1)
    xi = Payoff.from_table({("0",): 0, ("1",): INF}, 1)
    with pytest.raises(ValueError, match=r"^payoff must be finite-valued, got inf at 1$"):
        sup_variant_upper_expectation(game, xi)


def test_sup_variant_never_exceeds_terminal_coverage():
    game = coin_game(horizon=3)
    rng_vals = [Fraction(n % 5, 2) for n in range(8)]
    xi = Payoff.from_table(
        {leaf: rng_vals[i] for i, leaf in enumerate(BIN.tuples(3))}, 3
    )
    for g in (game, sup_game(3)):
        assert sup_variant_upper_expectation(g, xi) <= upper_expectation(g, xi)


# -- determinacy ---------------------------------------------------------------


def test_measure_games_are_determinate():
    game = coin_game(horizon=3)
    xi = Payoff.from_table(
        {leaf: Fraction(i, 3) for i, leaf in enumerate(BIN.tuples(3))}, 3
    )
    report = determinacy_check(game, xi, 3)
    assert report.determinate


def test_sup_game_gap_at_root():
    game = sup_game(horizon=1)
    xi = indicator(EventWindow.coordinate_is(1, "1"))
    report = determinacy_check(game, xi, 0)
    assert not report.determinate
    assert report.gaps == [(EMPTY, ONE, ZERO)]


def test_determinacy_depth_is_held_to_the_payoff_depth():
    game = sup_game(horizon=2)
    xi = indicator(EventWindow.coordinate_is(2, "1"))
    report = determinacy_check(game, xi, 7)
    assert report.depth == 2
    assert report.gaps == determinacy_check(game, xi, 2).gaps == [(s, ONE, ZERO) for s in [EMPTY, ("0",), ("1",)]]


def test_constant_payoff_determinate_everywhere():
    game = sup_game(horizon=2)
    report = determinacy_check(game, Payoff.constant(3, 2), 2)
    assert report.determinate


def test_determinacy_reports_print_their_gaps_or_the_truncation():
    xi = indicator(EventWindow.coordinate_is(1, "1"))
    assert str(determinacy_check(sup_game(horizon=1), xi, 1)) == "1 gap(s) up to depth 1:\n  □: upper=1, lower=0, gap=1"
    assert str(determinacy_check(coin_game(horizon=1), xi, 1)) == (
        "determinate at every situation up to depth 1; "
        "finite-horizon surrogate: determinacy certified up to the stated depth only"
    )


# -- structural invariants ------------------------------------------------------


def sample_payoffs(depth):
    vals = [
        {leaf: Fraction(i % 3, 2) for i, leaf in enumerate(BIN.tuples(depth))},
        {leaf: Fraction((7 * i) % 5) - 2 for i, leaf in enumerate(BIN.tuples(depth))},
    ]
    return [Payoff.from_table(v, depth) for v in vals]


def games(depth):
    return [
        coin_game(depth),
        GameSpec(BIN, Measure(BIN, {"0": "1/3", "1": "2/3"}), depth),
        sup_game(depth),
        point_envelope_game(depth),
    ]


def test_martingale_identity_at_every_interior_node():
    depth = 3
    for game in games(depth):
        for xi in sample_payoffs(depth):
            table = upper_table(game, xi)
            for d in range(depth):
                content = game.content_at(d + 1)
                for s in game.outcomes.tuples(d):
                    kids = [table.value(s + (x,)) for x in BIN.labels]
                    assert reference_price(content, kids) == table.value(s)
            res = verify_supermartingale(game, table)
            assert res.ok and res.martingale


def test_a_payoff_past_the_horizon_is_refused_by_every_sweep():
    game, xi = coin_game(2), indicator(EventWindow.coordinate_is(3, "1"))
    for sweep in (upper_expectation, upper_table):
        with pytest.raises(ValueError, match="^payoff settles beyond the game horizon$"):
            sweep(game, xi)


def test_conditional_upper_is_an_outer_content_in_the_payoff():
    # Monotone, homogeneous, subadditive, normalized, as a functional of
    # the payoff at a fixed situation.
    depth = 2
    for game in games(depth):
        for s in [EMPTY, ("1",)]:
            f, g = sample_payoffs(depth)
            uf = upper_expectation(game, f, s)
            ug = upper_expectation(game, g, s)
            both = Payoff(depth, lambda leaf: f.value(leaf) + g.value(leaf))
            assert upper_expectation(game, both, s) <= uf + ug
            scaled = Payoff(depth, lambda leaf: scale(Fraction(3, 2), f.value(leaf)))
            assert upper_expectation(game, scaled, s) == scale(Fraction(3, 2), uf)
            const = Payoff.constant("5/4", depth)
            assert upper_expectation(game, const, s) == ext("5/4")
            if all(f.value(l) <= g.value(l) for l in BIN.tuples(depth)):
                assert uf <= ug


def test_lower_never_exceeds_upper():
    depth = 3
    for game in games(depth):
        for xi in sample_payoffs(depth):
            for s in [EMPTY, ("0",), ("1", "0")]:
                assert lower_expectation(game, xi, s) <= upper_expectation(game, xi, s)


def test_union_bound_for_window_events():
    depth = 3
    events = [
        EventWindow.coordinate_is(1, "1"),
        EventWindow(2, 3, accepts=[("1", "1")]),
        EventWindow(1, 2, predicate=lambda w: w[0] == w[1], label="match"),
    ]
    union = union_of(events)
    for game in (coin_game(depth), point_envelope_game(depth), sup_game(depth)):
        for s in [EMPTY, ("1",)]:
            lhs = upper_probability(game, union, s)
            rhs = ZERO
            for e in events:
                rhs = rhs + upper_probability(game, e, s)
            assert lhs <= rhs


@pytest.mark.parametrize("weights", [None, [Fraction(3, 2), Fraction(-1, 2), 0]], ids=["uniform", "unchecked"])
def test_plus_infinity_dominates_minus_infinity_in_a_measure(weights):
    k3 = OutcomeSet(["0", "1", "2"])
    measure = Measure.uniform(k3) if weights is None else Measure.unchecked(k3, weights)
    game = GameSpec(k3, measure, 1)
    xi = Payoff.from_table({("0",): "inf", ("1",): "-inf", ("2",): 3}, 1)
    assert upper_expectation(game, xi) == INF
    assert lower_expectation(game, xi) == -INF


def test_indicator_payoffs_carry_their_event():
    event = EventWindow.coordinate_is(2, "1")
    assert indicator(event).event is event
    assert Payoff.constant(1, 2).event is None
    assert repr(indicator(event)) == "Payoff(depth=2, event=EventWindow([2, 2] 'w2=1'))"
    assert repr(Payoff.constant(1, 2)) == "Payoff(depth=2, event=None)"
    assert repr(EventWindow(1, 2, predicate=lambda w: True)) == "EventWindow([1, 2])"
    assert Payoff.__slots__ == ("depth", "_fn", "event", "_automaton", "_kept")
    assert Payoff(2, lambda s: ONE)._automaton is None


def test_only_an_indicator_carries_an_event():
    # A rule reading the first coordinate beside the event "w3 = 1" would
    # be swept on that event's lattice and priced at 0; it is worth 1/2.
    first = lambda s: ONE if s[0] == "1" else ZERO
    with pytest.raises(TypeError):
        Payoff(3, first, EventWindow.coordinate_is(3, "1"))
    xi = Payoff(3, first)
    assert (xi.event, xi._automaton, upper_expectation(coin_game(3), xi)) == (None, None, ext("1/2"))


def test_depth_zero_payoff_is_its_root_value():
    game = coin_game(2)
    xi = Payoff.constant("5/7", 0)
    assert upper_expectation(game, xi) == ext("5/7")
    assert lower_expectation(game, xi) == ext("5/7")


from hypothesis import given
from hypothesis import strategies as st

leaf_value = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(st.lists(leaf_value, min_size=8, max_size=8))
def test_measure_dp_matches_classical_expectation_property(vals):
    game = coin_game(3)
    xi = Payoff.from_table({l: v for l, v in zip(BIN.tuples(3), vals)}, 3)
    classical = sum(vals, Fraction(0)) / 8
    assert upper_expectation(game, xi) == ext(classical)
    assert lower_expectation(game, xi) == ext(classical)


@given(st.lists(leaf_value, min_size=4, max_size=4))
def test_interval_order_property(vals):
    xi = Payoff.from_table({l: v for l, v in zip(BIN.tuples(2), vals)}, 2)
    for game in (sup_game(2), point_envelope_game(2)):
        assert lower_expectation(game, xi) <= upper_expectation(game, xi)


def test_monotone_in_the_payoff():
    depth = 2
    for game in games(depth):
        lo = Payoff.from_table({l: Fraction(i % 2) for i, l in enumerate(BIN.tuples(depth))}, depth)
        hi = Payoff(depth, lambda l: lo.value(l) + ONE)
        for s in [EMPTY, ("0",)]:
            assert upper_expectation(game, lo, s) <= upper_expectation(game, hi, s)


# -- the level kernel against a node-by-node reference ---------------------

from hypothesis import example, settings

from gtprob.extreal import NEG_INF
from gtprob.functionals import Gamble, TableContent, extend_bounded_below


def reference_table(game, leaves):
    """Node-by-node backward recursion through each round's reference price."""
    table = dict(leaves)
    depth = len(next(iter(leaves)))
    for d in range(depth - 1, -1, -1):
        content = game.content_at(d + 1)
        for s in game.outcomes.tuples(d):
            table[s] = reference_price(content, [table[s + (x,)] for x in game.outcomes.labels])
    return table


odd_weight = st.sampled_from([Fraction(0), Fraction(-1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(-5, 2)])


@st.composite
def kernel_cases(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    depth = draw(st.integers(1, 4 if k < 4 else 3))
    outcomes = OutcomeSet([str(i) for i in range(k)])

    def measure():
        w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        return Measure(outcomes, [Fraction(x, sum(w)) for x in w])

    def unchecked():
        return Measure.unchecked(outcomes, draw(st.lists(odd_weight, min_size=k, max_size=k)))

    def envelope():
        members = [measure() for _ in range(draw(st.integers(1, 3)))]
        return Envelope(outcomes, members + ([unchecked()] if draw(st.booleans()) else []))

    makers = {
        "measure": measure,
        "unchecked": unchecked,
        "envelope": envelope,
        "sup": lambda: SupContent(outcomes),
        "extended": lambda: extend_bounded_below(outcomes, measure().eval),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=depth, max_size=depth))
    contents = [makers[kind]() for kind in kinds]
    finite = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    # Numerators past 1e308 beside an infinity overflow any float sum.
    special = st.sampled_from([INF, NEG_INF, Fraction(10**400), Fraction(-(10**400), 7)])
    leaf = (finite | special) if draw(st.booleans()) else finite
    leaves = {s: ext(draw(leaf)) for s in outcomes.tuples(depth)}
    if draw(st.booleans()):
        # A price list on the last round, covering every gamble it meets
        # for the payoff and for its negation.
        groups = set()
        for s in outcomes.tuples(depth - 1):
            values = [leaves[s + (x,)] for x in outcomes.labels]
            groups |= {tuple(values), tuple(-v for v in values)}
        gambles = [Gamble(outcomes, g) for g in sorted(groups, key=repr)]
        price = measure()
        contents[-1] = TableContent(outcomes, [(g, price.eval(g)) for g in gambles])
    game = GameSpec(outcomes, contents, depth)
    situations = draw(st.lists(st.sampled_from(list(game.all_situations(depth))), min_size=1, max_size=4))
    return game, leaves, situations, draw(st.integers(0, depth))


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_level_kernel_matches_node_by_node_recursion(case):
    game, leaves, situations, det_depth = case
    depth = game.horizon
    xi = Payoff.from_table(leaves, depth)
    up = reference_table(game, leaves)
    down = reference_table(game, {s: -v for s, v in leaves.items()})
    assert upper_table(game, xi).table == up
    for s in situations:
        assert upper_expectation(game, xi, s) == up[s]
        assert lower_expectation(game, xi, s) == -down[s]
    gaps = [
        (s, up[s], -down[s])
        for s in game.all_situations(det_depth)
        if up[s] != -down[s]
    ]
    assert determinacy_check(game, xi, det_depth).gaps == gaps


# -- the running-maximum sweep against two slow oracles ----------------------

import itertools
import random


def snell_touch_price(game, xi):
    """Brute force: assign each positive leaf to one of its prefixes, where
    capital must reach the leaf's level.  For an assignment the least
    nonnegative capital table is the Snell envelope
    ``K(u) = max(r(u), E(K(u.)))`` of the requirement ``r``; the price is
    the minimum over all assignments."""
    depth = xi.depth
    positive = [(s, xi.value(s).finite) for s in game.outcomes.tuples(depth) if xi.value(s) > ZERO]

    def root_value(assign):
        req = {}
        for (_, v), u in zip(positive, assign):
            req[u] = max(req.get(u, Fraction(0)), v)

        def envelope(u):
            floor = ext(req.get(u, Fraction(0)))
            if len(u) == depth:
                return floor
            kids = [envelope(u + (x,)) for x in game.outcomes.labels]
            return max(floor, reference_price(game.content_at(len(u) + 1), kids))

        return envelope(EMPTY)

    prefixes = [[s[:j] for j in range(depth + 1)] for s, _ in positive]
    return min(map(root_value, itertools.product(*prefixes)))


def test_sup_variant_matches_snell_envelope_oracle():
    rng = random.Random(20090)
    for k, depth in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        outcomes = OutcomeSet([str(i) for i in range(k)])
        contents = [
            Measure(outcomes, [Fraction(i + 1, k * (k + 1) // 2) for i in range(k)]),
            SupContent(outcomes),
            Envelope(
                outcomes,
                [Measure.uniform(outcomes), [Fraction(1, 2)] + [Fraction(1, 2 * (k - 1))] * (k - 1)],
            ),
        ]
        for content in contents:
            for _ in range(3):
                leaves = list(outcomes.tuples(depth))
                # At most five positive leaves keep the enumeration small;
                # the rest are zero or negative.
                values = [Fraction(rng.randint(-4, 0), rng.choice([1, 2])) for _ in leaves]
                for i in rng.sample(range(len(values)), min(5, len(values))):
                    values[i] = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
                xi = Payoff.from_table(dict(zip(leaves, values)), depth)
                game = GameSpec(outcomes, content, depth)
                assert sup_variant_upper_expectation(game, xi) == snell_touch_price(game, xi)


def scan_touch_price(game, xi):
    """The memoized top-down recursion the level sweep replaced: for each
    (situation, touched level) state, an ascending scan over the touched
    levels returns the first admissible value, pricing the children
    through each round's ``reference_price``."""
    span = xi.depth
    leaf_vals = {s: xi.value(s) for s in game.outcomes.tuples(span)}
    thresholds = sorted({Fraction(0)} | {v.finite for v in leaf_vals.values() if v.finite > 0})
    submax = {s: v.finite for s, v in leaf_vals.items()}
    for d in range(span - 1, -1, -1):
        for s in game.outcomes.tuples(d):
            submax[s] = max(submax[s + (x,)] for x in game.outcomes.labels)
    memo = {}

    def value(s, theta):
        if (s, theta) not in memo:
            if thresholds[theta] >= submax[s]:
                memo[s, theta] = ZERO
            elif len(s) == span:
                memo[s, theta] = leaf_vals[s]
            else:
                content = game.content_at(len(s) + 1)
                for j in range(len(thresholds)):
                    kids = [value(s + (x,), max(theta, j)) for x in game.outcomes.labels]
                    candidate = max(ext(thresholds[j]), reference_price(content, kids))
                    if j + 1 == len(thresholds) or candidate < ext(thresholds[j + 1]):
                        break
                memo[s, theta] = candidate
        return memo[s, theta]

    return value(EMPTY, 0)


@st.composite
def touch_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 4 if k == 2 else 3))
    outcomes = OutcomeSet([str(i) for i in range(k)])

    def measure():
        w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        return Measure(outcomes, [Fraction(x, sum(w)) for x in w])

    def unchecked():
        return Measure.unchecked(outcomes, draw(st.lists(odd_weight, min_size=k, max_size=k)))

    makers = {
        "measure": measure,
        "unchecked": unchecked,
        "envelope": lambda: Envelope(
            outcomes,
            [measure() for _ in range(draw(st.integers(1, 2)))]
            + ([unchecked()] if draw(st.booleans()) else []),
        ),
        "sup": lambda: SupContent(outcomes),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=depth, max_size=depth))
    contents = [makers[kind]() for kind in kinds]
    if draw(st.booleans()):
        # One round priced through eval_seq rather than on numerators.
        contents[draw(st.integers(0, depth - 1))] = extend_bounded_below(outcomes, measure().eval)
    # A small pool of levels with mixed denominators keeps the scan quick.
    level = st.fractions(min_value=-6, max_value=12, max_denominator=6)
    pool = draw(st.lists(level, min_size=1, max_size=6))
    leaves = {s: draw(st.sampled_from(pool + [Fraction(0)])) for s in outcomes.tuples(depth)}
    return GameSpec(outcomes, contents, depth), Payoff.from_table(leaves, depth)


@settings(max_examples=60, deadline=None)
@given(touch_cases())
def test_sup_variant_sweep_matches_memoized_scan(case):
    game, xi = case
    assert sup_variant_upper_expectation(game, xi) == scan_touch_price(game, xi)


def test_sup_variant_price_equal_to_the_next_level_moves_on():
    # Touched level 0 prices the children at exactly the next level 1, so
    # the scan moves on to level 1, where the children are worth 3/2.  A
    # round with a negative weight makes this differ from stopping at 1.
    game = GameSpec(BIN, Measure.unchecked(BIN, [Fraction(-1, 2), Fraction(1, 2)]), 1)
    xi = Payoff.from_table({("0",): 1, ("1",): 3}, 1)
    assert sup_variant_upper_expectation(game, xi) == scan_touch_price(game, xi) == ext("3/2")


# -- the lattice sweep against the dense sweep -----------------------------

from gtprob.expectation import _sweep
from gtprob.extreal import _numerators
from gtprob.functionals import UnknownGambleError


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return "value", call()
    except (UnknownGambleError, ValueError) as exc:
        return type(exc).__name__, exc.args[0]


def dense_levels(game, xi, s, keep, negate=False):
    """Every leaf below ``s``, read one by one through ``Payoff.value``, swept whole."""
    leaves = [xi.value(s + rest) for rest in game.outcomes.tuples(xi._span(game, s))]
    return _sweep(game, (leaves, *_numerators(leaves)), len(s), xi.depth, keep, negate)


def dense_value(game, xi, s, negate=False):
    if len(s) >= xi.depth:
        return xi.value(s[: xi.depth])
    v = dense_levels(game, xi, s, len(s), negate)[0][0]
    return -v if negate else v


def met_gambles(game, xi, n):
    """The gambles round ``n`` prices in the dense upper and lower sweeps."""
    if n > xi.depth:
        return []
    k, gambles = len(game.outcomes), set()
    for negate in (False, True):
        level = dense_levels(game, xi, EMPTY, xi.depth, negate)[n]
        gambles |= {tuple(level[i : i + k]) for i in range(0, len(level), k)}
    return sorted(gambles, key=repr)


def test_rounds_above_the_window_price_their_constant():
    # Weights summing to 2 double a constant, so every round above the
    # window counts.
    game = GameSpec(BIN, Measure.unchecked(BIN, [1, 1]), 3)
    xi = indicator(EventWindow.coordinate_is(3, "1"))
    assert upper_expectation(game, xi) == ext(4) == dense_value(game, xi, EMPTY)
    assert upper_table(game, xi).value(EMPTY) == ext(4)


LATTICE_VALUES = st.sampled_from([ext(v) for v in ("-2", "-1/2", "0", "1", "3/2", "5")] + [INF, NEG_INF])


def automaton_payoff(depth, start, delta, values):
    """A payoff read off the automaton whose state moves from ``w`` to
    ``delta[w, n, x]`` on outcome ``x`` of round ``n``."""
    return Payoff._from_automaton(depth, start, lambda w, n, x: delta[w, n, x], values.__getitem__)


@st.composite
def lattice_payoffs(draw, outcomes, horizon):
    """An indicator, a capped leading-ones run, a constant or a random
    automaton with at most four states, settled within ``horizon``."""
    kind = draw(st.sampled_from(["indicator", "leading_ones", "constant", "automaton"]))
    if kind == "indicator":
        end = draw(st.integers(1, horizon))
        start = draw(st.integers(1, end))
        window = st.tuples(*[st.sampled_from(outcomes.labels)] * (end - start + 1))
        event = EventWindow(start, end, accepts=draw(st.lists(window, max_size=6)))
        return indicator(event.complement() if draw(st.booleans()) else event)
    depth = draw(st.integers(0, horizon))
    if kind == "leading_ones":
        return Payoff.leading_ones_capped(draw(st.fractions(1, 2**depth, max_denominator=3)), depth)
    if kind == "constant":
        return Payoff.constant(draw(LATTICE_VALUES), depth)
    m = draw(st.integers(1, 4))
    state = st.integers(0, m - 1)
    delta = {(w, n, x): draw(state) for n in range(1, depth + 1) for w in range(m) for x in outcomes.labels}
    return automaton_payoff(depth, draw(state), delta, [draw(LATTICE_VALUES) for _ in range(m)])


@st.composite
def quotient_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    horizon = draw(st.integers(1, 6 if k == 2 else 5))
    outcomes = OutcomeSet([str(i) for i in range(k)])

    def measure():
        w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        return Measure(outcomes, [Fraction(x, sum(w)) for x in w])

    def unchecked():
        return Measure.unchecked(outcomes, draw(st.lists(odd_weight, min_size=k, max_size=k)))

    makers = {
        "measure": measure,
        "unchecked": unchecked,
        "envelope": lambda: Envelope(outcomes, [measure() for _ in range(draw(st.integers(1, 3)))]),
        "sup": lambda: SupContent(outcomes),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=horizon, max_size=horizon))
    contents = [makers[kind]() for kind in kinds]
    xi = draw(lattice_payoffs(outcomes, horizon))
    game = GameSpec(outcomes, contents, horizon)
    if draw(st.booleans()):
        # One round priced from a list holding some of the gambles it
        # meets, by a measure; the rest are gaps.
        n = draw(st.integers(1, horizon))
        price = measure()
        gambles = [Gamble(outcomes, g) for g in met_gambles(game, xi, n) if draw(st.booleans())]
        contents[n - 1] = TableContent(outcomes, [(g, price.eval(g)) for g in gambles])
        game = GameSpec(outcomes, contents, horizon)
    # Situations before, inside and past the window.
    situation = st.integers(0, min(horizon, xi.depth + 1)).flatmap(
        lambda n: st.tuples(*[st.sampled_from(outcomes.labels)] * n)
    )
    return game, xi, draw(st.lists(situation, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(quotient_cases())
def test_quotient_sweep_matches_the_dense_sweep(case):
    game, xi, situations = case
    for s in situations:
        assert outcome(lambda: upper_expectation(game, xi, s)) == outcome(lambda: dense_value(game, xi, s))
        assert outcome(lambda: lower_expectation(game, xi, s)) == outcome(lambda: dense_value(game, xi, s, True))
    # The situations read as paths, on the lattice and on the tree: the one
    # sweep fails as the dense root sweep does, else each prefix's value is
    # the dense sweep's below it.
    dense_rows = outcome(lambda: [[dense_value(game, xi, s[:n]) for n in range(len(s) + 1)] for s in situations])
    for payoff in (xi, Payoff(xi.depth, xi.value)):
        assert outcome(lambda: list(map(path_values(game, payoff), situations))) == dense_rows
    # The running-maximum price on the lattice, against a rule-only copy on
    # the tree and, on small trees priced by built-ins, the memoized scan.
    touch = outcome(lambda: sup_variant_upper_expectation(game, xi))
    assert touch == outcome(lambda: sup_variant_upper_expectation(game, Payoff(xi.depth, xi.value)))
    table_free = not any(isinstance(game.content_at(n), TableContent) for n in range(1, game.horizon + 1))
    if touch[0] == "value" and table_free and len(game.outcomes) ** xi.depth <= 27:
        assert touch[1] == scan_touch_price(game, xi)


def test_each_factory_automaton_agrees_with_its_rule():
    # Each factory's leaf values, read one by one and on the tree, against
    # the reference rule of its kind.
    for depth in range(8):
        leaves = list(BIN.tuples(depth))
        pairs = [(Payoff.constant(v, depth), reference_constant(v)) for v in (ext("-3/2"), ZERO, INF, NEG_INF)]
        for cap in range(1, 301):
            if 2**depth >= cap:
                caps = (cap, Fraction(2 * cap + 1, 3))
                pairs += [(Payoff.leading_ones_capped(c, depth), reference_leading_ones(c)) for c in caps]
            else:
                with pytest.raises(ValueError, match="too shallow"):
                    Payoff.leading_ones_capped(cap, depth)
        for start in range(1, depth + 1):
            odd = EventWindow(start, depth, predicate=lambda w: w.count("1") % 2 == 1)
            ones = EventWindow(start, depth, accepts=[("1",) * (depth - start + 1)])
            pairs += [(indicator(event), reference_indicator(event)) for event in (odd, odd.complement(), ones)]
        for xi, rule in pairs:
            expected = [rule(leaf) for leaf in leaves]
            assert [xi.value(leaf) for leaf in leaves] == expected
            if depth:
                assert xi._leaf_level(coin_game(depth))[0] == expected


def test_a_price_list_fails_on_the_gamble_the_dense_sweep_fails_on():
    # The third round's gamble (0, 1) is listed; the second round's
    # constant (1/2, 1/2) is not, and both sweeps stop there.
    half = Measure.uniform(BIN)
    table = TableContent(BIN, [(Gamble(BIN, [ZERO, ONE]), ext("1/2"))])
    game = GameSpec(BIN, [half, table, table], 3)
    xi = indicator(EventWindow.coordinate_is(3, "1"))
    expected = ("UnknownGambleError", "no table entry for gamble values ('1/2', '1/2')")
    assert outcome(lambda: dense_value(game, xi, EMPTY)) == expected
    assert outcome(lambda: upper_expectation(game, xi)) == expected


def test_a_price_list_fails_on_the_first_missing_gamble_in_rank_order():
    # Round 2 meets (0, 0) below "0" and (0, 1) below "1", and lists
    # neither; every sweep names the first in rank order.
    game = GameSpec(BIN, [Measure.uniform(BIN), TableContent(BIN, [])], 2)
    xi = indicator(EventWindow(1, 2, accepts=[("1", "1")]))
    expected = ("UnknownGambleError", "no table entry for gamble values ('0', '0')")
    for sweep in (upper_expectation, lower_expectation, sup_variant_upper_expectation):
        assert outcome(lambda: sweep(game, xi)) == expected


# -- the library's input checks ----------------------------------------------

from gtprob.forecaster import Protocol2Spec, upper_expectation_p2
from gtprob.functionals import GambleSpaceError, check_axioms
from gtprob.laws import scripted_conditional_game

OTHER = OutcomeSet(["a", "b"])
# A table payoff without the leaves 01 and 10: each tabulation names the first missing leaf in rank order.
PARTIAL = Payoff.from_table({("0", "0"): 1, ("1", "1"): 2}, 2)

INPUT_CHECKS = {
    "payoff_negative_depth": (
        lambda: Payoff(-1, lambda s: ZERO), ValueError, "payoff depth must be nonnegative"),
    "payoff_table_missing_leaf": (
        lambda: Payoff.from_table({("0",): 1}, 1).value(("1",)), KeyError, "payoff table has no entry for ('1',)"),
    "payoff_table_missing_leaf_at_the_root": (
        lambda: upper_expectation(coin_game(2), PARTIAL), KeyError, "payoff table has no entry for ('0', '1')"),
    "payoff_table_missing_leaf_below_a_situation": (
        lambda: upper_expectation(coin_game(2), PARTIAL, ("1",)), KeyError, "payoff table has no entry for ('1', '0')"),
    "payoff_table_missing_leaf_in_its_table": (
        lambda: upper_table(coin_game(2), PARTIAL), KeyError, "payoff table has no entry for ('0', '1')"),
    "determinacy_at_a_negative_depth": (
        lambda: determinacy_check(coin_game(2), PARTIAL, -1), ValueError, "determinacy depth must be nonnegative"),
    "payoff_value_at_the_wrong_depth": (
        lambda: Payoff.constant(1, 2).value(("0",)), ValueError, "payoff is settled at depth 2, got 1"),
    "window_with_both_sources": (
        lambda: EventWindow(1, 1, accepts=[("1",)], predicate=lambda w: True),
        ValueError, "give exactly one of accepts or predicate"),
    "window_with_neither_source": (
        lambda: EventWindow(1, 1), ValueError, "give exactly one of accepts or predicate"),
    "member_on_a_short_prefix": (
        lambda: EventWindow(2, 3, predicate=lambda w: True).member(("1", "0")),
        ValueError, "prefix does not cover the event window"),
    "member_window_of_the_wrong_width": (
        lambda: EventWindow(2, 3, predicate=lambda w: True).member_window(("1",)),
        ValueError, "window tuple must have length 2"),
    "game_with_horizon_zero": (
        lambda: GameSpec(BIN, Measure.uniform(BIN), 0), ValueError, "horizon must be a positive integer"),
    "game_with_too_few_rounds": (
        lambda: GameSpec(BIN, [Measure.uniform(BIN)] * 2, 3),
        ValueError, "need one pricing functional per round 1..horizon"),
    "game_with_a_functional_on_another_set": (
        lambda: GameSpec(BIN, Measure.uniform(OutcomeSet(["a", "b", "c"])), 2),
        ValueError, "every pricing functional must live on the game's outcome set"),
    "content_at_round_zero": (
        lambda: coin_game(2).content_at(0), ValueError, "round 0 outside 1..2"),
    "content_at_past_the_horizon": (
        lambda: coin_game(2).content_at(3), ValueError, "round 3 outside 1..2"),
    "empty_outcome_set": (
        lambda: OutcomeSet([]), ValueError, "outcome set must be non-empty"),
    "extreal_plus_an_int": (
        lambda: ONE + 1, TypeError, "unsupported operand type(s) for +: 'ExtReal' and 'int'"),
    "extreal_minus_an_int": (
        lambda: ONE - 1, TypeError, "unsupported operand type(s) for -: 'ExtReal' and 'int'"),
    "extreal_below_an_int": (
        lambda: ONE < 1, TypeError, "'<' not supported between instances of 'ExtReal' and 'int'"),
    "extreal_at_most_an_int": (
        lambda: ONE <= 1, TypeError, "'<=' not supported between instances of 'ExtReal' and 'int'"),
    "extreal_above_an_int": (
        lambda: ONE > 1, TypeError, "'>' not supported between instances of 'ExtReal' and 'int'"),
    "extreal_at_least_an_int": (
        lambda: ONE >= 1, TypeError, "'>=' not supported between instances of 'ExtReal' and 'int'"),
    "finite_part_of_an_infinity": (
        lambda: INF.finite, ValueError, "inf is not finite"),
    "index_of_an_unknown_label": (
        lambda: BIN.index("z"), GambleSpaceError, "unknown outcome 'z'; labels are ('0', '1')"),
    "gamble_with_too_few_values": (
        lambda: Gamble(BIN, [ZERO]), ValueError, "gamble must assign a value to every outcome"),
    "measure_with_too_many_weights": (
        lambda: Measure(BIN, ["1/3", "1/3", "1/3"]), ValueError, "need one weight per outcome"),
    "envelope_member_on_another_set": (
        lambda: Envelope(BIN, [Measure.uniform(OTHER)]), GambleSpaceError, "envelope member on a different outcome set"),
    "table_entry_on_another_set": (
        lambda: TableContent(BIN, [(Gamble.of(OTHER, [0, 1]), 1)]),
        GambleSpaceError, "table entry on a different outcome set"),
    "forecaster_functional_on_another_set": (
        lambda: Protocol2Spec(BIN, [("c",)], {"c": Measure.uniform(OTHER)}),
        ValueError, "functional for 'c' must live on the shared outcome set"),
    "two_phase_conditioning_past_its_depth": (
        lambda: upper_expectation_p2(Protocol2Spec(BIN, [("c",)] * 2, {"c": Measure.uniform(BIN)}), lambda pairs: ONE, 1,
                                     (("c", "0"), ("c", "1"))),
        ValueError, "conditioning history longer than the payoff depth"),
    "empty_envelope": (
        lambda: Envelope(BIN, []), ValueError, "envelope needs at least one measure"),
    "empty_audit_suite": (
        lambda: check_axioms(Measure.uniform(BIN), []), ValueError, "audit suite must be non-empty"),
    "scripted_game_without_targets": (
        lambda: scripted_conditional_game([]), ValueError, "need at least one target"),
}


@pytest.mark.parametrize("call, kind, text", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_library_input_checks_raise_their_text(call, kind, text):
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), caught.value.args[0]) == (kind, text)


# -- a table payoff's kept leaf level against a fresh copy -------------------

from gtprob.strategies import levy_strategy


def levy_signature(res):
    cuts = [[c.members for c in cuts] for cuts in (res.trace.sigma, res.trace.tau)]
    return res.table.table, res.cond_table.table, res.shift, res.halted, cuts


# Each call reads one payoff; its result on the kept level must equal its result on a fresh copy.
MEMO_CALLS = {
    "upper": lambda game, xi, s, d: upper_expectation(game, xi, s),
    "lower": lambda game, xi, s, d: lower_expectation(game, xi, s),
    "leaves": lambda game, xi, s, d: xi._leaf_level(game, s[: xi.depth])[0],
    "table": lambda game, xi, s, d: upper_table(game, xi).table,
    "paths": lambda game, xi, s, d: list(map(path_values(game, xi), [s, s[:1]])),
    "determinacy": lambda game, xi, s, d: determinacy_check(game, xi, d).gaps,
    "touch": lambda game, xi, s, d: sup_variant_upper_expectation(game, xi),
    "levy": lambda game, xi, s, d: levy_signature(levy_strategy(game, xi, Fraction(1, 2), Fraction(3, 2))),
}


@st.composite
def memo_cases(draw):
    k, depth = draw(st.integers(2, 3)), draw(st.integers(1, 5))
    labels = [str(i) for i in range(k)]
    orders = [OutcomeSet(labels), OutcomeSet(draw(st.permutations(labels).filter(lambda p: p != labels)))]

    def content(outcomes):
        kind = draw(st.sampled_from(["measure", "envelope", "sup"]))
        if kind == "sup":
            return SupContent(outcomes)
        measures = [draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)) for _ in range(1 + (kind == "envelope"))]
        return Envelope(outcomes, [[Fraction(w, sum(m)) for w in m] for m in measures])

    games = [GameSpec(o, content(o), depth + draw(st.integers(0, 1))) for o in orders]
    finite = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    leaf = finite | st.sampled_from([INF, NEG_INF]) if draw(st.booleans()) else finite
    leaves = {s: ext(draw(leaf)) for s in orders[0].tuples(depth)}
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        game = draw(st.sampled_from(games))
        s = tuple(draw(st.lists(st.sampled_from(labels), max_size=game.horizon)))
        calls.append((draw(st.sampled_from(sorted(MEMO_CALLS))), game, s, draw(st.integers(0, depth))))
    return leaves, depth, calls


def test_a_failed_root_read_keeps_nothing():
    # Leaf 10 is missing: the root fails on it, the complete subtree below 0 prices.
    game = coin_game(2)
    xi = Payoff.from_table({("0", "0"): 1, ("0", "1"): "1/3", ("1", "1"): 2}, 2)
    for _ in range(2):
        with pytest.raises(KeyError, match=r"no entry for \('1', '0'\)"):
            upper_expectation(game, xi)
        assert upper_expectation(game, xi, ("0",)) == ext("2/3")
    for name in [name for name in INPUT_CHECKS if name.startswith("payoff_table_missing_leaf")] * 2:
        test_library_input_checks_raise_their_text(*INPUT_CHECKS[name])


# The level kept under the order 0, 1 lists leaf 00 first; under 1, 0 the first leaf is 11.
ORDER_GAMES = [GameSpec(o, Measure(o, ["1/3", "2/3"]), 2) for o in (OutcomeSet(["0", "1"]), OutcomeSet(["1", "0"]))]
BOTH_ORDERS = (dict(zip(BIN.tuples(2), map(ext, [1, 2, 3, 4]))), 2, [("table", g, EMPTY, 0) for g in ORDER_GAMES * 2])


@settings(max_examples=80, deadline=None)
@given(memo_cases())
@example(BOTH_ORDERS)
def test_a_kept_leaf_level_prices_as_a_fresh_table(case):
    leaves, depth, calls = case
    xi = Payoff.from_table(leaves, depth)
    for name, game, s, d in calls:
        fresh = Payoff.from_table(dict(leaves), depth)
        assert outcome(lambda: MEMO_CALLS[name](game, xi, s, d)) == outcome(lambda: MEMO_CALLS[name](game, fresh, s, d))
