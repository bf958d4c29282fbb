"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact rational equality or an exact inequality; the
stated time budgets are asserted where given.  Universally quantified
criteria ("all games", "every window event", "all 3-element families")
run over deterministic seeded families within their stated caps; the
family construction is written out in each test.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

from gtprob.extreal import ONE, ZERO, ext
from gtprob.functionals import Envelope, Measure, OutcomeSet, SupContent
from gtprob.gametree import EMPTY, GameSpec, Supermartingale, verify_supermartingale
from gtprob.expectation import (
    EventWindow,
    Payoff,
    indicator,
    lower_probability,
    sup_variant_upper_expectation,
    upper_expectation,
    upper_probability,
    upper_table,
)
from gtprob.forecaster import (
    ForecastingSystem,
    Protocol2Spec,
    delta_mixing_check,
    embed,
    lift_payoff,
    upper_expectation_p2,
    upper_prob_phi,
)
from gtprob.laws import kolmogorov_invariance, scripted_conditional_game
from gtprob.strategies import (
    doob_upcrossing,
    enumerate_intervals,
    levy_capital_trace,
    levy_strategy,
)
from oracles import in_cut_interval, reference_price, union_of

BIN = OutcomeSet(["0", "1"])
TRI = OutcomeSet(["0", "1", "2"])


def criterion(number, name, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            line = f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)"
            print(line)
            if budget is not None:
                assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.2f}s"
        return run

    return wrap


def random_measure(rng, outcomes):
    cuts = sorted(rng.randrange(1, 12) for _ in range(len(outcomes) - 1))
    total = 12
    weights = []
    prev = 0
    for c in cuts:
        weights.append(Fraction(c - prev, total))
        prev = c
    weights.append(Fraction(total - prev, total))
    return Measure(outcomes, weights)


def random_payoff(rng, outcomes, depth):
    values = {
        leaf: Fraction(rng.randrange(-12, 13), rng.choice([1, 2, 3, 4]))
        for leaf in outcomes.tuples(depth)
    }
    return Payoff.from_table(values, depth)


def measure_leaf_weights(game, depth):
    """Independent oracle helper: exact path-product weight per leaf."""
    weights = {EMPTY: Fraction(1)}
    for d in range(depth):
        content = game.content_at(d + 1)
        nxt = {}
        for s, w in weights.items():
            for i, x in enumerate(game.outcomes.labels):
                nxt[s + (x,)] = w * content.probs[i]
        weights = nxt
    return weights


@criterion(1, "measure-game oracle equivalence", budget=10.0)
def test_acceptance_1():
    rng = random.Random(20260809)
    plan = [
        (BIN, 3, 40),
        (BIN, 5, 60),
        (BIN, 7, 40),
        (BIN, 10, 20),
        (TRI, 4, 20),
        (TRI, 6, 10),
        (TRI, 8, 8),
        (TRI, 10, 2),
    ]
    assert sum(n for _, _, n in plan) == 200
    for outcomes, depth, count in plan:
        game = GameSpec(
            outcomes,
            [random_measure(rng, outcomes) for _ in range(depth)],
            depth,
        )
        weights = measure_leaf_weights(game, depth)
        leaves = list(outcomes.tuples(depth))
        for _ in range(count):
            xi = random_payoff(rng, outcomes, depth)
            oracle = sum(
                (weights[leaf] * xi.value(leaf).finite for leaf in leaves),
                Fraction(0),
            )
            assert upper_expectation(game, xi) == ext(oracle)


@criterion(2, "envelope brute-force oracle", budget=30.0)
def test_acceptance_2():
    rng = random.Random(4711)

    def brute_enumerate(game, xi, depth):
        """Max over every assignment of a measure to every interior node."""
        interior = [s for d in range(depth) for s in game.outcomes.tuples(d)]
        env = game.content_at(1)
        best = None
        for choice in itertools.product(range(len(env.measures)), repeat=len(interior)):
            pick = dict(zip(interior, choice))
            total = Fraction(0)
            for leaf in game.outcomes.tuples(depth):
                w = Fraction(1)
                for n in range(depth):
                    m = env.measures[pick[leaf[:n]]]
                    w *= m.probs[game.outcomes.index(leaf[n])]
                total += w * xi.value(leaf).finite
            best = total if best is None or total > best else best
        return ext(best)

    def brute_recursive(game, xi, depth):
        env = game.content_at(1)

        def go(s):
            if len(s) == depth:
                return xi.value(s).finite
            kids = [go(s + (x,)) for x in game.outcomes.labels]
            return max(
                sum(p * v for p, v in zip(m.probs, kids)) for m in env.measures
            )

        return ext(go(EMPTY))

    envs = [
        Envelope(BIN, [{"0": 1, "1": 0}, {"0": 0, "1": 1}]),
        Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "1/4", "1": "3/4"}, {"0": "1/2", "1": "1/2"}]),
        Envelope(BIN, [{"0": "2/3", "1": "1/3"}, {"0": "1/6", "1": "5/6"}]),
    ]
    for env in envs:
        for depth in (2, 3):
            game = GameSpec(BIN, env, depth)
            for _ in range(3):
                xi = random_payoff(rng, BIN, depth)
                dp = upper_expectation(game, xi)
                assert dp == brute_enumerate(game, xi, depth)
                assert dp == brute_recursive(game, xi, depth)
        for depth in (4, 5):
            game = GameSpec(BIN, env, depth)
            for _ in range(4):
                xi = random_payoff(rng, BIN, depth)
                assert upper_expectation(game, xi) == brute_recursive(game, xi, depth)


@criterion(3, "martingale identity at every interior node")
def test_acceptance_3():
    rng = random.Random(99)
    games = [
        GameSpec(BIN, Measure.uniform(BIN), 5),
        GameSpec(BIN, [random_measure(rng, BIN) for _ in range(6)], 6),
        GameSpec(TRI, random_measure(rng, TRI), 4),
        GameSpec(BIN, SupContent(BIN), 5),
        GameSpec(BIN, Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "1/4", "1": "3/4"}]), 5),
    ]
    for game in games:
        for _ in range(3):
            xi = random_payoff(rng, game.outcomes, game.horizon)
            table = upper_table(game, xi)
            for d in range(game.horizon):
                content = game.content_at(d + 1)
                for s in game.outcomes.tuples(d):
                    kids = [table.value(s + (x,)) for x in game.outcomes.labels]
                    assert reference_price(content, kids) == table.value(s)


@criterion(4, "capped doubling-run values", budget=5.0)
def test_acceptance_4():
    for k in range(1, 11):
        game = GameSpec(BIN, Measure.uniform(BIN), k)
        xi = Payoff.leading_ones_capped(Fraction(2) ** k, k)
        # Direct-summation oracle over the 2**k leaves.
        oracle = sum(
            (Fraction(1, 2**k) * xi.value(leaf).finite for leaf in BIN.tuples(k)),
            Fraction(0),
        )
        assert oracle == Fraction(k, 2) + 1
        assert upper_expectation(game, xi) == ext(Fraction(k, 2) + 1)
        assert sup_variant_upper_expectation(game, xi) == ONE


@criterion(5, "upcross capital floors", budget=60.0)
def test_acceptance_5():
    rng = random.Random(31337)
    depth = 8
    game = GameSpec(BIN, Measure.uniform(BIN), depth)

    def multiplier_base(up, down):
        def fn(s):
            v = Fraction(1)
            for x in s:
                v *= up if x == "1" else down
            return ext(v)

        return Supermartingale.from_fn(game, fn)

    bases = [
        multiplier_base(Fraction(3, 2), Fraction(1, 2)),
        multiplier_base(Fraction(5, 4), Fraction(3, 4)),
        multiplier_base(Fraction(7, 4), Fraction(1, 4)),
    ]
    intervals = enumerate_intervals(6)
    paths = [tuple(rng.choice(BIN.labels) for _ in range(depth)) for _ in range(1000)]
    frozen_checks = 0
    for base in bases:
        for a, b in intervals:
            res = doob_upcrossing(game, base, a, b)
            assert verify_supermartingale(game, res.table).ok
            trace = res.trace
            cycles = len(trace.sigma) - 1
            for path in paths:
                for n in range(depth + 1):
                    u = path[:n]
                    v = res.table.value(u)
                    assert v >= ZERO
                    for k in range(1, cycles + 1):
                        if len(trace.sigma[k]) and in_cut_interval(u, trace.sigma[k], trace.tau[k]):
                            assert v >= ext(b + (k - 1) * (b - a))
                            frozen_checks += 1
                        if k + 1 <= cycles and len(trace.tau[k]):
                            if in_cut_interval(u, trace.tau[k], trace.sigma[k + 1]):
                                assert v >= ext(Fraction(k) * (b - a))
    assert frozen_checks > 0


@criterion(6, "multiplicative ride growth", budget=60.0)
def test_acceptance_6():
    a, b = Fraction(3, 5), Fraction(9, 10)
    lead_in = [Fraction(4, 5), Fraction(3, 4), Fraction(7, 10)]
    for k in range(1, 21):
        targets = lead_in + [Fraction(1, 2), Fraction(19, 20)] * k
        scripted = scripted_conditional_game(targets)
        for slack in ("none", "dyadic"):
            steps = levy_capital_trace(
                scripted.game,
                scripted.path,
                a,
                b,
                slack=slack,
                cond=scripted.cond,
            )
            entries = [st for st in steps if st.event and st.event[0] == "enter"]
            exits = [st for st in steps if st.event and st.event[0] == "exit"]
            assert len(exits) == k and len(entries) == k
            for j, st in enumerate(exits, start=1):
                if slack == "none":
                    assert st.capital >= ext(Fraction(b, a) ** j)
                else:
                    bound = Fraction(1)
                    for m in range(j):
                        depth_m = entries[m].n
                        bound *= b / (a + Fraction(1, 2**depth_m))
                    assert st.capital >= ext(bound)
        # Small instances cross-check the path evaluator against the dense
        # construction.
        if k <= 3:
            res = levy_strategy(scripted.game, indicator(scripted.event), a, b)
            steps = levy_capital_trace(scripted.game, scripted.path, a, b, cond=scripted.cond)
            for st in steps:
                assert st.capital == res.table.value(st.situation)
            assert verify_supermartingale(scripted.game, res.table).ok


@criterion(7, "coherence and finite union bound")
def test_acceptance_7():
    rng = random.Random(1234)
    games = [
        GameSpec(BIN, Measure.uniform(BIN), 4),
        GameSpec(BIN, Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "1/4", "1": "3/4"}]), 4),
    ]
    # Coherence: lower never exceeds upper, at every node.
    for game in games:
        for _ in range(5):
            xi = random_payoff(rng, BIN, 4)
            up = upper_table(game, xi)
            down = upper_table(game, Payoff(xi.depth, lambda s: -xi.value(s)))
            for s in game.all_situations(4):
                assert -down.value(s) <= up.value(s)
    # Union bound over every 3-element family from a window-event universe.
    universe = []
    for i in (1, 2, 3):
        for lab in BIN.labels:
            universe.append(EventWindow.coordinate_is(i, lab))
    universe.append(EventWindow(1, 2, predicate=lambda w: w[0] == w[1], label="eq12"))
    universe.append(EventWindow(2, 3, predicate=lambda w: w[0] != w[1], label="ne23"))
    universe.append(EventWindow(1, 3, predicate=lambda w: w.count("1") >= 2, label="maj"))
    universe.append(EventWindow.whole_space())
    for game in games:
        singles = {}
        for idx, e in enumerate(universe):
            singles[idx] = {
                s: upper_probability(game, e, s) for s in [EMPTY, ("1",)]
            }
        for combo in itertools.combinations(range(len(universe)), 3):
            union = union_of([universe[i] for i in combo])
            for s in [EMPTY, ("1",)]:
                lhs = upper_probability(game, union, s)
                rhs = singles[combo[0]][s] + singles[combo[1]][s] + singles[combo[2]][s]
                assert lhs <= rhs


@criterion(8, "forecaster embedding round trip")
def test_acceptance_8():
    rng = random.Random(2718)
    skew = Measure(BIN, {"0": "1/3", "1": "2/3"})
    contents = {"a": Measure.uniform(BIN), "b": SupContent(BIN), "c": skew}
    plan = [
        (2, 1, 30),
        (3, 2, 30),
        (4, 2, 30),
        (4, 3, 8),
        (6, 3, 2),
    ]
    assert sum(n for *_x, n in plan) == 100
    checked = 0
    for horizon, max_menu, count in plan:
        for _ in range(count):
            menus = [
                tuple(sorted(rng.sample(["a", "b", "c"], rng.randrange(1, max_menu + 1))))
                for _ in range(horizon)
            ]
            spec = Protocol2Spec(BIN, menus, contents)
            game = embed(spec)
            leaves = {}

            def xi2(pairs, _leaves=leaves, _rng=rng):
                if pairs not in _leaves:
                    _leaves[pairs] = ext(
                        Fraction(_rng.randrange(-6, 7), _rng.choice([1, 2, 3]))
                    )
                return _leaves[pairs]

            native = upper_expectation_p2(spec, xi2, horizon)
            embedded = upper_expectation(game, lift_payoff(spec, xi2, horizon))
            assert native == embedded
            checked += 1
    assert checked == 100


@criterion(9, "invariance across ignored prefixes")
def test_acceptance_9():
    rng = random.Random(5150)
    games = [
        GameSpec(BIN, Measure.uniform(BIN), 6),
        GameSpec(BIN, Measure(BIN, {"0": "1/3", "1": "2/3"}), 6),
        GameSpec(BIN, Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "1/4", "1": "3/4"}]), 6),
    ]
    for trial in range(50):
        start = rng.choice([2, 3, 4])
        end = rng.randrange(start, min(start + 2, 6) + 1)
        width = end - start + 1
        tuples = [t for t in BIN.tuples(width) if rng.random() < 0.5]
        if not tuples:
            tuples = [("1",) * width]
        event = EventWindow(start, end, accepts=tuples)
        game = games[trial % len(games)]
        report = kolmogorov_invariance(game, event)
        assert report.invariant, (start, end, tuples)
        assert report.witness_ok


@criterion(10, "mixing margins")
def test_acceptance_10():
    # Product (history-independent) forecasting system: margins exactly 0.
    skew = Measure(BIN, {"0": "1/4", "1": "3/4"})
    spec = Protocol2Spec(
        BIN, [("c",), ("d",), ("c",), ("d",)], {"c": Measure.uniform(BIN), "d": skew}
    )
    phi = ForecastingSystem(spec, lambda s: "c" if len(s) % 2 == 0 else "d")
    events = [
        EventWindow.coordinate_is(3, "1"),
        EventWindow.coordinate_is(4, "0"),
        EventWindow(3, 4, predicate=lambda w: w[0] == w[1], label="eq34"),
        EventWindow(4, 4, accepts=[("1",)], label="w4"),
    ]
    report = delta_mixing_check(phi, Fraction(0), 2, events, max_prefix=2)
    assert report.violations == 0
    assert report.worst_margin == ZERO
    assert len(report.rows) > 0
    # Sticky forecaster: a strictly positive violation witness, exactly 1.
    point0 = Measure(BIN, {"0": 1, "1": 0})
    point1 = Measure(BIN, {"0": 0, "1": 1})
    sticky_spec = Protocol2Spec(BIN, [("p0", "p1")] * 2, {"p0": point0, "p1": point1})
    sticky = ForecastingSystem.last_outcome(sticky_spec, {"0": "p0", "1": "p1"}, initial="p0")
    event = EventWindow.coordinate_is(2, "1")
    report = delta_mixing_check(sticky, Fraction(1, 2), 1, [event], max_prefix=1)
    assert report.violations > 0
    assert report.worst_margin == ONE
    assert report.worst_at is not None and report.worst_at[2] == ("1",)
    assert upper_prob_phi(sticky, event, ("1",)) - upper_prob_phi(sticky, event) == ONE


@criterion(11, "coin determinacy against the uniform measure")
def test_acceptance_11():
    rng = random.Random(161803)
    game = GameSpec(BIN, Measure.uniform(BIN), 10)

    def check(event, width):
        hi = upper_probability(game, event)
        lo = lower_probability(game, event)
        uniform = Fraction(sum(map(event.member_window, BIN.tuples(width))), 2**width)
        assert hi == lo == ext(uniform)

    # Exhaustive: every window event of width <= 3 ending by depth 6 built
    # from every accept subset.
    for start in range(1, 7):
        for end in range(start, min(start + 2, 6) + 1):
            width = end - start + 1
            space = list(BIN.tuples(width))
            for mask in range(2 ** len(space)):
                accepts = [t for i, t in enumerate(space) if mask >> i & 1]
                if not accepts:
                    continue
                check(EventWindow(start, end, accepts=accepts), width)
    # Sampled: 50 random events with windows reaching depth 10.
    for _ in range(50):
        start = rng.randrange(5, 11)
        end = rng.randrange(start, 11)
        width = end - start + 1
        space = list(BIN.tuples(min(width, 4)))
        if width > 4:
            accepts = [
                t for t in BIN.tuples(width) if rng.random() < 0.5
            ]
        else:
            accepts = [t for t in space if rng.random() < 0.5]
        if not accepts:
            accepts = [("1",) * width]
        check(EventWindow(start, end, accepts=accepts), width)
