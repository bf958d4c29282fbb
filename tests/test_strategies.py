import dataclasses
from fractions import Fraction

import pytest

from gtprob.extreal import INF, ONE, ZERO, ext, scale
from gtprob.functionals import Measure, OutcomeSet
from gtprob.gametree import (
    EMPTY,
    GameSpec,
    Supermartingale,
    in_cut_interval,
    cut_le,
    verify_supermartingale,
)
from gtprob.expectation import EventWindow, Payoff, indicator
from gtprob.strategies import (
    DoobResult,
    doob_upcrossing,
    enumerate_intervals,
    enumerate_rationals,
    levy_capital_trace,
    levy_strategy,
    mixture,
)

BIN = OutcomeSet(["0", "1"])


def coin_game(horizon):
    return GameSpec(BIN, Measure.uniform(BIN), horizon)


def step_multiplier_base(game, up=Fraction(3, 2), down=Fraction(1, 2)):
    """Multiplicative coin martingale: factor `up` on 1, `down` on 0."""

    def fn(s):
        v = Fraction(1)
        for x in s:
            v *= up if x == "1" else down
        return ext(v)

    return Supermartingale.from_fn(game, fn)


# -- interval enumeration -----------------------------------------------


def test_rational_enumeration_prefix():
    gen = enumerate_rationals()
    first = [next(gen) for _ in range(8)]
    assert first == [
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
        Fraction(3),
        Fraction(1, 4),
        Fraction(2, 3),
    ]


def test_interval_enumeration_is_deterministic_and_injective():
    six = enumerate_intervals(6)
    assert six == [
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(0), Fraction(2)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 3)),
        (Fraction(1), Fraction(2)),
    ]
    fifty = enumerate_intervals(50)
    assert len(set(fifty)) == 50
    assert all(0 <= a < b for a, b in fifty)
    assert fifty[:6] == six


# -- additive upcross engine ----------------------------------------------


def test_doob_on_constant_base_is_constant_one():
    game = coin_game(3)
    base = Supermartingale.constant(game, 1)
    for a, b in [(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), Fraction(2))]:
        res = doob_upcrossing(game, base, a, b)
        assert all(v == ONE for v in res.table.table.values())
        assert verify_supermartingale(game, res.table).ok


def test_doob_hand_simulation_on_step_multiplier_base():
    # Hand-run of the additive rule on base 1, 3/2, 3/4, 9/8, 27/16 with
    # band (4/5, 6/5): mirror, freeze at 3/2, resume at 3/4, mirror twice.
    game = coin_game(4)
    base = step_multiplier_base(game)
    res = doob_upcrossing(game, base, Fraction(4, 5), Fraction(6, 5))
    path = ("1", "0", "1", "1")
    got = [res.table.value(path[:n]) for n in range(5)]
    assert got == [ONE, ext("3/2"), ext("3/2"), ext("15/8"), ext("39/16")]
    # Second upcross completes at the path end; floor is b + (b - a).
    assert path in res.trace.sigma[2]
    assert res.table.value(path) >= ext("8/5")
    assert verify_supermartingale(game, res.table).ok


def test_doob_off_origin_subtree_is_infinite():
    game = coin_game(3)
    base = step_multiplier_base(game)
    normalized = base.scaled(Fraction(2, 3))  # value 1 at ("1",)
    res = doob_upcrossing(
        game, normalized, Fraction(4, 5), Fraction(6, 5), origin=("1",), check_base=False
    )
    assert res.table.value(("0",)) == INF
    assert res.table.value(EMPTY) == INF
    assert res.table.value(("1",)) == ONE
    assert verify_supermartingale(game, res.table).ok


def test_doob_requires_valid_band_and_base():
    game = coin_game(2)
    base = step_multiplier_base(game)
    with pytest.raises(ValueError):
        doob_upcrossing(game, base, Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        doob_upcrossing(game, Supermartingale.constant(game, 2), Fraction(0), Fraction(1))


def test_doob_phase_floors_hold_at_every_node():
    # Frozen floor b + (k-1)(b-a) on [sigma_k, tau_k]; moving floor k(b-a)
    # on [tau_k, sigma_(k+1)].  Membership recomputed from the emitted cuts,
    # independently of the construction's internal state.
    game = coin_game(8)
    base = step_multiplier_base(game)
    a, b = Fraction(4, 5), Fraction(6, 5)
    res = doob_upcrossing(game, base, a, b)
    cycles = len(res.trace.sigma) - 1
    assert cycles >= 2
    crossings = 0
    for u in game.all_situations():
        v = res.table.value(u)
        assert v >= ZERO
        for k in range(1, cycles + 1):
            sigma_k = res.trace.sigma[k]
            tau_k = res.trace.tau[k]
            if len(sigma_k) and in_cut_interval(u, sigma_k, tau_k):
                assert v >= ext(b + (k - 1) * (b - a))
                crossings += 1
            if len(res.trace.tau[k]) and k + 1 <= cycles:
                if in_cut_interval(u, res.trace.tau[k], res.trace.sigma[k + 1]):
                    assert v >= ext(Fraction(k) * (b - a))
    assert crossings > 0
    for k in range(1, cycles):
        if len(res.trace.sigma[k]) and len(res.trace.tau[k]):
            assert cut_le(res.trace.sigma[k], res.trace.tau[k])


def test_doob_tail_oscillation_control():
    # Once the base stops oscillating by more than c/4 along a path, the
    # engine's later values can drop below the reference point by less
    # than c/2.  Use a base with geometrically shrinking step factors so
    # every path settles well inside the horizon.
    depth = 8
    game = coin_game(depth)
    eps = [Fraction(1, 4**n) for n in range(1, depth + 1)]

    def fn(s):
        v = Fraction(1)
        for n, x in enumerate(s):
            v *= (1 + eps[n]) if x == "1" else (1 - eps[n])
        return ext(v)

    base = Supermartingale.from_fn(game, fn)
    assert verify_supermartingale(game, base).ok
    c = Fraction(1, 2)
    res = doob_upcrossing(game, base, Fraction(4, 5), Fraction(9, 8))
    rng_paths = [
        tuple("1" if (i >> n) & 1 else "0" for n in range(depth)) for i in range(0, 256, 7)
    ]
    for path in rng_paths:
        vals = [base.value(path[:n]).finite for n in range(depth + 1)]
        settle = next(
            n
            for n in range(depth + 1)
            if max(vals[n:]) - min(vals[n:]) < c / 4
        )
        ref = res.table.value(path[:settle])
        for n in range(settle, depth + 1):
            assert res.table.value(path[:n]) - ref > ext(-c / 2)


def test_doob_verifies_on_first_enumerated_intervals():
    game = coin_game(6)
    base = step_multiplier_base(game)
    for a, b in enumerate_intervals(6):
        res = doob_upcrossing(game, base, a, b)
        assert verify_supermartingale(game, res.table).ok
        assert res.table.min_value() >= ZERO


# -- multiplicative engine ---------------------------------------------------


def test_levy_never_activates_when_conditional_stays_high():
    game = coin_game(3)
    xi = indicator(EventWindow.coordinate_is(3, "1"))
    # Conditional is 1/2 everywhere before resolution; with a below it the
    # strategy never enters.
    res = levy_strategy(game, xi, Fraction(1, 3), Fraction(9, 10))
    assert all(v == ONE for v in res.table.table.values())


def test_levy_frozen_example_capital_two():
    # Conditional of the event {third outcome is 1} sits at 1/2 < 3/5, so
    # the ride starts at the root; on paths in the event the witness hits 1
    # at depth 3 and the capital is 1/(1/2) = 2 >= (b/a) = 3/2.
    game = coin_game(3)
    xi = indicator(EventWindow.coordinate_is(3, "1"))
    a, b = Fraction(3, 5), Fraction(9, 10)
    res = levy_strategy(game, xi, a, b)
    assert res.shift == 0
    assert EMPTY in res.trace.tau[1]
    for path in BIN.tuples(3):
        if path[2] == "1":
            assert path in res.trace.sigma[1]
            assert res.table.value(path) == ext(2)
            assert res.table.value(path) >= ext(Fraction(b, a))
        else:
            assert res.table.value(path) == ZERO
    assert verify_supermartingale(game, res.table).ok
    assert res.table.min_value() >= ZERO


def test_levy_table_matches_path_trace():
    # A fair coin with an indicator, and three multi-character labels with
    # a signed payoff (shifted by -7) settled one round before the horizon.
    tri = OutcomeSet(["lo", "mid", "hi"])
    tri_game = GameSpec(tri, Measure(tri, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]), 4)
    signed = Payoff.from_rule(
        lambda s: ext(Fraction(3 * s.count("hi") - 2 * s.count("lo"), 1 + s.count("mid"))), 3
    )
    cases = [
        (coin_game(4), indicator(EventWindow(2, 4, predicate=lambda w: w.count("1") >= 2)), "3/5", "9/10"),
        (tri_game, signed, "11/2", "13/2"),
    ]
    for game, xi, a, b in cases:
        a, b = Fraction(a), Fraction(b)
        for slack in ("none", "dyadic"):
            res = levy_strategy(game, xi, a, b, slack=slack)
            assert verify_supermartingale(game, res.table).ok
            assert len(res.trace.sigma) > 1
            cond = upper_table(game, xi.shifted(-res.shift)).value
            for path in game.outcomes.tuples(game.horizon):
                steps = levy_capital_trace(game, path, a, b, slack=slack, cond=cond)
                assert len(steps) == game.horizon + 1
                for st in steps:
                    assert st.capital == res.table.value(st.situation)


def test_levy_shifts_payoffs_with_negative_values():
    game = coin_game(2)
    xi = Payoff.from_table(
        {l: v for l, v in zip(BIN.tuples(2), [-2, 0, 1, 3])}, 2
    )
    res = levy_strategy(game, xi, Fraction(1, 2), Fraction(4, 5))
    # Least leaf is -2, so the internal shift is -3 and the ridden
    # conditionals are those of xi + 3.
    assert res.shift == -3
    assert verify_supermartingale(game, res.table).ok


def test_levy_rejects_unbounded_below_payoffs():
    from gtprob.extreal import NEG_INF

    game = coin_game(1)
    xi = Payoff.from_table({("0",): NEG_INF, ("1",): 0}, 1)
    with pytest.raises(ValueError):
        levy_strategy(game, xi, Fraction(1, 2), Fraction(3, 4))


def test_levy_growth_floor_across_cycles():
    # Two-cycle fixture within the dense cap: conditionals oscillate
    # 1/2, 19/20, 1/2, 19/20 along the all-ones path.
    from gtprob.laws import scripted_conditional_game

    targets = [Fraction(1, 2), Fraction(19, 20), Fraction(1, 2), Fraction(19, 20)]
    scripted = scripted_conditional_game(targets)
    game, event, path = scripted.game, scripted.event, scripted.path
    a, b = Fraction(3, 5), Fraction(9, 10)
    res = levy_strategy(game, indicator(event), a, b)
    # Check the exit-cut capitals: at the k-th exit along the distinguished
    # path the capital is at least (b/a)^k.
    for k in (1, 2):
        exit_node = res.trace.sigma[k].member_above(path)
        assert exit_node is not None
        assert res.table.value(exit_node) >= ext(Fraction(b, a) ** k)
    assert verify_supermartingale(game, res.table).ok


# -- mixtures ------------------------------------------------------------------


def test_single_part_mixture_halves_and_reports_tail():
    game = coin_game(4)
    base = step_multiplier_base(game)
    part = doob_upcrossing(game, base, Fraction(4, 5), Fraction(6, 5))
    mix = mixture([part])
    assert mix.table.value(EMPTY) == ext("1/2")
    assert mix.truncation_bound == ext("1/2")
    assert "truncated" in mix.note


def test_two_constant_parts_mix_to_three_quarters():
    game = coin_game(2)
    ones = Supermartingale.constant(game, 1)
    mix = mixture([ones, ones])
    assert all(v == ext("3/4") for v in mix.table.table.values())


def test_mixture_of_enumerated_upcross_parts_verifies():
    game = coin_game(6)
    base = step_multiplier_base(game)
    parts = [
        doob_upcrossing(game, base, a, b, check_base=False)
        for a, b in enumerate_intervals(4)
    ]
    mix = mixture(parts)
    assert verify_supermartingale(game, mix.table).ok
    # Pointwise agreement with the direct weighted sum.
    for s in game.all_situations():
        acc = ZERO
        for i, p in enumerate(parts, start=1):
            acc = acc + scale(Fraction(1, 2**i), p.table.value(s))
        assert mix.table.value(s) == acc


def test_mixture_rejects_mismatched_parts():
    g1, g2 = coin_game(3), coin_game(4)
    p1 = doob_upcrossing(g1, step_multiplier_base(g1), Fraction(1, 2), Fraction(1))
    p2 = doob_upcrossing(g2, step_multiplier_base(g2), Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        mixture([p1, p2])


def _upcross(base_up):
    game = coin_game(2)
    return doob_upcrossing(game, step_multiplier_base(game, up=base_up), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: levy_strategy(coin_game(2), indicator(EventWindow.coordinate_is(1, "1")), 1, 1),
         ValueError, "need 0 <= a < b, got (1, 1)"),
        (lambda: levy_strategy(coin_game(2), indicator(EventWindow.coordinate_is(1, "1")), 0, 1, slack="x"),
         ValueError, "slack must be 'none' or 'dyadic', got 'x'"),
        (lambda: mixture([]), ValueError, "mixture needs at least one part"),
        (lambda: mixture([_upcross(Fraction(3, 2)), _upcross(Fraction(5, 4))]),
         ValueError, "upcross parts must share one base table"),
        (lambda: mixture([step_multiplier_base(coin_game(2))]),
         ValueError, "plain tables in a mixture must be constant; build others via doob_upcrossing"),
        (lambda: mixture([1]), TypeError, "cannot mix in int"),
        (lambda: mixture([Supermartingale.constant(coin_game(2), 1), Supermartingale.constant(coin_game(3), 1)]),
         ValueError, "mixture parts must share the same game tree"),
    ],
)
def test_construction_inputs_are_checked(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


# -- level passes against the node-by-node constructions ------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from gtprob.expectation import upper_table
from gtprob.extreal import NEG_INF
from gtprob.functionals import Envelope, SupContent
from gtprob.gametree import Cut, is_prefix, translate_strategy


def _reference_cuts(sigma, tau):
    cycles = max(list(sigma) + list(tau) + [0])
    return (
        [Cut(sigma.get(k, set())) for k in range(cycles + 1)],
        [Cut(tau.get(k, set())) for k in range(cycles + 1)],
    )


def reference_doob(game, base, a, b, origin):
    """Node-by-node upcross loop on ExtReals, with phases keyed by situation."""
    ea, eb = ext(a), ext(b)
    values, phases, active = {}, {}, set()
    sigma, tau = {}, {0: {origin}}

    def settle(s, phase):
        kind, k = phase
        v = base.value(s)
        if kind == "active" and v > eb:
            sigma.setdefault(k, set()).add(s)
            return ("frozen", k)
        if kind == "frozen" and v < ea:
            tau.setdefault(k, set()).add(s)
            return ("active", k + 1)
        return phase

    values[origin] = ONE
    phases[origin] = settle(origin, ("active", 1))
    if phases[origin][0] == "active":
        active.add(origin)
    for s in sorted(base.table, key=lambda u: (len(u), u)):
        if len(s) >= base.depth or not is_prefix(origin, s):
            continue
        for x in game.outcomes.labels:
            sx = s + (x,)
            if phases[s][0] == "active" and values[s].is_finite:
                values[sx] = values[s] + base.value(sx) - base.value(s)
            else:
                values[sx] = values[s]
            phases[sx] = settle(sx, phases[s])
            if phases[sx][0] == "active" and values[sx].is_finite:
                active.add(sx)
    table = {u: values.get(u, INF) for u in base.table}
    return table, _reference_cuts(sigma, tau), active


class ReferenceLevyMachine:
    """Entry/ride/exit machine stepping capital on ExtReals edge by edge."""

    def __init__(self, cond, a, b, slack):
        self.cond, self.ea, self.eb, self.slack = cond, ext(a), ext(b), slack
        self.sigma, self.tau, self.halted = {}, {}, set()

    def settle(self, s, state):
        mode, k, delta = state
        event = None
        if mode == "waiting":
            if self.cond(s) < self.ea:
                k += 1
                self.tau.setdefault(k, set()).add(s)
                delta = ext(Fraction(1, 2 ** (len(s) + 1))) if self.slack == "dyadic" else ZERO
                mode, event = "riding", ("enter", k)
                if self.cond(s) + delta > self.eb:
                    self.sigma.setdefault(k, set()).add(s)
                    mode, delta, event = "waiting", None, ("enter+exit", k)
        elif mode == "riding" and self.cond(s) + delta > self.eb:
            self.sigma.setdefault(k, set()).add(s)
            mode, delta, event = "waiting", None, ("exit", k)
        return (mode, k, delta), event

    def step(self, s, state, capital, sx):
        mode, k, delta = state
        new_cap = capital
        if mode == "riding" and capital.is_finite:
            w_here = self.cond(s) + delta
            if w_here == ZERO:
                self.halted.add(sx)
            else:
                new_cap = scale(capital.finite / w_here.finite, self.cond(sx) + delta)
        if mode == "halted" or sx in self.halted:
            return new_cap, ("halted", k, None), None
        new_state, event = self.settle(sx, state)
        return new_cap, new_state, event


def reference_levy(game, xi, a, b, slack):
    leaves = [xi.value(s) for s in game.outcomes.tuples(xi.depth)]
    finite = [v.finite for v in leaves if v.is_finite]
    shift = min(finite) - 1 if finite and min(finite) < 0 else Fraction(0)
    cond = upper_table(game, xi if shift == 0 else xi.shifted(-shift))
    machine = ReferenceLevyMachine(cond.value, a, b, slack)
    values, states = {EMPTY: ONE}, {}
    states[EMPTY], _ = machine.settle(EMPTY, ("waiting", 0, None))
    for s in game.all_situations(game.horizon - 1):
        for x in game.outcomes.labels:
            sx = s + (x,)
            if len(sx) > cond.depth:
                values[sx], states[sx] = values[s], states[s]
            else:
                values[sx], states[sx], _ = machine.step(s, states[s], values[s], sx)
    return values, _reference_cuts(machine.sigma, machine.tau), machine.halted, cond.table, shift


def reference_levy_trace(game, path, a, b, slack, cond):
    machine = ReferenceLevyMachine(cond, a, b, slack)
    state, event = machine.settle(EMPTY, ("waiting", 0, None))
    out, s, cap = [(EMPTY, ONE, event)], EMPTY, ONE
    for x in path:
        sx = s + (x,)
        cap, state, event = machine.step(s, state, cap, sx)
        out.append((sx, cap, event))
        s = sx
    return out


def reference_mixture(parts):
    """Weighted sum through ``scale`` and the pooled-weight certificate, node by node."""
    tables = [p.table if isinstance(p, DoobResult) else p for p in parts]
    activities = [p.active if isinstance(p, DoobResult) else frozenset() for p in parts]
    base = next((p.base for p in parts if isinstance(p, DoobResult)), None)
    weights = [Fraction(1, 2**i) for i in range(1, len(tables) + 1)]
    keys, depth = tables[0].table.keys(), tables[0].depth
    combined = {}
    for s in keys:
        acc = ZERO
        for w, t in zip(weights, tables):
            acc = acc + scale(w, t.table[s])
        combined[s] = acc
    if base is not None:
        labels = sorted({u[-1] for u in keys if len(u) == 1})
        for s in sorted(keys, key=lambda u: (len(u), u)):
            if len(s) >= depth or not combined[s].is_finite or not base.value(s).is_finite:
                continue
            pooled = sum((w for w, act in zip(weights, activities) if s in act), Fraction(0))
            for sx in (s + (x,) for x in labels):
                if not combined[sx].is_finite or not base.value(sx).is_finite:
                    continue
                expected = ext(pooled * (base.value(sx).finite - base.value(s).finite))
                got = combined[sx] - combined[s]
                if got != expected:
                    raise AssertionError(
                        f"increment certificate failed at {s!r}->{sx!r}: {got} != {expected}"
                    )
    return combined


# Numerators past 1e308 beside an infinity overflow any float sum.
HUGE = Fraction(1, 3**700)
band = st.sampled_from([Fraction(x) for x in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "3/2", "2", "3", "5")])


@st.composite
def construction_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 5 if k == 2 else 4))
    outcomes = OutcomeSet([str(i) for i in range(k)])
    rng = draw(st.randoms(use_true_random=False))

    def measure():
        w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        return Measure(outcomes, [Fraction(x, sum(w)) for x in w])

    makers = {
        "measure": measure,
        "envelope": lambda: Envelope(outcomes, [measure() for _ in range(draw(st.integers(1, 3)))]),
        "sup": lambda: SupContent(outcomes),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=depth, max_size=depth))
    game = GameSpec(outcomes, [makers[kind]() for kind in kinds], depth)

    def pick(pool, special, share):
        return ext(rng.choice(special) if special and rng.random() < share else rng.choice(pool))

    special = draw(st.sampled_from([[], [INF], [INF, HUGE, Fraction(7, 3) + HUGE]]))
    pool = [Fraction(n, d) for n in range(9) for d in (1, 2, 3, 6)]
    # The base may also hold -inf (check_base=False): +inf - (-inf) = +inf.
    base_special = special + ([NEG_INF] if draw(st.booleans()) else [])
    raw = {s: pick(pool, base_special, 0.15) for s in game.all_situations()}
    if depth > 1 and draw(st.booleans()):
        # A relocated table: +inf off the target subtree.
        m = draw(st.integers(1, min(depth - 1, 2)))
        s, t = draw(st.lists(st.sampled_from(list(outcomes.tuples(m))), min_size=2, max_size=2, unique=True))
        raw[s] = ONE
        base, origin = translate_strategy(Supermartingale(raw, depth), s, t), t
    else:
        origin = draw(st.sampled_from(list(game.all_situations(min(depth, 2)))))
        raw[origin] = ONE
        base = Supermartingale(raw, depth)
    bands = draw(st.lists(st.tuples(band, band).filter(lambda ab: ab[0] < ab[1]), min_size=1, max_size=4))
    constants = draw(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2)]), max_size=2))
    # Payoff: shifted when negative; zero subtrees halt plain rides.
    payoff_depth = draw(st.integers(1, depth))
    pool = draw(st.sampled_from([[0, 0, 0, 1, 2, Fraction(5, 4)], [0, Fraction(-3, 2), 1, 3]]))
    leaves = {s: pick(pool, special, 0.3) for s in outcomes.tuples(payoff_depth)}
    # Bands at or just above a conditional value, some narrow enough for a
    # dyadic entry to exit on the spot, some ending on a conditional value.
    xi = Payoff.from_table(leaves, payoff_depth)
    conds = sorted({v.finite for v in reference_levy(game, xi, 0, 1, "none")[3].values() if v.is_finite}) or [0]
    a = max(rng.choice(conds) + draw(st.sampled_from([Fraction(0), Fraction(1, 16), Fraction(1, 3)])), Fraction(0))
    gap = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(2), None]))
    b = a + gap if gap is not None else rng.choice([c for c in conds if c > a] or [a + 1])
    levy = (a, b, draw(st.sampled_from(["none", "dyadic"])))
    path = draw(st.sampled_from(list(outcomes.tuples(depth))))
    bump = draw(st.none() | st.tuples(st.integers(0, 3), st.sampled_from(list(game.all_situations()))))
    return game, base, origin, bands, constants, xi, levy, path, bump


@settings(max_examples=80, deadline=None)
@given(construction_cases())
def test_constructions_match_node_by_node_loops(case):
    game, base, origin, bands, constants, xi, (a, b, slack), path, bump = case
    parts = []
    for lo, hi in bands:
        res = doob_upcrossing(game, base, lo, hi, origin=origin, check_base=False)
        table, (sigma, tau), active = reference_doob(game, base, lo, hi, origin)
        assert list(res.table.table.items()) == list(table.items())
        assert res.trace.sigma == sigma and res.trace.tau == tau
        assert res.active == active
        parts.append(res)
    parts += [Supermartingale.constant(game, c, base.depth) for c in constants]
    assert mixture(parts).table.table == reference_mixture(parts)
    if bump is not None:
        # One part off by 1/7 at one node: both certificates must fail alike.
        i, s = bump
        part = parts[i % len(bands)]
        if part.table.table[s].is_finite:
            bumped = dict(part.table.table)
            bumped[s] = ext(bumped[s].finite + Fraction(1, 7))
            parts[i % len(bands)] = dataclasses.replace(part, table=Supermartingale(bumped, part.table.depth))
            try:
                want = reference_mixture(parts)
            except AssertionError as exc:
                with pytest.raises(AssertionError) as got:
                    mixture(parts)
                assert str(got.value) == str(exc)
            else:
                assert mixture(parts).table.table == want

    res = levy_strategy(game, xi, a, b, slack=slack)
    values, (sigma, tau), halted, cond, shift = reference_levy(game, xi, a, b, slack)
    assert list(res.table.table.items()) == list(values.items())
    assert res.trace.sigma == sigma and res.trace.tau == tau
    assert res.halted == halted and res.shift == shift
    assert res.cond_table.table == cond and res.cond_table.depth == xi.depth
    steps = levy_capital_trace(
        game, path, a, b, slack=slack, cond=upper_table(game, xi.shifted(-shift)).value
    )
    shifted = res.cond_table.value
    assert [(st.situation, st.capital, st.event) for st in steps] == reference_levy_trace(
        game, path, a, b, slack, shifted
    )
    assert [st.conditional for st in steps] == [shifted(s) for s in (path[:n] for n in range(len(path) + 1))]


def test_constructions_with_huge_numerators_beside_infinities():
    # The second outcome carries no weight, so +inf and 0 conditionals sit
    # below finite ones; over the common denominator 3**700 the value 1 has
    # a numerator past 1e308 on the same level as +inf.
    game = GameSpec(BIN, Measure(BIN, [Fraction(1), Fraction(0)]), 4)

    def leaf(s):
        if s[1] == "1":
            return INF
        if s[0] == "1":
            return ZERO
        return ext(HUGE) if s[2] == "0" else ONE

    xi = Payoff.from_rule(leaf, 3)
    a, b = Fraction(1, 2), Fraction(3, 4)
    for slack in ("none", "dyadic"):
        res = levy_strategy(game, xi, a, b, slack=slack)
        values, (sigma, tau), halted, cond, _ = reference_levy(game, xi, a, b, slack)
        assert list(res.table.table.items()) == list(values.items())
        assert (res.trace.sigma, res.trace.tau, res.halted) == (sigma, tau, halted)
        assert res.cond_table.table == cond
        assert res.table.value(("0", "1")) == INF
    plain = levy_strategy(game, xi, a, b)
    assert plain.halted == {("1", "0"), ("1", "1")}
    assert plain.table.value(("0", "0", "1")) == ext(3**700)

    def base_fn(s):
        if not s:
            return ONE
        if s == ("0", "0", "1"):
            return INF
        return ext(Fraction(7, 3) + HUGE) if s.count("1") == 1 else ext(HUGE)

    base = Supermartingale.from_fn(game, base_fn)
    parts = []
    for lo, hi in [(Fraction(1, 2), Fraction(2)), (Fraction(0), Fraction(1, 2))]:
        res = doob_upcrossing(game, base, lo, hi, check_base=False)
        table, (sigma, tau), active = reference_doob(game, base, lo, hi, EMPTY)
        assert list(res.table.table.items()) == list(table.items())
        assert (res.trace.sigma, res.trace.tau, res.active) == (sigma, tau, active)
        parts.append(res)
    assert parts[0].table.value(("0", "0", "1")) == INF
    parts.append(Supermartingale.constant(game, 1))
    assert mixture(parts).table.table == reference_mixture(parts)

    # A part that fell to -inf keeps the sum at -inf below a +inf base node.
    signed = {(): ONE, ("0",): NEG_INF, ("0", "1"): INF}
    base = Supermartingale.from_fn(game, lambda s: signed.get(s[:2], ext(HUGE)))
    parts = [doob_upcrossing(game, base, Fraction(1, 2), Fraction(2), check_base=False)]
    mix = mixture(parts + [Supermartingale.constant(game, 1)])
    assert mix.table.value(("0", "1")) == NEG_INF
    assert mix.table.table == reference_mixture(parts + [Supermartingale.constant(game, 1)])


def test_dyadic_entry_exits_on_the_spot():
    # Conditional 1/2 < 3/5 at the root, padded by 1/2 past 9/10.
    game = coin_game(2)
    xi = indicator(EventWindow.coordinate_is(2, "1"))
    a, b = Fraction(3, 5), Fraction(9, 10)
    steps = levy_capital_trace(game, ("0", "1"), a, b, slack="dyadic", cond=upper_table(game, xi).value)
    assert [st.event for st in steps] == [("enter+exit", 1), ("enter", 2), ("exit", 2)]
    assert [st.capital for st in steps] == [ONE, ONE, ext("5/3")]
    want = reference_levy_trace(game, ("0", "1"), a, b, "dyadic", upper_table(game, xi).value)
    assert [(st.situation, st.capital, st.event) for st in steps] == want


def test_mixture_certificate_names_a_broken_last_increment():
    game = coin_game(2)
    part = doob_upcrossing(game, step_multiplier_base(game), Fraction(1, 2), Fraction(2))
    table = dict(part.table.table)
    table[("1", "1")] = ext("9/4") + ext("1/7")
    broken = dataclasses.replace(part, table=Supermartingale(table, 2))
    with pytest.raises(AssertionError) as exc:
        mixture([broken])
    assert str(exc.value) == "increment certificate failed at ('1',)->('1', '1'): 25/56 != 3/8"
