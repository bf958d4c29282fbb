import itertools
from fractions import Fraction

import pytest

from gtprob.extreal import INF, ONE, ZERO, ext
from gtprob.functionals import Gamble, Measure, OutcomeSet, SupContent
from gtprob.gametree import (
    EMPTY,
    BudgetViolation,
    Cut,
    GameSpec,
    Strategy,
    Supermartingale,
    capital_process,
    format_situation,
    is_prefix,
    parse_situation,
    shift_strategy,
    stop_when_covered,
    translate_strategy,
    verify_supermartingale,
)
from oracles import cut_le, in_cut_interval, member_above, reference_price

BIN = OutcomeSet(["0", "1"])


def coin_game(horizon=3):
    return GameSpec(BIN, Measure.uniform(BIN), horizon)


def sup_game(horizon=3):
    return GameSpec(BIN, SupContent(BIN), horizon)


# -- situations and cuts ------------------------------------------------


def test_empty_situation_is_prefix_of_everything():
    for s in [EMPTY, ("0",), ("1", "0"), ("1", "1", "1")]:
        assert is_prefix(EMPTY, s)


def test_situation_string_round_trip():
    for s in [EMPTY, ("1",), ("1", "0", "1")]:
        assert parse_situation(format_situation(s, BIN), BIN) == s
    wide = OutcomeSet(["up", "down"])
    s = ("up", "down", "up")
    assert parse_situation(format_situation(s, wide), wide) == s
    with pytest.raises(ValueError):
        parse_situation("2", BIN)


def test_cut_rejects_comparable_members():
    with pytest.raises(ValueError, match=r"\('1',\) < \('1', '0'\)"):
        Cut([("1",), ("1", "0")])
    level = list(BIN.tuples(6))
    with pytest.raises(ValueError, match=r"\(\) < "):
        Cut(level[:5] + [EMPTY])
    with pytest.raises(ValueError, match=r"\('0', '1', '1'\) < \('0', '1', '1', "):
        Cut([("0", "1", "1")] + level[20:40])
    cut = Cut([("0",), ("1", "0"), ("1", "1")])
    assert repr(cut) == "Cut([('0',), ('1', '0'), ('1', '1')])"
    assert member_above(cut, ("1", "0", "1")) == ("1", "0")
    assert member_above(cut, EMPTY) is None


def test_cut_accepts_a_whole_level():
    level = list(BIN.tuples(12))
    cut = Cut(level)
    assert len(cut) == 4096
    assert member_above(cut, level[-1] + ("0",)) == level[-1]


def test_cut_order_and_intervals():
    sigma = Cut([("0",), ("1",)])
    tau = Cut([("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")])
    assert cut_le(sigma, tau)
    assert not cut_le(tau, sigma)
    # [sigma, tau): entered sigma, not yet entered tau.
    assert in_cut_interval(("0",), sigma, tau, hi_closed=False)
    assert not in_cut_interval(("0", "0"), sigma, tau, hi_closed=False)
    # [sigma, tau]: the tau members still belong.
    assert in_cut_interval(("0", "0"), sigma, tau, hi_closed=True)
    assert not in_cut_interval(("0", "0", "1"), sigma, tau, hi_closed=True)
    assert not in_cut_interval(EMPTY, sigma, tau)


# -- capital processes ---------------------------------------------------


def test_doubling_strategy_single_win():
    # Hand simulation: stake all on "1" at double-or-nothing each round.
    game = coin_game()
    strat = Strategy.double_on(game, "1")
    assert capital_process(game, strat, ("1",)) == [ONE, ext(2)]
    assert capital_process(game, strat, ("1", "0")) == [ONE, ext(2), ZERO]


def test_do_nothing_keeps_capital():
    game = coin_game()
    strat = Strategy.do_nothing(game, initial=5)
    assert capital_process(game, strat, ("0", "1", "0")) == [ext(5)] * 4


def test_budget_violation_reports_situation_and_amounts():
    game = coin_game()
    greedy = Strategy(ONE, lambda s, k: Gamble.of(BIN, [2, 2]))
    with pytest.raises(BudgetViolation) as err:
        capital_process(game, greedy, ("1", "1"))
    assert err.value.situation == EMPTY
    assert err.value.price == ext(2)
    assert err.value.capital == ONE


def test_capital_process_rejects_long_paths():
    game = coin_game(horizon=2)
    with pytest.raises(ValueError):
        capital_process(game, Strategy.do_nothing(game), ("1", "1", "1"))


# -- verification --------------------------------------------------------


def doubling_table(game):
    def fn(s):
        if all(x == "1" for x in s):
            return ext(Fraction(2) ** len(s))
        return ZERO

    return Supermartingale.from_fn(game, fn)


def test_constant_table_is_a_martingale():
    game = coin_game()
    res = verify_supermartingale(game, Supermartingale.constant(game, 7))
    assert res.ok and res.martingale


def test_coin_step_table_verifies_exactly():
    game = coin_game(horizon=1)
    sm = Supermartingale({EMPTY: ONE, ("0",): ZERO, ("1",): ext(2)}, 1)
    res = verify_supermartingale(game, sm)
    assert res.ok and res.martingale
    assert repr(sm) == "Supermartingale(depth=1, 3 nodes)"


def test_one_numerator_unit_of_slack_is_not_a_martingale():
    # Children 0 and 1 price at 1/2 against a parent of 1: over the
    # children's price denominator 2 the gap is a single numerator unit.
    game = coin_game(horizon=1)
    sm = Supermartingale({EMPTY: ONE, ("0",): ZERO, ("1",): ONE}, 1)
    res = verify_supermartingale(game, sm)
    assert res.ok and not res.martingale
    assert (res.witness, res.checked_depth, res.witness_str(game.outcomes)) == (None, 1, "")


def test_violation_witness_at_root():
    game = coin_game(horizon=1)
    sm = Supermartingale({EMPTY: ONE, ("0",): ext(2), ("1",): ext(2)}, 1)
    res = verify_supermartingale(game, sm)
    assert not res.ok
    assert res.witness == (EMPTY, ext(2), ONE)
    assert res.witness_str(BIN) == "□: 2 > 1"


def test_doubling_table_is_a_coin_martingale():
    game = coin_game()
    res = verify_supermartingale(game, doubling_table(game))
    assert res.ok and res.martingale


def test_sup_game_needs_max_children_below_value():
    game = sup_game(horizon=1)
    sm = Supermartingale({EMPTY: ONE, ("0",): ZERO, ("1",): ext(2)}, 1)
    res = verify_supermartingale(game, sm)
    assert not res.ok and res.witness == (EMPTY, ext(2), ONE)


def test_verified_tables_dominate_min_of_descendant_leaves():
    # Coherence pushed through the tree: a verified table is at least the
    # minimum of its children at every node, hence at least the minimum
    # leaf below.
    game = coin_game()
    for sm in [doubling_table(game), Supermartingale.constant(game, 3)]:
        assert verify_supermartingale(game, sm).ok
        for s in game.all_situations(game.horizon - 1):
            children = [sm.value(s + (x,)) for x in BIN.labels]
            assert sm.value(s) >= min(children)
        for s in game.all_situations(game.horizon - 1):
            leaves = [
                sm.value(s + rest)
                for rest in BIN.tuples(game.horizon - len(s))
            ]
            assert sm.value(s) >= min(leaves)


def test_sum_of_verified_tables_verifies():
    game = coin_game()
    a = doubling_table(game)
    b = Supermartingale.constant(game, 1)
    total = Supermartingale({s: v + b.table[s] for s, v in a.table.items()}, a.depth)
    assert verify_supermartingale(game, total).ok


def test_capital_process_matches_strategy_table():
    # The capital table built from a strategy reproduces play exactly.
    game = coin_game()
    strat = Strategy.double_on(game, "1")

    def table_fn(s):
        caps = capital_process(game, strat, s)
        return caps[-1]

    sm = Supermartingale.from_fn(game, table_fn)
    assert verify_supermartingale(game, sm).ok
    for path in BIN.tuples(3):
        caps = capital_process(game, strat, path)
        for n in range(4):
            assert caps[n] == sm.value(path[:n])


# -- transformations -----------------------------------------------------


def test_translate_identity_keeps_subtree_and_fills_inf():
    game = coin_game(horizon=2)
    sm = doubling_table(game)
    moved = translate_strategy(sm, ("0",), ("0",))
    for u in game.all_situations():
        if is_prefix(("0",), u):
            assert moved.value(u) == sm.value(u)
        else:
            assert moved.value(u) == INF


def test_translate_relocates_and_verifies():
    game = coin_game(horizon=3)
    sm = doubling_table(game)
    moved = translate_strategy(sm, ("0",), ("1",))
    assert verify_supermartingale(game, moved).ok
    for v in BIN.tuples(2):
        assert moved.value(("1",) + v) == sm.value(("0",) + v)
    assert moved.value(("0",)) == INF
    assert moved.value(EMPTY) == INF


def test_translate_needs_equal_depths():
    game = coin_game()
    with pytest.raises(ValueError):
        translate_strategy(doubling_table(game), ("0",), ("1", "1"))


def test_shift_at_root_is_identity():
    game = coin_game()
    sm = doubling_table(game)
    shifted = shift_strategy(game, sm, EMPTY)
    assert shifted.table == sm.table


def test_shift_replays_below_situation_and_verifies():
    game = coin_game(horizon=3)
    sm = doubling_table(game)
    shifted = shift_strategy(game, sm, ("0",))
    assert verify_supermartingale(game, shifted).ok
    assert shifted.value(("0", "1")) == sm.value(("1",)) == ext(2)
    assert shifted.value(("1",)) == INF


def test_constant_and_shifted_tables_keep_level_order():
    # Labels out of sorted order: level order follows the outcome set.
    k3 = OutcomeSet(["lo", "1", "hi"])
    game = GameSpec(k3, Measure.uniform(k3), 3)
    order = [s for d in range(4) for s in itertools.product(k3.labels, repeat=d)]
    assert list(Supermartingale.constant(game, 2).table.items()) == [(s, ext(2)) for s in order]
    assert list(Supermartingale.constant(game, 2, 1).table) == order[:4]
    sm = Supermartingale.from_fn(game, lambda s: ext(len(s)), 2)
    shifted = shift_strategy(game, sm, ("1",))
    assert shifted.depth == 3
    assert list(shifted.table.items()) == [(u, ext(len(u) - 1) if u[:1] == ("1",) else INF) for u in order]
    stopped = stop_when_covered(Supermartingale.from_fn(game, lambda s: ext(len(s))), 1)
    assert list(stopped.table.items()) == [(u, ext(min(len(u), 2))) for u in order]
    xi = Payoff(3, lambda s: ext(s.count("hi") - s.count("lo")))
    assert list(upper_table(game, xi).table) == list(game.all_situations(xi.depth)) == order


def test_shift_rejects_round_dependent_pricing():
    game = GameSpec(
        BIN,
        [Measure.uniform(BIN), Measure(BIN, {"0": "1/3", "1": "2/3"}), Measure.uniform(BIN)],
        3,
    )
    sm = Supermartingale.constant(game, 1)
    with pytest.raises(ValueError):
        shift_strategy(game, sm, ("0",))


def test_stop_when_covered_freezes_after_crossing():
    game = coin_game()
    sm = doubling_table(game)
    stopped = stop_when_covered(sm, ONE)
    # First crossing on the all-ones path happens at depth 1 (value 2).
    assert stopped.value(("1",)) == ext(2)
    assert stopped.value(("1", "1")) == ext(2)
    assert stopped.value(("1", "0")) == ext(2)
    assert stopped.value(("0",)) == ZERO
    assert verify_supermartingale(game, stopped).ok


def test_stop_when_covered_never_crossing_is_identity():
    game = coin_game()
    sm = Supermartingale.constant(game, 1)
    stopped = stop_when_covered(sm, ext(5))
    assert stopped.table == sm.table


def test_stop_when_covered_converts_touch_coverage_to_terminal_coverage():
    # Wherever the running maximum of the table tops the level along a
    # path, the stopped table still tops it at the final depth.
    game = coin_game()
    sm = doubling_table(game)
    level = ONE
    stopped = stop_when_covered(sm, level)
    assert verify_supermartingale(game, stopped).ok
    for leaf in BIN.tuples(game.horizon):
        running_max = max(sm.value(leaf[:n]) for n in range(game.horizon + 1))
        if running_max > level:
            assert stopped.value(leaf) > level


def test_stop_when_covered_constant_above_level_freezes_at_root():
    game = coin_game()
    sm = Supermartingale.constant(game, 2)
    stopped = stop_when_covered(sm, ONE)
    assert all(v == ext(2) for v in stopped.table.values())


# -- guards ---------------------------------------------------------------


def test_outcome_cap_enforced():
    wide = OutcomeSet(["a", "b", "c", "d", "e"])
    with pytest.raises(ValueError):
        GameSpec(wide, SupContent(wide), 2)
    GameSpec(wide, SupContent(wide), 2, outcome_cap=8)


def test_depth_cap_guards_dense_sweeps(monkeypatch):
    from gtprob.config import DepthCapError

    game = GameSpec(BIN, Measure.uniform(BIN), 40)
    with pytest.raises(DepthCapError):
        list(game.all_situations())
    monkeypatch.setenv("GTP_MAX_DEPTH", "41")
    assert sum(1 for _ in game.all_situations(3)) == 15


def test_table_depth_outside_the_horizon_is_refused():
    from gtprob.config import DepthCapError

    game = coin_game(horizon=3)
    with pytest.raises(ValueError, match=r"^tree depth 5 outside 0\.\.3$"):
        Supermartingale.constant(game, 1, depth=5)
    with pytest.raises(ValueError, match=r"^tree depth -2 outside 0\.\.3$"):
        Supermartingale.from_fn(game, lambda s: ONE, depth=-2)
    # The horizon is checked before the depth cap, as for a payoff.
    with pytest.raises(ValueError) as info:
        GameSpec(BIN, Measure.uniform(BIN), 40).all_situations(41)
    assert not isinstance(info.value, DepthCapError)


# -- the level-by-level check against the node-by-node loop ------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from gtprob.config import DepthCapError
from gtprob.expectation import Payoff, upper_table
from gtprob.extreal import NEG_INF
from gtprob.functionals import Envelope, TableContent, extend_bounded_below


def node_by_node_verify(game, sm):
    """Every interior node priced through its round's reference price."""
    equality = True
    for d in range(sm.depth):
        content = game.content_at(d + 1)
        for s in game.outcomes.tuples(d):
            lhs = reference_price(content, [sm.value(s + (x,)) for x in game.outcomes.labels])
            rhs = sm.value(s)
            if lhs > rhs:
                return False, False, (s, lhs, rhs)
            if lhs != rhs:
                equality = False
    return True, equality, None


odd_weight = st.sampled_from([Fraction(0), Fraction(-1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(-5, 2)])


@st.composite
def verify_cases(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    depth = draw(st.integers(1, 4))
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
        "table": measure,  # priced by this measure, then swapped for a price list
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=depth, max_size=depth))
    contents = [makers[kind]() for kind in kinds]
    finite = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    leaf = (finite | st.sampled_from([INF, NEG_INF])) if draw(st.booleans()) else finite
    game = GameSpec(outcomes, contents, depth)
    leaves = {s: ext(draw(leaf)) for s in outcomes.tuples(depth)}
    table = dict(upper_table(game, Payoff.from_table(leaves, depth)).table)
    nodes = list(game.all_situations(depth))
    bump = st.fractions(min_value=-3, max_value=3, max_denominator=9).map(ext) | st.sampled_from([INF, NEG_INF])
    for s, b in draw(st.lists(st.tuples(st.sampled_from(nodes), bump), max_size=4)):
        table[s] = b if not b.is_finite else table[s] + b
    for d, kind in enumerate(kinds):
        if kind == "table":
            # A price list holding every gamble this round meets.
            groups = {tuple(table[s + (x,)] for x in outcomes.labels) for s in outcomes.tuples(d)}
            gambles = [Gamble(outcomes, g) for g in sorted(groups, key=repr)]
            contents[d] = TableContent(outcomes, [(g, contents[d].eval(g)) for g in gambles])
    return GameSpec(outcomes, contents, depth), Supermartingale(table, depth)


@settings(max_examples=100, deadline=None)
@given(verify_cases())
def test_level_check_matches_node_by_node_loop(case):
    game, sm = case
    res = verify_supermartingale(game, sm)
    ok, martingale, witness = node_by_node_verify(game, sm)
    assert (res.ok, res.martingale, res.witness) == (ok, martingale, witness)
    if witness is not None:
        s, lhs, rhs = witness
        assert res.witness_str(game.outcomes) == f"{format_situation(s, game.outcomes) or '□'}: {lhs} > {rhs}"


def test_violation_below_a_martingale_prefix_is_found_at_its_node():
    game = coin_game(horizon=3)
    sm = doubling_table(game)
    sm.table[("1", "0", "1")] = ext("1/3")
    res = verify_supermartingale(game, sm)
    assert not res.ok and not res.martingale
    assert res.witness == (("1", "0"), ext("1/6"), ZERO)
    assert res.witness_str(BIN) == "10: 1/6 > 0"


def test_only_interior_levels_count_against_the_depth_cap(monkeypatch):
    game = coin_game(horizon=4)
    table = doubling_table(game)
    monkeypatch.setenv("GTP_MAX_DEPTH", "2")
    assert verify_supermartingale(game, Supermartingale({s: v for s, v in table.table.items() if len(s) <= 3}, 3)).ok
    with pytest.raises(DepthCapError):
        verify_supermartingale(game, table)


def test_missing_node_keeps_the_table_error():
    game = coin_game(horizon=2)
    sm = Supermartingale.constant(game, 1)
    del sm.table[("1", "0")]
    with pytest.raises(KeyError, match=r"table has no entry for situation \('1', '0'\)"):
        verify_supermartingale(game, sm)


# -- one enumeration per outcome set -----------------------------------------


def test_whole_tree_tables_share_their_situation_keys():
    k3 = OutcomeSet(["lo", "1", "hi"])
    game = GameSpec(k3, Measure.uniform(k3), 3)
    tables = [
        upper_table(game, Payoff(3, lambda s: ext(s.count("hi")))),
        upper_table(game, Payoff(3, lambda s: ext(s.count("lo")))),
        Supermartingale.from_fn(game, lambda s: ext(len(s))),
    ]
    for s in [EMPTY, ("1",), ("hi", "lo", "1")]:
        a, b, c = (next(u for u in t.table if u == s) for t in tables)
        assert a is b is c


def test_levels_asked_out_of_order_are_the_lexicographic_products():
    k3 = OutcomeSet(["lo", "1", "hi"])
    for n in (3, 1, 5, 3):
        assert k3._level(n) == tuple(itertools.product(k3.labels, repeat=n))
    for n in range(7):
        assert k3._level(n) == tuple(itertools.product(k3.labels, repeat=n))


def test_a_kept_level_never_skips_the_depth_cap(monkeypatch):
    fresh = OutcomeSet(["0", "1"])
    game = GameSpec(fresh, Measure.uniform(fresh), 5)
    assert len(Supermartingale.constant(game, 1, 5).table) == 63
    monkeypatch.setenv("GTP_MAX_DEPTH", "3")
    with pytest.raises(DepthCapError):
        game.all_situations(5)


def test_a_handed_table_is_copied():
    table = {EMPTY: ONE}
    sm = Supermartingale(table, 0)
    table[EMPTY] = ZERO
    table[("0",)] = ONE
    assert sm.table == {EMPTY: ONE}


# -- stopping in one pass against the prefix scan -----------------------------


def prefix_scan_stop(sm, level):
    """Each node takes the value of its shortest strict prefix above
    ``level``, if any, else keeps its own."""
    level = ext(level)
    frozen_at, table = {}, {}
    for u in sorted(sm.table, key=len):
        holder = next((u[:k] for k in range(len(u)) if u[:k] in frozen_at), None)
        if holder is not None:
            table[u] = frozen_at[holder]
            continue
        table[u] = sm.table[u]
        if table[u] > level:
            frozen_at[u] = table[u]
    return table


@st.composite
def stop_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(0, 6 - k))
    outcomes = OutcomeSet([str(i) for i in range(k)])
    nodes = [s for d in range(depth + 1) for s in outcomes.tuples(d)]
    value = st.sampled_from([NEG_INF, ext(-1), ZERO, ext("1/2"), ONE, ext("3/2"), ext(2), INF])
    # Inserted out of level order, so the pass must sort.
    table = {s: draw(value) for s in draw(st.permutations(nodes))}
    return Supermartingale(table, depth), draw(value)


@settings(max_examples=200, deadline=None)
@given(stop_cases())
def test_stop_in_one_pass_matches_the_prefix_scan(case):
    sm, level = case
    stopped = stop_when_covered(sm, level)
    assert list(stopped.table.items()) == list(prefix_scan_stop(sm, level).items())
    assert stopped.depth == sm.depth
