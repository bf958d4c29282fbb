from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtprob.extreal import INF, NEG_INF, ONE, ZERO, ext
from gtprob.functionals import (
    Envelope,
    Gamble,
    GambleSpaceError,
    Measure,
    OutcomeSet,
    SupContent,
    TableContent,
    UnknownGambleError,
    check_axioms,
    default_grid,
    extend_bounded_below,
)

BIN = OutcomeSet(["0", "1"])
COIN = Measure.uniform(BIN)


def test_coin_average():
    f = Gamble.of(BIN, [0, 1])
    assert COIN.eval(f) == ext("1/2")


def test_sup_functional_takes_max():
    f = Gamble.of(BIN, [3, 7])
    assert SupContent(BIN).eval(f) == ext(7)


def test_envelope_of_point_masses():
    # Independent oracle: maximum of the two dot products, by hand.
    env = Envelope(BIN, [{"0": 1, "1": 0}, {"0": 0, "1": 1}])
    f = Gamble.of(BIN, [0, 1])
    dots = [Fraction(0) * 0 + Fraction(1) * 0, Fraction(0) * 0 + Fraction(1) * 1]
    assert env.eval(f) == ext(max(dots)) == ONE


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        Measure(BIN, {"0": "1/2", "1": "1/3"})
    with pytest.raises(ValueError):
        Measure(BIN, {"0": "3/2", "1": "-1/2"})


def test_outcome_space_mismatch_is_an_error():
    other = OutcomeSet(["a", "b"])
    with pytest.raises(GambleSpaceError):
        COIN.eval(Gamble.of(other, [0, 1]))


def test_measure_with_infinite_coordinates():
    # Positive infinity on a positive-weight coordinate dominates.
    assert COIN.eval(Gamble.of(BIN, [NEG_INF, INF])) == INF
    assert COIN.eval(Gamble.of(BIN, [NEG_INF, ZERO])) == NEG_INF
    # Zero-weight coordinates never contribute, including infinite ones.
    point = Measure(BIN, {"0": 1, "1": 0})
    assert point.eval(Gamble.of(BIN, [2, INF])) == ext(2)


def test_coin_passes_all_axioms():
    report = check_axioms(COIN)
    assert report.all_passed, str(report)
    assert report.level_audited == "superexpectation"


def test_sup_and_envelope_pass_all_axioms():
    for content in (SupContent(BIN), Envelope(BIN, [{"0": 1, "1": 0}, {"0": 0, "1": 1}])):
        report = check_axioms(content)
        assert report.all_passed, str(report)


def test_min_functional_fails_subadditivity_with_witness():
    grid = default_grid(BIN)
    inf_like = TableContent(BIN, [(g, min(g.values)) for g in grid])
    report = check_axioms(inf_like)
    sub = report.results["subadditive"]
    assert not sub.passed
    # The classic witness: E((0,1)+(1,0)) = E((1,1)) = 1 > 0 = E(f)+E(g).
    f = Gamble.of(BIN, [0, 1])
    g = Gamble.of(BIN, [1, 0])
    assert inf_like.eval(f + g) == ONE
    assert inf_like.eval(f) + inf_like.eval(g) == ZERO
    assert report.level_audited == "not-an-outer-content"


def test_sub_probability_fails_normalization():
    half = Measure.unchecked(BIN, {"0": "1/2", "1": "0"})
    report = check_axioms(half)
    norm = report.results["normalized"]
    assert not norm.passed
    assert half.eval(Gamble.constant(BIN, 1)) == ext("1/2")


def test_table_content_skips_unknown_gambles():
    g = Gamble.of(BIN, [0, 1])
    table = TableContent(BIN, [(g, ZERO)])
    with pytest.raises(UnknownGambleError):
        table.eval(Gamble.of(BIN, [1, 1]))
    report = check_axioms(table, gambles=[g])
    assert report.results["subadditive"].skipped > 0


def test_declared_level_is_a_claim_the_audit_can_downgrade():
    grid = default_grid(BIN)
    bogus = TableContent(BIN, [(g, min(g.values)) for g in grid], declared_level="superexpectation")
    report = check_axioms(bogus)
    assert report.level_claimed == "superexpectation"
    assert report.level_audited == "not-an-outer-content"


# -- extension of bounded-below functionals ---------------------------


def bounded_coin(g: Gamble):
    assert g.is_bounded_below
    return COIN.eval(g)


def test_extension_clamp_inactive_on_bounded_gambles():
    extended = extend_bounded_below(BIN, bounded_coin)
    assert extended.eval(Gamble.of(BIN, [2, 4])) == ext(3)


def test_extension_coin_diverges_to_neg_inf():
    # Oracle: F(max(f, a)) = (a + 0)/2, decreasing without bound as a drops.
    extended = extend_bounded_below(BIN, bounded_coin)
    assert extended.eval(Gamble.of(BIN, [NEG_INF, 0])) == NEG_INF


def test_extension_sup_stabilizes():
    sup = SupContent(BIN)
    extended = extend_bounded_below(BIN, lambda g: sup.eval(g))
    assert extended.eval(Gamble.of(BIN, [NEG_INF, 5])) == ext(5)


def test_extension_of_a_negative_weight_is_not_the_builtin():
    # Clamping -inf at a prices (1, a) at 3/2 - a/2, which rises as a drops:
    # the extension refuses the weighting, and eval_seq's rule gives -inf.
    m = Measure.unchecked(BIN, [Fraction(3, 2), Fraction(-1, 2)])
    g = Gamble(BIN, [ONE, NEG_INF])
    assert m.eval(g) == NEG_INF
    with pytest.raises(ValueError, match="not monotone in the clamp level"):
        extend_bounded_below(BIN, m).eval(g)


def test_extension_agrees_with_full_measure_on_infinite_gambles():
    extended = extend_bounded_below(BIN, bounded_coin)
    for values in product([NEG_INF, ext(-2), ZERO, ONE, INF], repeat=2):
        g = Gamble(BIN, values)
        assert extended.eval(g) == COIN.eval(g)


# -- invariants over the built-in functionals --------------------------

CONTENTS = [
    COIN,
    Measure(BIN, {"0": "1/3", "1": "2/3"}),
    SupContent(BIN),
    Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "1/4", "1": "3/4"}]),
]


def test_weak_coherence_nonnegative_gambles_price_nonnegative():
    for content in CONTENTS:
        for g in default_grid(BIN):
            if g.is_nonnegative:
                assert content.eval(g) >= ZERO


def test_constant_shift_moves_price_by_the_constant():
    for content in CONTENTS:
        for g in default_grid(BIN):
            for c in (Fraction(-1), Fraction(2), Fraction(1, 3)):
                assert content.eval(g + Gamble.constant(g.outcomes, c)) == content.eval(g) + ext(c)


def test_price_at_least_min_coordinate():
    for content in CONTENTS:
        for g in default_grid(BIN):
            assert content.eval(g) >= min(g.values)


def test_envelope_of_single_measure_equals_measure():
    m = Measure(BIN, {"0": "2/7", "1": "5/7"})
    env = Envelope(BIN, [m])
    for g in default_grid(BIN):
        assert env.eval(g) == m.eval(g)
    tri = OutcomeSet(["a", "b", "c"])
    m3 = Measure(tri, {"a": "1/6", "b": "1/3", "c": "1/2"})
    env3 = Envelope(tri, [m3])
    for g in default_grid(tri):
        assert env3.eval(g) == m3.eval(g)


small_fraction = st.fractions(min_value=-50, max_value=50, max_denominator=16)
gamble_values = st.one_of(
    st.just(INF), st.just(NEG_INF), small_fraction.map(lambda q: ext(q))
)


@given(st.tuples(gamble_values, gamble_values), st.tuples(gamble_values, gamble_values))
def test_subadditivity_property_for_builtins(u, v):
    f = Gamble(BIN, u)
    g = Gamble(BIN, v)
    for content in CONTENTS:
        assert content.eval(f + g) <= content.eval(f) + content.eval(g)


@given(st.tuples(small_fraction, small_fraction), small_fraction)
def test_homogeneity_property_for_builtins(vals, c):
    if c < 0:
        c = -c
    if c == 0:
        c = Fraction(1, 2)
    f = Gamble.of(BIN, list(vals))
    from gtprob.extreal import scale

    for content in CONTENTS:
        assert content.eval(f.scaled(c)) == scale(c, content.eval(f))


weights = st.fractions(min_value=0, max_value=3, max_denominator=6)


@given(st.integers(2, 3).flatmap(lambda k: st.tuples(*[st.tuples(weights, weights, gamble_values)] * k)))
def test_extension_of_a_builtin_with_nonnegative_weights_is_the_builtin(columns):
    outcomes = OutcomeSet([str(i) for i in range(len(columns))])
    first, second, values = zip(*columns)
    g = Gamble(outcomes, values)
    one = Measure.unchecked(outcomes, first)
    for content in (one, Envelope(outcomes, [one, Measure.unchecked(outcomes, second)]), SupContent(outcomes)):
        assert extend_bounded_below(outcomes, content).eval(g) == content.eval(g)
