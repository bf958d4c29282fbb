import itertools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gtprob.extreal import INF, NEG_INF, ONE, ZERO, _numerators, _read_out, ext, scale
from gtprob.functionals import (
    AUDIT_CONSTANTS,
    AUDIT_SCALARS,
    GRID_VALUES,
    OUTER_CONTENT,
    SUPEREXPECTATION,
    SURROGATE,
    AxiomReport,
    Envelope,
    Gamble,
    GambleSpaceError,
    Measure,
    OuterContent,
    OutcomeSet,
    SupContent,
    TableContent,
    UnknownGambleError,
    _tally,
    check_axioms,
    default_grid,
    extend_bounded_below,
)
from oracles import reference_price

BIN = OutcomeSet(["0", "1"])
COIN = Measure.uniform(BIN)


# -- gamble arithmetic, kept here for the tests and the reference audit ------


def add(f: Gamble, g: Gamble) -> Gamble:
    if f.outcomes != g.outcomes:
        raise GambleSpaceError("gambles live on different outcome sets")
    return Gamble(f.outcomes, [a + b for a, b in zip(f.values, g.values)])


def scaled(f: Gamble, c) -> Gamble:
    return Gamble(f.outcomes, [scale(Fraction(c), v) for v in f.values])


def le(f: Gamble, g: Gamble) -> bool:
    if f.outcomes != g.outcomes:
        raise GambleSpaceError("gambles live on different outcome sets")
    return all(a <= b for a, b in zip(f.values, g.values))


def nonnegative(g: Gamble) -> bool:
    return all(v >= ZERO for v in g.values)


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


def test_gambles_compare_by_outcome_set_and_values():
    g = Gamble.of(BIN, [0, 1])
    assert g == Gamble.of(BIN, ["0", "1"]) and hash(g) == hash(Gamble.of(BIN, ["0", "1"]))
    assert g != Gamble.of(OutcomeSet(["a", "b"]), [0, 1]) and g != (ZERO, ONE)
    assert len({g, Gamble.of(BIN, [0, 1]), Gamble.of(BIN, [1, 0])}) == 2
    assert repr(g) == "Gamble(0: 0, 1: 1)"
    assert repr(SupContent(BIN)) == "SupContent(['0', '1'])"
    assert repr(BIN) == "OutcomeSet(['0', '1'])"
    assert repr(Measure(BIN, {"0": "1/3", "1": "2/3"})) == "Measure(0: 1/3, 1: 2/3)"
    assert repr(Envelope(BIN, [{"0": 1, "1": 0}, {"0": 0, "1": 1}])) == "Envelope(2 measures on ['0', '1'])"
    # The base class leaves pricing to its subclasses.
    with pytest.raises(NotImplementedError):
        OuterContent(BIN).eval(g)


def test_a_formless_functional_prices_a_gamble_through_its_own_level_rule():
    class Doubled(OuterContent):
        """Twice the largest child, priced a level at a time only."""

        def price_level(self, nums, den):
            return [2 * max(nums[i : i + 2]) for i in range(0, len(nums), 2)], den

    class Bare(OuterContent):
        pass

    g = Gamble.of(BIN, ["1/3", "-1/2"])
    assert Doubled(BIN).eval(g) == Doubled(BIN).eval_seq(g.values) == ext("2/3")
    with pytest.raises(NotImplementedError):
        Bare(BIN).eval(g)


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
    assert inf_like.eval(add(f, g)) == ONE
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
    assert NEG_INF not in g.values
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
    # the extension refuses the weighting, and the measure's rule gives -inf.
    m = Measure.unchecked(BIN, [Fraction(3, 2), Fraction(-1, 2)])
    g = Gamble(BIN, [ONE, NEG_INF])
    assert m.eval(g) == NEG_INF
    with pytest.raises(ValueError, match="not monotone in the clamp level"):
        extend_bounded_below(BIN, m).eval(g)


def test_extension_of_a_builtin_is_the_builtin_past_sixty_four_doublings():
    # F(max(f, a)) = max(0, a/10**30 + 1 - 1/10**30) = 0 for every a <= -10**30,
    # but the clamp loop sees 64 strictly falling doublings before it gets there.
    k3 = OutcomeSet(["a", "b", "c"])
    tiny = Fraction(1, 10**30)
    env = Envelope(k3, [[0, 1, 0], [tiny, 0, 1 - tiny]])
    g = Gamble(k3, [NEG_INF, ZERO, ONE])
    assert extend_bounded_below(k3, env) is env
    assert extend_bounded_below(k3, env).eval(g) == env.eval(g) == ZERO
    assert extend_bounded_below(k3, env.eval).eval(g) == NEG_INF


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
            if nonnegative(g):
                assert content.eval(g) >= ZERO


def test_constant_shift_moves_price_by_the_constant():
    for content in CONTENTS:
        for g in default_grid(BIN):
            for c in (Fraction(-1), Fraction(2), Fraction(1, 3)):
                assert content.eval(add(g, Gamble.constant(g.outcomes, c))) == content.eval(g) + ext(c)


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
        assert content.eval(add(f, g)) <= content.eval(f) + content.eval(g)


@given(st.tuples(small_fraction, small_fraction), small_fraction)
def test_homogeneity_property_for_builtins(vals, c):
    if c < 0:
        c = -c
    if c == 0:
        c = Fraction(1, 2)
    f = Gamble.of(BIN, list(vals))
    for content in CONTENTS:
        assert content.eval(scaled(f, c)) == scale(c, content.eval(f))


weights = st.fractions(min_value=0, max_value=3, max_denominator=6)


@given(st.integers(2, 3).flatmap(lambda k: st.tuples(*[st.tuples(weights, weights, gamble_values)] * k)))
def test_extension_of_a_builtin_with_nonnegative_weights_is_the_builtin(columns):
    outcomes = OutcomeSet([str(i) for i in range(len(columns))])
    first, second, values = zip(*columns)
    g = Gamble(outcomes, values)
    one = Measure.unchecked(outcomes, first)
    for content in (one, Envelope(outcomes, [one, Measure.unchecked(outcomes, second)]), SupContent(outcomes)):
        assert extend_bounded_below(outcomes, content.eval).eval(g) == content.eval(g)


signed_weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def priced_gambles(draw):
    """A built-in on K = 1..4 outcomes, its measures unchecked with zero and
    negative weights, and a gamble that may hold both infinities."""
    k = draw(st.integers(1, 4))
    outcomes = OutcomeSet([str(i) for i in range(k)])
    measure = lambda: Measure.unchecked(outcomes, draw(st.lists(signed_weights, min_size=k, max_size=k)))
    kind = draw(st.sampled_from(["measure", "envelope", "sup"]))
    if kind == "measure":
        content = measure()
    elif kind == "envelope":
        content = Envelope(outcomes, [measure() for _ in range(draw(st.integers(1, 3)))])
    else:
        content = SupContent(outcomes)
    return content, draw(st.lists(gamble_values, min_size=k, max_size=k))


TRI = OutcomeSet(["a", "b", "c"])


@example((Measure.unchecked(TRI, [0, Fraction(-1, 2), Fraction(3, 2)]), [INF, NEG_INF, ONE]))
@example((Measure.unchecked(TRI, [Fraction(-1), 0, 2]), [INF, NEG_INF, ONE]))
@example((Measure.unchecked(TRI, [0, 0, 0]), [INF, ext(3), NEG_INF]))
@given(priced_gambles())
def test_builtins_price_a_gamble_as_the_fraction_rules_do(case):
    content, values = case
    expected = reference_price(content, values)
    assert content.eval_seq(values) == expected
    assert content.eval(Gamble(content.outcomes, values)) == expected
    assert _read_out(*content.price_level(*_numerators(values)))[0] == expected


# -- the audit against the reference audit on Gamble arithmetic ---------------


def reference_audit(content: OuterContent, gambles) -> AxiomReport:
    """The axiom audit written on Gamble objects and extended-real sums."""
    suite = list(gambles)
    cache = {}

    def price(g):
        if g.values not in cache:
            try:
                cache[g.values] = reference_price(content, g.values)
            except UnknownGambleError:
                cache[g.values] = None
        return cache[g.values]

    def text(g):
        return "(" + ", ".join(str(v) for v in g.values) + ")"

    def monotone():
        for f, g in itertools.combinations_with_replacement(suite, 2):
            for lo, hi in ((f, g), (g, f)):
                if le(lo, hi):
                    a, b = price(lo), price(hi)
                    yield None if a is None or b is None else (
                        a <= b, lambda: f"f={text(lo)} <= g={text(hi)} but E(f)={a} > E(g)={b}"
                    )

    def homogeneous():
        for f in suite:
            ef = price(f)
            for c in AUDIT_SCALARS:
                cf = None if ef is None else price(scaled(f, c))
                yield None if cf is None else (
                    cf == scale(c, ef), lambda: f"E({c}*{text(f)})={cf} but {c}*E(f)={scale(c, ef)}"
                )

    def subadditive():
        for f, g in itertools.product(suite, repeat=2):
            ef, eg, s = price(f), price(g), price(add(f, g))
            yield None if ef is None or eg is None or s is None else (
                s <= ef + eg, lambda: f"f={text(f)}, g={text(g)}: E(f+g)={s} > E(f)+E(g)={ef + eg}"
            )

    def normalized():
        for c in AUDIT_CONSTANTS:
            v = price(Gamble.constant(content.outcomes, c))
            yield None if v is None else (v == ext(c), lambda: f"E({c})={v} != {c}")

    def surrogate():
        nonneg = [f for f in suite if nonnegative(f)]
        for family in itertools.islice(itertools.combinations(nonneg, 3), 400):
            parts = [price(f) for f in family]
            whole = price(add(add(family[0], family[1]), family[2]))
            if whole is None or any(p is None for p in parts):
                yield None
                continue
            rhs = parts[0] + parts[1] + parts[2]
            yield whole <= rhs, lambda: "family " + ", ".join(map(text, family)) + f": E(sum)={whole} > sum E={rhs}"
        for f in nonneg[:50]:
            run, run_price = f, price(f)
            for k in (2, 3):
                run = add(run, f)
                cur, ef = price(run), price(f)
                if cur is None or ef is None or run_price is None:
                    yield None
                    continue
                run_price = run_price + ef
                yield cur <= run_price, lambda: f"partial sum of {k} copies of {text(f)}: E={cur} > {run_price}"

    report = AxiomReport(level_claimed=content.declared_level)
    for name, checks in (
        ("monotone", monotone()),
        ("homogeneous", homogeneous()),
        ("subadditive", subadditive()),
        ("normalized", normalized()),
        (SURROGATE, surrogate()),
    ):
        report.results[name] = _tally(name, checks)
    if not all(r.passed for name, r in report.results.items() if name != SURROGATE):
        report.level_audited = "not-an-outer-content"
    elif report.results[SURROGATE].passed and content.declared_level == SUPEREXPECTATION:
        report.level_audited = SUPEREXPECTATION
    else:
        report.level_audited = OUTER_CONTENT
    return report


AUDITED_KINDS = [
    "measure", "sup", "envelope", "negative-weight", "sub-probability", "extended-measure",
    "min-table", "gappy-max-table", "extended-non-normalized",
]


def audited(kind: str, outcomes: OutcomeSet, suite: list[Gamble]) -> OuterContent:
    """One functional of each kind the audit must report on as the reference does."""
    k = len(outcomes)
    uniform = Measure.uniform(outcomes)
    known = default_grid(outcomes) + suite
    if kind == "measure":
        return uniform
    if kind == "sup":
        return SupContent(outcomes)
    if kind == "envelope":
        return Envelope(outcomes, [[Fraction(1, k)] * k, [Fraction(2, 3)] + [Fraction(1, 3 * (k - 1))] * (k - 1)])
    if kind == "negative-weight":
        return Measure.unchecked(outcomes, [Fraction(3, 2), Fraction(-1, 2)] + [Fraction(0)] * (k - 2))
    if kind == "sub-probability":
        return Measure.unchecked(outcomes, [Fraction(1, 2)] + [Fraction(0)] * (k - 1))
    if kind == "extended-measure":
        return extend_bounded_below(outcomes, uniform.eval)
    if kind == "min-table":
        return TableContent(outcomes, [(g, min(g.values)) for g in default_grid(outcomes)])
    if kind == "gappy-max-table":
        return TableContent(outcomes, [(g, max(g.values)) for i, g in enumerate(known) if i % 3], SUPEREXPECTATION)
    return extend_bounded_below(outcomes, lambda g: scale(2, uniform.eval(g)))


odd_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3, 5, 7, 9, 15])).map(ext)
audit_values = st.one_of(st.sampled_from(GRID_VALUES), odd_rationals)


@st.composite
def audit_cases(draw):
    outcomes = OutcomeSet([str(i) for i in range(draw(st.integers(2, 3)))])
    vectors = st.lists(audit_values, min_size=len(outcomes), max_size=len(outcomes))
    suite = [Gamble(outcomes, v) for v in draw(st.lists(vectors, min_size=1, max_size=10))]
    return audited(draw(st.sampled_from(AUDITED_KINDS)), outcomes, suite), suite


@given(audit_cases())
def test_audit_reports_what_the_reference_audit_reports(case):
    content, suite = case
    assert str(check_axioms(content, suite)) == str(reference_audit(content, suite))


@pytest.mark.parametrize("kind", AUDITED_KINDS)
def test_audit_on_the_default_grid_matches_the_reference(kind):
    content = audited(kind, BIN, [])
    assert str(check_axioms(content)) == str(reference_audit(content, default_grid(BIN)))


def test_a_suite_gamble_on_another_outcome_set_is_refused_before_pricing():
    priced = []

    class Recording(OuterContent):
        def eval_seq(self, values):
            priced.append(values)
            return max(values)

    stray = Gamble.of(OutcomeSet(["a", "b"]), [0, 1])
    for suite in ([stray], [Gamble.of(BIN, [0, 1]), stray]):
        with pytest.raises(GambleSpaceError, match="evaluated against a functional on"):
            check_axioms(Recording(BIN), suite)
    assert priced == []
