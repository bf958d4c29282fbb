from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtprob.extreal import INF, NEG_INF, ONE, ZERO, _numerators, _read_out, ext, scale

# Small exhaustive probe set covering every convention edge.
PROBE = [NEG_INF, ext(-1), ZERO, ext("1/2"), ONE, ext(2), INF]


def test_infinity_plus_minus_infinity_is_plus_infinity():
    assert INF + NEG_INF == INF
    assert NEG_INF + INF == INF


def test_finite_addition():
    assert ext(2) + ext(3) == ext(5)
    assert ext("1/2") + ext("1/3") == ext("5/6")


def test_neg_inf_plus_neg_inf():
    assert NEG_INF + NEG_INF == NEG_INF
    assert NEG_INF + ext(7) == NEG_INF


def test_zero_times_infinity_is_zero():
    assert scale(0, INF) == ZERO
    assert scale(0, NEG_INF) == ZERO


def test_positive_scaling():
    assert scale(2, INF) == INF
    assert scale(2, NEG_INF) == NEG_INF
    assert scale(Fraction(1, 2), ext(3)) == ext("3/2")


def test_scale_rejects_bad_multipliers():
    with pytest.raises(ValueError):
        scale(-1, ONE)


def test_negation_is_total_involution():
    for a in PROBE:
        assert -(-a) == a
    assert -INF == NEG_INF
    assert -NEG_INF == INF


def test_subtraction_uses_the_addition_convention():
    assert INF - INF == INF
    assert ext(3) - ext(5) == ext(-2)
    assert NEG_INF - NEG_INF == INF


def test_ordering_is_total():
    values = sorted(PROBE)
    assert values[0] == NEG_INF and values[-1] == INF
    for a, b in product(PROBE, repeat=2):
        assert (a < b) + (a == b) + (a > b) == 1
    assert ONE.__eq__(1) is NotImplemented and ONE != 1


def test_add_commutative_associative_exhaustive():
    for a, b in product(PROBE, repeat=2):
        assert a + b == b + a
    for a, b, c in product(PROBE, repeat=3):
        assert (a + b) + c == a + (b + c)


def test_add_monotone_with_convention_whitelist():
    # Joint monotonicity can only conceivably fail on quadruples where the
    # inf + (-inf) convention fires in one of the two sums; enumerate those
    # as the whitelist and require any violation to land inside it.  The
    # enumeration shows the violation set is in fact empty: the convention
    # inflates sums upward, never downward.
    def convention_fires(x, y):
        return (x == INF and y == NEG_INF) or (x == NEG_INF and y == INF)

    whitelist = set()
    violations = set()
    for a, b, a2, b2 in product(PROBE, repeat=4):
        if not (a <= a2 and b <= b2):
            continue
        quad = (a, b, a2, b2)
        if convention_fires(a, b) or convention_fires(a2, b2):
            whitelist.add(quad)
        if not (a + b <= a2 + b2):
            violations.add(quad)
    assert violations <= whitelist
    assert violations == set()


def test_scale_monotone_for_fixed_multiplier():
    for c in [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]:
        for a, b in product(PROBE, repeat=2):
            if a <= b:
                assert scale(c, a) <= scale(c, b)


def test_serialized_round_trip():
    for a in PROBE:
        assert ext(str(a)) == a
    assert str(ext("3/6")) == "1/2"
    assert str(ext(4)) == "4"
    assert str(INF) == "inf" and str(NEG_INF) == "-inf"


def test_rejects_finite_floats_and_bools():
    with pytest.raises(TypeError):
        ext(0.5)
    with pytest.raises(TypeError):
        ext(True)
    assert ext(float("inf")) == INF
    assert ext(float("-inf")) == NEG_INF
    with pytest.raises(TypeError, match=r"^cannot interpret \[1\] as an extended real$"):
        ext([1])


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
extreals = st.one_of(
    st.just(INF), st.just(NEG_INF), rationals.map(ext)
)


@given(extreals, extreals)
def test_add_commutative_property(a, b):
    assert a + b == b + a


@given(extreals, extreals, extreals)
def test_add_associative_property(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(rationals, extreals)
def test_scale_distributes_over_finite_add(c, a):
    if c < 0:
        c = -c
    b = ext(Fraction(7, 3))
    assert scale(c, a + b) == scale(c, a) + scale(c, b)


@given(extreals)
def test_string_round_trip_property(a):
    assert ext(str(a)) == a


# -- the integer boundary of the sweeps ---------------------------------------


def test_fraction_keeps_the_slots_the_sweeps_read():
    # _numerators reads these slots, not the properties; a Python that renamed
    # them would fail here rather than deep inside a sweep.
    assert Fraction(6, 4)._numerator == 3 and Fraction(6, 4)._denominator == 2


boundary_values = st.lists(
    st.one_of(
        st.just(INF), st.just(NEG_INF), st.just(ZERO),
        rationals.map(ext),
        st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)).map(ext),
    ),
    min_size=1, max_size=12,
)


@given(boundary_values)
def test_numerators_match_the_public_properties(values):
    finite = [v.finite for v in values if v.is_finite]
    den = 1
    for r in finite:
        den = den * r.denominator // gcd(den, r.denominator)
    nums = [v.finite.numerator * (den // v.finite.denominator) if v.is_finite else v._v for v in values]
    assert _numerators(values) == (nums, den)
    assert _read_out(*_numerators(values)) == values
