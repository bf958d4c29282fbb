#!/usr/bin/env python3
"""The prediction protocol with a forecaster, and its mixing behaviour.

Each round a forecaster picks a functional from a menu before the world
moves.  The protocol embeds into the basic one over (prediction, outcome)
pairs, with the round price being the worst case over the menu; the native
two-phase recursion and the embedded computation agree exactly.

Fixing a forecasting system turns outcome events into embedded events.  A
history-independent system is perfectly mixing (conditioning on any prefix
changes nothing); a sticky system that parrots the last outcome violates
any mixing bound below 1.
"""

from fractions import Fraction

from gtprob.extreal import ext
from gtprob.functionals import Measure, OutcomeSet, SupContent
from gtprob.expectation import EventWindow, upper_expectation
from gtprob.forecaster import (
    ForecastingSystem,
    Protocol2Spec,
    chi_phi,
    delta_mixing_check,
    embed,
    lift_payoff,
    upper_expectation_p2,
    upper_prob_phi,
)

space = OutcomeSet(["0", "1"])
coin = Measure.uniform(space)
skew = Measure(space, {"0": "1/4", "1": "3/4"})

spec = Protocol2Spec(space, [("c", "s"), ("c",)], {"c": coin, "s": SupContent(space)})
game = embed(spec)
print(f"embedded game: {game}")


def payoff(pairs):
    ones = sum(1 for _p, x in pairs if x == "1")
    return ext(Fraction(ones, 2))


native = upper_expectation_p2(spec, payoff, 2)
embedded = upper_expectation(game, lift_payoff(spec, payoff, 2))
print(f"native two-phase value {native} == embedded value {embedded}")

print("\na forecasting system interleaves predictions with outcomes:")
sticky_spec = Protocol2Spec(
    space,
    [("p0", "p1")] * 2,
    {"p0": Measure(space, {"0": 1, "1": 0}), "p1": Measure(space, {"0": 0, "1": 1})},
)
sticky = ForecastingSystem.last_outcome(sticky_spec, {"0": "p0", "1": "p1"}, initial="p0")
print(f"  sticky system on outcomes 1,0 -> {chi_phi(sticky, ('1', '0'))}")

print("\nmixing check for a history-independent (product) system:")
product_spec = Protocol2Spec(space, [("c",), ("d",), ("c",), ("d",)], {"c": coin, "d": skew})
product = ForecastingSystem(product_spec, lambda s: "c" if len(s) % 2 == 0 else "d")
events = [EventWindow.coordinate_is(3, "1"), EventWindow.coordinate_is(4, "0")]
print(delta_mixing_check(product, Fraction(0), 2, events, max_prefix=2))

print("\nthe sticky system fails mixing with an exact witness:")
event = EventWindow.coordinate_is(2, "1")
report = delta_mixing_check(sticky, Fraction(1, 2), 1, [event], max_prefix=1)
print(report)
print(f"  conditional after seeing 1: {upper_prob_phi(sticky, event, ('1',))}")
print(f"  unconditional:             {upper_prob_phi(sticky, event)}")
