#!/usr/bin/env python3
"""Finite-horizon skeletons of the zero-one phenomena.

Conditional values reach the payoff exactly at the horizon; events that
ignore a prefix have prefix-independent values (witnessed by relocating
the optimal table); events closed under dropping a prefix cannot gain
value from conditioning on it; and probability intervals classify events
into almost certain / almost impossible / fully unprobabilized.

A scripted game pins the conditional sequence along one path, and the
multiplicative ride compounds exactly as the script oscillates, far past
any dense-table horizon.
"""

from fractions import Fraction

from gtprob.functionals import Measure, OutcomeSet, SupContent
from gtprob.gametree import GameSpec
from gtprob.expectation import EventWindow, indicator
from gtprob.laws import (
    ergodic_bound,
    kolmogorov_invariance,
    levy_experiment,
    scripted_conditional_game,
    zero_one_classify,
)
from gtprob.strategies import levy_capital_trace

space = OutcomeSet(["0", "1"])
coin = GameSpec(space, Measure.uniform(space), 3)
worst = GameSpec(space, SupContent(space), 3)

print("conditional traces toward the horizon (event: second outcome is 1):")
report = levy_experiment(coin, indicator(EventWindow.coordinate_is(2, "1")), [("1", "1"), ("0", "0")])
print(report)

print("\nworst-case game, event 'not all ones': every pre-horizon value is 1,")
print("so the conditional cannot converge to the indicator on the all-ones path:")
not_all_ones = EventWindow(1, 3, predicate=lambda w: any(x != "1" for x in w))
report = levy_experiment(worst, indicator(not_all_ones), [("1", "1", "1")])
print(report)

print("\nprefix-independence of an event ignoring the first coordinate:")
print(kolmogorov_invariance(coin, EventWindow.coordinate_is(2, "1")))

print("\ndrop-prefix bound (conditioning on 0 cannot raise 'first is 1'):")
print(ergodic_bound(coin, EventWindow.coordinate_is(1, "1"), ("0",)))

print("\nclassification of probability intervals:")
for name, game, event in [
    ("whole space under the coin", coin, EventWindow.whole_space()),
    ("non-trivial window, worst case", worst, EventWindow.coordinate_is(1, "1")),
    ("same window under the coin", coin, EventWindow.coordinate_is(1, "1")),
]:
    print(f"  {name}: {zero_one_classify(game, event).classification}")

print("\nscripted oscillation, eight cycles across (3/5, 9/10), horizon 19:")
targets = [Fraction(4, 5), Fraction(3, 4), Fraction(7, 10)] + [
    Fraction(1, 2),
    Fraction(19, 20),
] * 8
scripted = scripted_conditional_game(targets)
steps = levy_capital_trace(
    scripted.game,
    scripted.path,
    Fraction(3, 5),
    Fraction(9, 10),
    cond=scripted.cond,
)
for st in steps:
    if st.event:
        print(f"  depth {st.n:2d}: {st.event[0]:>5s} cycle {st.event[1]}, capital {st.capital}")
floor = (Fraction(9, 10) / Fraction(3, 5)) ** 8
print(f"  final capital {steps[-1].capital} vs growth floor (b/a)^8 = {floor}")
