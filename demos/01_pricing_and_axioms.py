#!/usr/bin/env python3
"""Pricing functionals on gambles, and the axiom audit.

A gamble maps each outcome of one trial to an extended-real payoff.  A
forecast is encoded by a functional that prices gambles: a probability
measure prices by averaging, the worst-case functional by the maximum,
an envelope by the best measure in a committee.  The audit harness checks
the monotonicity / homogeneity / subadditivity / normalization axioms on
an exhaustive small grid and reports witnesses when something fails.
"""

from gtprob import INF, NEG_INF
from gtprob.functionals import (
    Envelope,
    Gamble,
    Measure,
    OutcomeSet,
    SupContent,
    TableContent,
    check_axioms,
    default_grid,
    extend_bounded_below,
)

coin_space = OutcomeSet(["0", "1"])
coin = Measure.uniform(coin_space)
worst_case = SupContent(coin_space)
committee = Envelope(coin_space, [{"0": "3/4", "1": "1/4"}, {"0": "1/4", "1": "3/4"}])

bet_on_one = Gamble.of(coin_space, [0, 1])
print("price of the unit bet on outcome 1:")
print(f"  fair coin      -> {coin.eval(bet_on_one)}")
print(f"  worst case     -> {worst_case.eval(bet_on_one)}")
print(f"  committee      -> {committee.eval(bet_on_one)}")

print("\nthe conventions in action:")
print(f"  inf + (-inf) = {INF + NEG_INF}")
mixed = Gamble.of(coin_space, [NEG_INF, INF])
print(f"  coin price of a gamble worth (-inf, inf): {coin.eval(mixed)}")

print("\naxiom audit of the fair coin:")
print(check_axioms(coin))

print("\naudit of the 'minimum' functional (not subadditive):")
min_like = TableContent(coin_space, [(g, min(g.values)) for g in default_grid(coin_space)])
report = check_axioms(min_like)
print(report.results["subadditive"])

print("\naudit of a sub-probability weighting (breaks normalization):")
half = Measure.unchecked(coin_space, {"0": "1/2", "1": "0"})
print(check_axioms(half).results["normalized"])

print("\nextending a bounded-below functional to every gamble:")
extended = extend_bounded_below(coin_space, lambda g: coin.eval(g))
for values in ([2, 4], [NEG_INF, 0], [NEG_INF, INF]):
    g = Gamble.of(coin_space, values)
    print(f"  extension at ({', '.join(str(v) for v in g.values)}) -> {extended.eval(g)}")
