"""Exact finite-horizon game-theoretic probability.

The package makes the betting picture of probability executable at desk
scale: forecasts are priced by sublinear functionals on gambles, a
prediction game unfolds on a finite outcome tree, and upper/lower
expectations of finite-horizon payoffs are computed exactly by backward
induction.  On top of that sit verified supermartingale machinery, the
classical strategy constructions (additive upcrossing capture and the
multiplicative ride on conditional expectations), and finite-horizon
harnesses for zero-one phenomena, including a prediction protocol with an
explicit forecaster.

All arithmetic is exact rational; nothing rounds.
"""

from gtprob.extreal import ExtReal, ext, scale, INF, NEG_INF, ZERO, ONE
from gtprob.functionals import (
    OutcomeSet,
    Gamble,
    OuterContent,
    Measure,
    SupContent,
    Envelope,
    TableContent,
    check_axioms,
    extend_bounded_below,
)
from gtprob.gametree import (
    EMPTY,
    Situation,
    Cut,
    GameSpec,
    Strategy,
    Supermartingale,
    BudgetViolation,
    capital_process,
    verify_supermartingale,
    translate_strategy,
    shift_strategy,
    stop_when_covered,
    format_situation,
    parse_situation,
)
from gtprob.expectation import (
    Payoff,
    EventWindow,
    indicator,
    upper_expectation,
    lower_expectation,
    upper_table,
    upper_probability,
    lower_probability,
    sup_variant_upper_expectation,
    determinacy_check,
)
from gtprob.strategies import (
    enumerate_rationals,
    enumerate_intervals,
    CutTrace,
    doob_upcrossing,
    levy_strategy,
    levy_capital_trace,
    mixture,
)
from gtprob.laws import (
    levy_experiment,
    kolmogorov_invariance,
    ergodic_bound,
    scripted_conditional_game,
    zero_one_classify,
)
from gtprob.forecaster import (
    Protocol2Spec,
    ForecastingSystem,
    embed,
    chi_phi,
    upper_expectation_p2,
    upper_prob_phi,
    delta_mixing_check,
)

__version__ = "0.1.0"
