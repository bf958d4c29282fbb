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

from gtprob.extreal import *
from gtprob.functionals import *
from gtprob.gametree import *
from gtprob.expectation import *
from gtprob.strategies import *
from gtprob.laws import *
from gtprob.forecaster import *

__version__ = "0.1.0"
