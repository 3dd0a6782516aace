"""Two-sided p-values for asymmetric null distributions.

A two-sided p-value needs a rule for combining the tails of a null
distribution that is not symmetric. This package implements the doubled,
weighted, conditional (tail probabilities as weights), modified
conditional, and minimum-likelihood constructions over a small library of
continuous and discrete distributions, wires them into variance, F,
binomial, and Fisher exact tests, and provides the power, bias, and
unbiased-weight analysis that discriminates between the constructions.
"""

from . import analysis, dist, pvalue, stattests
from .analysis import *  # noqa: F401,F403
from .dist import *  # noqa: F401,F403
from .pvalue import *  # noqa: F401,F403
from .stattests import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *dist.__all__, *pvalue.__all__, *stattests.__all__, *analysis.__all__]
