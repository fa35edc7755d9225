"""Empirical pairwise copulas, Gaussian baselines, and tail-dependence dynamics.

The package estimates the dependence structure of synchronous intraday return
series on marginal quantile grids, compares it cell by cell against the
Gaussian copula implied by measured Pearson correlations, and tracks tail
dependence against the market's average correlation level over rolling
trading-day windows.
"""

__version__ = "0.1.0"

from . import copula, gaussian, ingest, synth, taildep
from .copula import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .ingest import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403
from .taildep import *  # noqa: F401,F403

# each module's __all__ is the one declaration of its public names
__all__ = ["__version__"]
for _module in (copula, gaussian, ingest, synth, taildep):
    __all__ += _module.__all__
del _module
