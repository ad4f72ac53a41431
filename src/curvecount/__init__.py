"""Exact counts of rational and fixed-j elliptic plane curves, the
stratum combinatorics behind them, and the vanishing-order criterion for
nets of polynomials."""

from . import counts, graphs, series, strata
from .counts import *
from .graphs import *
from .series import *
from .strata import *

__version__ = "0.1.0"

__all__ = ["__version__", *counts.__all__, *graphs.__all__, *series.__all__, *strata.__all__]
