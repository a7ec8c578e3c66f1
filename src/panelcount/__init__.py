"""Nonparametric estimation and k-sample comparison for panel count data.

The package exports the public names of its modules, each module's
``__all__`` in the order below; the command line lives in ``panelcount.cli``.
"""

from . import core, estimators, hypotests, simulation, weights
from .core import *
from .estimators import *
from .hypotests import *
from .simulation import *
from .weights import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, estimators, hypotests, simulation, weights)
    for name in module.__all__
]
