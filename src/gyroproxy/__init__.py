"""Gyrokinetic kernel pipeline proxy.

Spectral proxy kernels (original/optimized variants where an optimization
exists), an FFT padding planner, and an analytic communication cost
model for two-dimensional rank decompositions.
"""

__version__ = "0.1.0"

from .grid import GridShape, make_case, random_state
from .padding import PaddedPlan, dealias_minimum, factorize, plan_padded_size

__all__ = [
    "GridShape",
    "PaddedPlan",
    "__version__",
    "dealias_minimum",
    "factorize",
    "make_case",
    "plan_padded_size",
    "random_state",
]
