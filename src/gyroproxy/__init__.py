"""Gyrokinetic kernel pipeline proxy.

Spectral proxy kernels (original/optimized variants where an optimization
exists), an FFT padding planner, and an analytic communication cost
model for two-dimensional rank decompositions.
"""

__version__ = "0.1.0"
