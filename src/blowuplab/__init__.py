"""Numerical laboratory for blow-up and lifespan bounds of the
scale-invariant damped semilinear wave equation with radially decaying
data: exponent algebra, certified lower-bound iteration with quadrature
oracles, a radial finite-difference solver, and sweep experiments.

The package exports the `__all__` of each of its four core modules."""

from .bound_engine import *
from .experiments import *
from .exponents import *
from .solver import *

__version__ = "0.1.0"
