"""Exact-arithmetic toolkit for binomial divisibility bands, secant-variety
degrees, small-lattice successive minima, and explicit arithmetic-surface
bound evaluators.  Import the submodules: arith, bands, secant, lattice,
bounds, suite, cli and errors."""

__version__ = "0.1.0"
