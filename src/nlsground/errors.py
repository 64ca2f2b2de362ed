"""Exception hierarchy for the ground-state solver.

Validation errors (bad arguments, malformed configs) derive from
``ValueError``; failures of the numerical pipeline derive from
``NumericalError``.  The CLI maps these onto its exit-code contract.
"""
from __future__ import annotations


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class InvalidExponent(ValueError):
    """Growth exponent outside the admissible open interval (1, 5)."""


class LengthMismatch(ValueError):
    """Sample array length does not match the grid node count."""


class GridMismatch(ValueError):
    """Profiles defined on different grids were combined."""


class NonpositiveDilation(ValueError):
    """Dilation parameter t must be positive."""


class ZeroState(ValueError):
    """Operation requires a state with at least one nonzero component."""


class NegativeBeta(ValueError):
    """Coupled radial pipeline requires a positive coupling beta."""


class InvalidBracket(ValueError):
    """Bisection bracket endpoints do not straddle a transition."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerical pipeline."""


class BracketFailure(NumericalError):
    """No amplitude to start from: no start amplitude of `solve_scalar`
    gives W > 0, or the RK4 reference's `SHOOT_BRACKET` holds no
    turn-up/crossing transition."""


class NoConvergence(NumericalError):
    """Iteration stagnated above tolerance."""


class NoProjection(NumericalError):
    """Off the cone 0 < K, W < inf: W <= 0 misses J = 0, W = inf overflows."""


class CertificationFailure(NumericalError):
    """A-posteriori certificate violated; carries the failed clause."""

    def __init__(self, clause: str, detail: str):
        self.clause = clause
        super().__init__(f"certificate clause violated: {clause} ({detail})")
