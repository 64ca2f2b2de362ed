"""Radial ground states of a coupled nonlinear Schrödinger system.

Computes positive radially symmetric solutions of

    −Δu + u = f(u) + β u v²,   −Δv + v = g(v) + β u² v    in ℝ³

by constrained minimization of the action over the Pohozaev manifold,
classifies each minimizer as scalar (one component vanishes) or vector,
and locates the coupling threshold beyond which vector states win.
"""
from __future__ import annotations

from .coupled import GroundState, Kind, SolveConfig, certify, classify, solve_coupled
from .energy import (EnergyParams, EnergyReport, energy_I, energy_report,
                     first_variation, pohozaev_J, project_pohozaev,
                     projected_energy)
from .grid import Profile, RadialGrid, State, dilate, integrate, kinetic, rearrange
from .nonlinearity import (AssumptionReport, Nonlinearity, check_assumptions,
                           cubic, eval_F, eval_df, eval_f, log_enhanced,
                           power_sum)
from .scalar import ScalarGroundState, solve_scalar
from .threshold import (SweepResult, SweepRow, bisect_beta0, compare_energies,
                        sweep)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "EnergyParams", "EnergyReport", "GroundState",
    "Kind", "Nonlinearity", "Profile", "RadialGrid", "ScalarGroundState",
    "SolveConfig", "State", "SweepResult", "SweepRow",
    "bisect_beta0", "certify", "check_assumptions", "classify",
    "compare_energies", "cubic", "dilate", "energy_I", "energy_report",
    "eval_F", "eval_df", "eval_f", "first_variation", "integrate", "kinetic",
    "log_enhanced", "pohozaev_J", "power_sum", "project_pohozaev",
    "projected_energy", "rearrange", "solve_coupled", "solve_scalar",
    "sweep", "__version__",
]
