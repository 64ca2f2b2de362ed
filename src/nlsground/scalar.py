"""Radial ground state of the single equation −Δw + w = f(w) on ℝ³.

The scalar problem is the coupled one at v = 0 and β = 0, with the absent
component dropped: `solve_scalar` runs the pipeline of
`nlsground.coupled` on the one node array (w,), so each step does half
the coupled work and Newton solves a tridiagonal system.  One round of
the descent on the projected action Φ finds the basin; the dilation onto
the Pohozaev manifold and the damped Newton iteration of
`nlsground.energy.newton` then reach the grid's discrete critical point.

The independent check of w(0), shooting the radial ODE, lives in the
tests (`tests/oracle.py`); no solve shoots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coupled
from ._lapack import solve_banded  # noqa: F401  bound for perfbench tracer.PLAN
from .energy import (EnergyParams, _project, energy_I, morse_index, newton,
                     residuals)
from .errors import BracketFailure, NoConvergence
from .grid import Profile, RadialGrid, State
from .nonlinearity import Nonlinearity
from .nonlinearity import eval_df, eval_f  # noqa: F401  bound for perfbench tracer.PLAN

__all__ = ["ScalarGroundState", "solve_scalar"]

LADDER = tuple(2.0 ** (k / 2) for k in range(-2, 19))   # start amplitudes 0.5..512


@dataclass(frozen=True)
class ScalarGroundState:
    profile: Profile
    center_value: float
    action: float
    residual: float


def _integrate(*args, **kwargs):
    """Bound for perfbench tracer.PLAN until B1a; nothing calls it."""
    raise NotImplementedError("the shooting oracle is tests/oracle.py")


_bisect_amplitude = _integrate   # bound for perfbench tracer.PLAN until B1a


def _newton_polish(grid: RadialGrid, vals: np.ndarray,
                   params: EnergyParams) -> np.ndarray:
    """The shared Newton on (w,); returns the polished w."""
    (w,) = newton(grid, (vals,), params)
    return w


def _start(grid: RadialGrid, params: EnergyParams) -> np.ndarray:
    """A·e^{−r²/2} with the ladder's A of least Φ.

    The first A with W > 0 sits at the edge of the cone, where the descent
    runs off along the dilation ray on coarse grids.
    """
    bump = np.exp(-0.5 * grid.r ** 2)
    bump[-1] = 0.0
    phi, amp = min((coupled._phi_value(*coupled._terms(grid, (a * bump,),
                                                       params)), a)
                   for a in LADDER)
    if phi == math.inf:
        raise BracketFailure(f"no amplitude in [{LADDER[0]:g}, {LADDER[-1]:g}] "
                             "gives W > 0")
    return amp * bump


def solve_scalar(nl: Nonlinearity, grid: RadialGrid) -> ScalarGroundState:
    """Ground state of −Δw + w = f(w) on the given grid; see module docstring.

    The profile must be positive and monotone, with residual below 1e-6
    and Morse index 1.  It is not put through `coupled.certify`: at R = 20
    and N ≤ 2000 the cubic misses the Pohozaev clause by the quadrature's
    O(h²), while index 1 holds on every grid.
    """
    params = EnergyParams(nl, nl, 0.0)
    # through the module object, so the tracer's rebinding of it is seen
    ys, _ = coupled._descend(grid, (_start(grid, params),), params,
                             coupled.ROUND)
    (projected,), _ = _project(grid, ys, params)
    vals = _newton_polish(grid, projected, params)
    # a large w(0) (high power) means a core only a few h wide, which the
    # grid under-resolves; name both so the cause is visible
    where = f"(w(0)={vals[0]:.4g}, h={grid.h:g})"
    if not np.all(vals[:-1] > 0.0):
        raise NoConvergence(f"polished profile lost positivity {where}")
    if np.any(np.diff(vals) > 1e-12 * float(vals[0])):
        raise NoConvergence(f"polished profile lost monotonicity {where}")
    state = State(Profile(grid, vals), Profile.zero(grid))
    res_u, _ = residuals(state, params)
    if not res_u < 1e-6:
        raise NoConvergence(f"scalar residual {res_u:.3e} >= 1e-6 {where}")
    index = morse_index(grid, (vals,), params)
    if index != 1:
        raise NoConvergence(f"polished profile has Morse index {index}, "
                            f"not 1 {where}")
    return ScalarGroundState(profile=state.u, center_value=float(vals[0]),
                             action=energy_I(state, params), residual=res_u)
