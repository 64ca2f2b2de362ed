"""Radial ground state of the single equation −Δw + w = f(w) on ℝ³.

The scalar problem is the coupled one at v = 0 and β = 0, with the absent
component dropped: `solve_scalar` runs the pipeline of
`nlsground.coupled` on the one node array (w,), so each step does half
the coupled work and Newton solves a tridiagonal system.  One round of
the descent on the projected action Φ finds the basin; the dilation onto
the Pohozaev manifold and the damped Newton iteration of
`nlsground.energy.newton` then reach the grid's discrete critical point.

A fixed-step RK4 shooting is the tests' independent reference for w(0):
`_integrate` marches w″ + (2/r)w′ − w + f(w) = 0 from w(0) = a,
w′(0) = 0 and tells whether the trajectory overshoots (crosses zero) or
turns back up, and `_bisect_amplitude` bisects between the two.
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
from .nonlinearity import POWER_SUM, Nonlinearity
from .nonlinearity import eval_df, eval_f  # noqa: F401  bound for perfbench tracer.PLAN

__all__ = ["ScalarGroundState", "solve_scalar"]

DECAY_FLOOR = 1e-9
BLOWUP_LIMIT = 1e6
SHOOT_RADIUS = 20.0    # trajectories are classified out to this radius
SHOOT_STEP = SHOOT_RADIUS / 16000.0   # h/4 of the default grid
SHOOT_BRACKET = (0.1, 50.0)   # its ends must turn up and cross
LADDER = tuple(2.0 ** (k / 2) for k in range(-2, 19))   # start amplitudes 0.5..512


@dataclass(frozen=True)
class ScalarGroundState:
    profile: Profile
    center_value: float
    action: float
    residual: float


def _scalar_f(nl: Nonlinearity):
    """Pure-Python scalar f(t) closure (hot path of the RK4 loop)."""
    if nl.family == POWER_SUM:
        terms = nl.terms

        def f(t: float) -> float:
            s = 0.0
            for a, p in terms:
                s += a * abs(t) ** (p - 1.0) * t
            return s
    else:
        amp = nl.amplitude

        def f(t: float) -> float:
            t2 = t * t
            return amp * (t * math.log1p(t2) + t * t2 / (1.0 + t2))
    return f


def _integrate(nl: Nonlinearity, a: float,
               dt: float = SHOOT_STEP) -> bool | None:
    """RK4 march of (w, w') from r=0.  True if w crosses zero or |w| passes
    `BLOWUP_LIMIT` (an overshoot), False if it turns back up, None if it
    decays below `DECAY_FLOOR` or reaches `SHOOT_RADIUS`."""
    f = _scalar_f(nl)

    def accel(r: float, y: float, p: float) -> float:
        if r == 0.0:
            return (y - f(y)) / 3.0
        return -2.0 * p / r + y - f(y)

    n_steps = int(round(SHOOT_RADIUS / dt))
    y, p, r = a, 0.0, 0.0
    for _ in range(n_steps):
        k1y = p
        k1p = accel(r, y, p)
        rh = r + 0.5 * dt
        k2y = p + 0.5 * dt * k1p
        k2p = accel(rh, y + 0.5 * dt * k1y, k2y)
        k3y = p + 0.5 * dt * k2p
        k3p = accel(rh, y + 0.5 * dt * k2y, k3y)
        rf = r + dt
        k4y = p + dt * k3p
        k4p = accel(rf, y + dt * k3y, k4y)
        y += dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        p += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        r = rf
        if y <= 0.0 or y > BLOWUP_LIMIT:
            return True
        if p >= 0.0:
            return False
        if y < DECAY_FLOOR:
            return None
    return None


def _bisect_amplitude(nl: Nonlinearity) -> float:
    """The RK4 reference w(0): bisect turning up against crossing.

    The ends of `SHOOT_BRACKET` must turn up and cross, else
    `BracketFailure`.  The halving stops once hi − lo ≤ 1e-12·hi, within
    49 steps.
    """
    lo, hi = SHOOT_BRACKET
    if (_integrate(nl, lo), _integrate(nl, hi)) != (False, True):
        raise BracketFailure(
            f"no turn-up/crossing transition in {SHOOT_BRACKET}")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        crosses = _integrate(nl, mid)
        if crosses is None:
            return mid
        if crosses:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
