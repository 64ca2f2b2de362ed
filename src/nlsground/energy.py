"""Action functional, Pohozaev functional, and the dilation projection.

For a state (u, v) with coupling strength beta the action is

    I = 1/2 ||u||^2 - int F(u) + 1/2 ||v||^2 - int G(v) - (beta/2) int u^2 v^2

with ||.|| the H^1 norm.  I, the Pohozaev functional J and the projected
action Phi read a state only through the two integrals `_terms` returns,
the Dirichlet energy K and the well depth W = P - M/2 (M the mass
int (u^2 + v^2), P the potential int [F(u) + G(v) + (beta/2) u^2 v^2]):
I = K/2 - W, J = K/2 - 3W and Phi = (K/3)^{3/2} (2W)^{-1/2}.  States with
J = 0 form the constraint manifold; on it I = K/3.  The ray
t -> (u(./t), v(./t)) has action (t/2)K - t^3 W, so whenever W > 0 it
crosses the manifold exactly once, at t = sqrt(K/(6W)); projecting along
dilations is therefore closed-form.

The one discrete operator both solvers share lives here too: the first
variation on raw node arrays, the −Δ_h bands of its Jacobian, the
damped `newton` polish and the `morse_index` of the action's Hessian.
`nlsground.coupled.certify` judges its states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NoProjection, ZeroState
from .grid import (Profile, State, dilate, flux_laplacian_interior, integrate,
                   kinetic)
from .nonlinearity import Nonlinearity, eval_F, eval_df, eval_f

__all__ = [
    "EnergyParams", "EnergyReport", "energy_I", "pohozaev_J",
    "first_variation", "residuals", "project_pohozaev", "projected_energy",
    "energy_report", "newton", "morse_index",
]

NEWTON_MAX_ITER = 60
# `morse_index` counts eigenvalues below −INDEX_TOL only.  A state with
# relative PDE residual ε moves a zero mode by about ε (the cubic circle
# at β = 1, N = 4000), and `coupled.certify` accepts ε < 1e-5; a genuine
# crossing near the cubic threshold reads about 4|β − 1|.
INDEX_TOL = 1e-4


@dataclass(frozen=True)
class EnergyParams:
    """Problem data: the two nonlinearities and the coupling strength."""

    f: Nonlinearity
    g: Nonlinearity
    beta: float


@dataclass(frozen=True)
class EnergyReport:
    I: float
    J: float
    K: float
    W: float
    normH1_sq: float
    residual_u: float
    residual_v: float

    def lines(self) -> str:
        keys = ("I", "J", "K", "W", "normH1_sq", "residual_u", "residual_v")
        return "\n".join(f"{k}={format(getattr(self, k), '.17g')}" for k in keys)


def _terms(grid, u: np.ndarray, v: np.ndarray, params: EnergyParams):
    """(K, W) of node arrays: Dirichlet energy and well depth P − M/2."""
    du = u[1:] - u[:-1]
    dv = v[1:] - v[:-1]
    K = float(grid.flux @ (du * du)) + float(grid.flux @ (dv * dv))
    M = integrate(grid, u * u + v * v)
    P = integrate(grid, eval_F(params.f, u) + eval_F(params.g, v)
                  + 0.5 * params.beta * (u * u) * (v * v))
    return K, P - 0.5 * M


def energy_I(state: State, params: EnergyParams) -> float:
    K, W = _terms(state.grid, state.u.values, state.v.values, params)
    return 0.5 * K - W


def pohozaev_J(state: State, params: EnergyParams) -> float:
    K, W = _terms(state.grid, state.u.values, state.v.values, params)
    return 0.5 * K - 3.0 * W


def _variation(grid, u: np.ndarray, v: np.ndarray, params: EnergyParams,
               a: float = 1.0, b: float = 1.0):
    """Discrete a·(−Δ_h y) + b·(y − f(y) − β y·other²) on raw node arrays.

    With a = b = 1 it is the first variation of the action; the weights of
    Φ's gradient give `nlsground.coupled._phi_gradient`.  Interior nodes
    use the flux-form Laplacian (the exact adjoint of the discrete kinetic
    energy); the origin uses the symmetry-limit stencil; the Dirichlet
    node N carries no variation.
    """
    def one(y, other_sq, nl: Nonlinearity):
        source = y - eval_f(nl, y) - params.beta * y * other_sq
        out = np.empty(grid.N + 1)
        out[1:-1] = -a * flux_laplacian_interior(grid, y) + b * source[1:-1]
        out[0] = -a * 6.0 * (y[1] - y[0]) / grid.h ** 2 + b * source[0]
        out[-1] = 0.0
        return out

    return one(u, v * v, params.f), one(v, u * u, params.g)


def _laplacian_band(grid):
    """Bands of −Δ_h on nodes 0..N−1: (row i at node i, at i+1, row i+1 at i)."""
    fc, w, N = grid.flux, grid.w, grid.N
    diag = np.empty(N)
    diag[0] = 6.0 / grid.h ** 2
    diag[1:] = (fc[1:N] + fc[0:N - 1]) / w[1:N]
    upper = np.empty(N - 1)
    upper[0] = -6.0 / grid.h ** 2
    upper[1:] = -fc[1:N - 1] / w[1:N - 1]
    return diag, upper, -fc[0:N - 1] / w[1:N]


def morse_index(state: State, params: EnergyParams) -> int:
    """Number of eigenvalues below −INDEX_TOL of the action's Hessian.

    The unknowns are u and v on nodes 1..N−1 with the tie y_0 = y_1 (the
    descent's space): the flux between nodes 0 and 1 drops out, and node 0
    has no weight to fold into node 1 (w_0 = 0 at r = 0).  Per node the
    Hessian H is the `_laplacian_band` stiffness plus
    diag(w(1 − f′(u) − βv²)), the same for v, and the cross term −2βwuv.
    The eigenvalues are those of H y = λ W y against the mass matrix
    W = diag(w), which approximate the linearised operator's; by Sylvester
    those below −INDEX_TOL are the negative pivots of the block LDLᵀ
    recurrence of H + INDEX_TOL·W over the 2×2 node blocks.  A zero mode
    (the circle of cubic vector states at β = 1) is not counted.  A ground
    state has index 1.
    """
    gr = state.grid
    N, beta = gr.N, params.beta
    w = gr.w[1:N]
    u = state.u.values[1:N]
    v = state.v.values[1:N]
    diag, upper, _ = _laplacian_band(gr)
    stiff = w * diag[1:]
    stiff[0] = -w[0] * upper[1]             # the tie drops the flux to node 0
    pu = w * (1.0 + INDEX_TOL - eval_df(params.f, u) - beta * v * v)
    pv = w * (1.0 + INDEX_TOL - eval_df(params.g, v) - beta * u * u)
    pc = -2.0 * beta * w * u * v
    # node i couples to node i−1 by e·I₂ with e = −flux_{i−1}; node 1 has none
    e2 = np.zeros(N - 1)
    e2[1:] = np.square(w[:-1] * upper[1:])
    count = 0
    da = db = dc = 0.0
    det = 1.0
    # memoryviews hand the loop Python floats without list copies
    blocks = zip(memoryview(stiff + pu), memoryview(stiff + pv),
                 memoryview(pc), memoryview(e2))
    for a, b, c, s in blocks:
        # D_i = A_i − e² D_{i−1}^{−1}, with D^{−1} = [[b, −c], [−c, a]] / det
        s /= det
        a -= s * db
        b -= s * da
        c += s * dc
        det = a * b - c * c
        if det < 0.0:
            count += 1
        elif a < 0.0:
            count += 2
        da, db, dc = a, b, c
    return count


def first_variation(state: State, params: EnergyParams):
    """Pointwise L^2-gradient pair (-Δu + u - f(u) - βuv², same with u↔v, f→g)."""
    return _variation(state.grid, state.u.values, state.v.values, params)


def newton(grid, u: np.ndarray, v: np.ndarray, params: EnergyParams):
    """Damped Newton on the discrete system in (u, v); returns (u, v).

    The unknowns are nodes 0..N-1 of both components, interleaved (unknown
    2i is u_i, 2i+1 is v_i) so that the Jacobian of `_variation` is banded
    (2, 2); node N keeps the Dirichlet zero it comes with.  With v = 0 and
    β = 0 the v rows decouple and the iteration is the scalar polish of u.
    It runs to the roundoff floor of the residual (the 1/h² stencil
    amplifies cancellation noise, so no fixed absolute target is safe);
    the caller certifies the result.
    """
    N = grid.N
    n = 2 * N
    beta = params.beta
    # the Laplacian part of the Jacobian does not change between steps
    diag, upper, lower = _laplacian_band(grid)
    lap = np.zeros((5, n))
    lap[2, 0::2] = diag                 # A[2i, 2i]
    lap[2, 1::2] = diag                 # A[2i+1, 2i+1]
    lap[0, 2::2] = upper                # A[2i, 2i+2]
    lap[0, 3::2] = upper                # A[2i+1, 2i+3]
    lap[4, 0:n - 2:2] = lower           # A[2i+2, 2i]
    lap[4, 1:n - 2:2] = lower           # A[2i+3, 2i+1]

    def residual(uf, vf):
        ru, rv = _variation(grid, uf, vf, params)
        res = np.empty(n)
        res[0::2] = ru[:N]
        res[1::2] = rv[:N]
        return res

    res = residual(u, v)
    for _ in range(NEWTON_MAX_ITER):
        rn = float(np.sqrt(res @ res))
        umax = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 1.0)
        if rn <= 1e-12 * umax * math.sqrt(n):
            break
        ab = lap.copy()
        ab[2, 0::2] += 1.0 - eval_df(params.f, u[:N]) - beta * v[:N] ** 2
        ab[2, 1::2] += 1.0 - eval_df(params.g, v[:N]) - beta * u[:N] ** 2
        cross = -2.0 * beta * u[:N] * v[:N]
        ab[1, 1::2] = cross                 # A[2i, 2i+1]
        ab[3, 0:n - 1:2] = cross            # A[2i+1, 2i]
        step = solve_banded((2, 2), ab, res)
        lam = 1.0
        for _ in range(30):
            tu = u.copy()
            tv = v.copy()
            tu[:N] -= lam * step[0::2]
            tv[:N] -= lam * step[1::2]
            trial = residual(tu, tv)
            if float(np.linalg.norm(trial)) < rn:
                u, v, res = tu, tv, trial   # the next step's residual
                break
            lam *= 0.5
        else:
            break   # stalled at the floor; the caller's certificate decides
    return u, v


def _h1_norm(p: Profile) -> float:
    return math.sqrt(kinetic(p) + integrate(p.grid, p.values ** 2))


def residuals(state: State, params: EnergyParams) -> tuple[float, float]:
    """Relative weighted-L² norms of the two first-variation components."""
    gr = state.grid
    ru, rv = first_variation(state, params)
    nu = math.sqrt(integrate(gr, ru * ru)) / (1.0 + _h1_norm(state.u))
    nv = math.sqrt(integrate(gr, rv * rv)) / (1.0 + _h1_norm(state.v))
    return nu, nv


def project_pohozaev(state: State, params: EnergyParams) -> tuple[State, float]:
    """Dilate the state onto the constraint manifold; returns (state, t̄).

    t̄ = sqrt(K/(6W)) is the unique positive critical point of
    t ↦ (t/2)K − t³W.  Interpolation makes a single dilation miss J = 0 by
    O(h²), so the closed-form step is iterated; because dilating by 1 is
    the exact identity, the residual contracts by O(h²) per pass and two
    or three passes reach roundoff.  A state already on the manifold is
    returned unchanged with t̄ = 1.  Raises ZeroState for the origin and
    NoProjection off the cone of `_phi_value`, before any pass:
    interpolating a core narrower than h can lose W > 0.
    """
    K, W = _cone_terms(state.grid, state.u.values, state.v.values, params)
    tbar = 1.0
    for _ in range(12):
        t = math.sqrt(K / (6.0 * W))
        if t != 1.0:
            state = State(dilate(state.u, t), dilate(state.v, t))
            tbar *= t
        K, W = _cone_terms(state.grid, state.u.values, state.v.values, params)
        if abs(0.5 * K - 3.0 * W) <= 1e-12 * (1.0 + K):
            break
    return state, tbar


def _phi_value(K: float, W: float) -> float:
    """Φ on the cone 0 < W < ∞, 0 < t̄² = K/(6W) < ∞ (so 0 < K < ∞), else +∞."""
    if not (0.0 < W < math.inf and 0.0 < K / (6.0 * W) < math.inf):
        return math.inf
    return (K / 3.0) ** 1.5 / math.sqrt(2.0 * W)


def _cone_terms(grid, u: np.ndarray, v: np.ndarray, params: EnergyParams):
    """(K, W) of node arrays on the cone, where `_phi_value` is finite."""
    K, W = _terms(grid, u, v, params)
    if K == 0.0:    # the Dirichlet node and positive fluxes: only u = v = 0
        raise ZeroState("cannot project the zero state")
    if _phi_value(K, W) == math.inf:    # W = ∞ reads Φ = 0; t̄ = 0, ∞ cannot dilate
        raise NoProjection(f"K={K:.6g}, W={W:.6g}: off the cone 0 < W, t̄ < inf")
    return K, W


def projected_energy(state: State, params: EnergyParams) -> float:
    """Closed-form action after projection: (K/3)^{3/2} (2W)^{-1/2}.

    Dilation-invariant in exact arithmetic, since K scales like t and W
    like t³ along the ray.  Raises as `project_pohozaev` does.
    """
    return _phi_value(*_cone_terms(state.grid, state.u.values,
                                   state.v.values, params))


def energy_report(state: State, params: EnergyParams) -> EnergyReport:
    gr, u, v = state.grid, state.u.values, state.v.values
    K, W = _terms(gr, u, v, params)
    ru, rv = residuals(state, params)
    return EnergyReport(I=0.5 * K - W, J=0.5 * K - 3.0 * W, K=K, W=W,
                        normH1_sq=K + integrate(gr, u * u + v * v),
                        residual_u=ru, residual_v=rv)
