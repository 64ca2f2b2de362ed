"""Ground states of the coupled system by reduced-energy minimization.

The projected action Φ(u,v) = (K/3)^{3/2} (2W)^{-1/2} is the value of the
action at the unique Pohozaev point of the dilation ray through (u,v); it
is dilation-invariant, finite exactly on the cone W > 0, and its minimum
over that cone equals the constrained minimum over the manifold.  The
solver therefore runs an unconstrained preconditioned descent on Φ
(rejecting trial steps that leave the cone), projects the limit onto the
manifold by the closed-form dilation, polishes to the exact discrete
critical point with the damped Newton iteration on the full coupled system
(`nlsground.energy.newton`, the same one the scalar solver uses), and
projects once more — the last projection moves the state by O(J) and
restores J = 0 to roundoff while the Newton step has already made the PDE
residual tiny.  A descent candidate is kept only if `certify`, the one
a-posteriori certificate, accepts it; the CLI judges states with it too.

The weighted gradient of Φ is

    G_u = a·(−Δ_h u) + b·(u − f(u) − βuv²),  a = sqrt(K/(6W)),  b = Φ/(2W)

(and symmetrically for v); at any point of the manifold a = b = 1, so G
coincides with the PDE residual — criticality of Φ and of the action
agree there, which is the natural-constraint property in discrete form.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .energy import (EnergyParams, EnergyReport, _terms, energy_report, newton,
                     project_pohozaev, residuals)
from .errors import (CertificationFailure, InfeasibleStart, NegativeBeta,
                     NoConvergence, NoProjection, ZeroState)
from .grid import (Profile, RadialGrid, State, flux_laplacian_interior,
                   integrate, kinetic)
from .nonlinearity import eval_f
from .nonlinearity import eval_df  # noqa: F401  bound for perfbench tracer.PLAN
from .scalar import ScalarGroundState, ShootingConfig, solve_scalar

__all__ = ["SolveConfig", "GroundState", "Kind", "solve_coupled", "classify",
           "certify"]

STAGNATION_WINDOW = 50
STAGNATION_DELTA = 1e-12
CERT_TOL = 1e-6        # |J| and |I − K/3| against 1 + K
CERT_RESIDUAL = 1e-5   # each relative PDE residual
TIE_REL = 1e-12        # candidate energies this close count as equal


class Kind(enum.Enum):
    SCALAR_U = "scalar_u"
    SCALAR_V = "scalar_v"
    VECTOR = "vector"


class InitStrategy(enum.Enum):
    SCALAR_PAIR = "scalar_pair"
    PERTURBED_SCALAR = "perturbed_scalar"
    RANDOM_GAUSSIANS = "random_gaussians"
    ALL = "all"


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 20000
    grad_tol: float = 1e-7
    step: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    init_strategy: InitStrategy | str = InitStrategy.ALL
    classify_tol: float = 1e-6
    n_random: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("grad_tol", "step", "backtrack", "armijo", "classify_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if isinstance(self.init_strategy, str):
            object.__setattr__(self, "init_strategy",
                               InitStrategy(self.init_strategy))


@dataclass(frozen=True)
class GroundState:
    state: State
    m: float
    kind: Kind
    residuals: tuple[float, float]
    iterations: int


def classify(state: State, tol: float = 1e-6) -> Kind:
    """scalar_u / scalar_v when one component is vestigial, vector otherwise."""
    gr = state.grid
    u = state.u.values
    v = state.v.values
    nu = math.sqrt(integrate(gr, u * u))
    nv = math.sqrt(integrate(gr, v * v))
    if nu == 0.0 and nv == 0.0:
        raise ZeroState("cannot classify the zero state")
    total = math.sqrt(kinetic(state.u) + kinetic(state.v)
                      + nu * nu + nv * nv)
    if nv <= tol * total:
        return Kind.SCALAR_U
    if nu <= tol * total:
        return Kind.SCALAR_V
    return Kind.VECTOR


def certify(gs: GroundState | State, params: EnergyParams) -> EnergyReport:
    """Check the ground-state certificate of a `GroundState` or bare `State`.

    Recomputes all integrals; returns the energy report, or raises
    `CertificationFailure` naming the first clause violated.
    """
    state = gs.state if isinstance(gs, GroundState) else gs
    rep = energy_report(state, params)
    scale = CERT_TOL * (1.0 + rep.K)
    if not abs(rep.J) <= scale:
        raise CertificationFailure("pohozaev", f"|J|={abs(rep.J):.3e} > {scale:.3e}")
    if not abs(rep.I - rep.K / 3.0) <= scale:
        raise CertificationFailure(
            "energy_identity", f"|I-K/3|={abs(rep.I - rep.K / 3.0):.3e} > {scale:.3e}")
    if not (rep.residual_u < CERT_RESIDUAL and rep.residual_v < CERT_RESIDUAL):
        raise CertificationFailure("residual", f"({rep.residual_u:.3e}, "
                                   f"{rep.residual_v:.3e}) >= {CERT_RESIDUAL:g}")
    return rep


# ----------------------------------------------------------------------
# reduced objective: value and weighted gradient

def _phi_terms(state: State, params: EnergyParams):
    K, M, P = _terms(state, params)
    W = P - 0.5 * M
    return K, W


def _phi_value(K: float, W: float) -> float:
    return (K / 3.0) ** 1.5 / math.sqrt(2.0 * W)


def _phi_gradient(state: State, params: EnergyParams):
    """Weighted gradient pair of Φ; entries at nodes 0 and N are zero."""
    gr = state.grid
    u = state.u.values
    v = state.v.values
    K, W = _phi_terms(state, params)
    a = math.sqrt(K / (6.0 * W))
    b = _phi_value(K, W) / (2.0 * W)

    def component(y, other_sq, nl):
        g = np.zeros(gr.N + 1)
        g[1:-1] = (-a * flux_laplacian_interior(gr, y)
                   + b * (y - eval_f(nl, y) - params.beta * y * other_sq)[1:-1])
        return g

    gu = component(u, v * v, params.f)
    gv = component(v, u * u, params.g)
    return gu, gv, K, W


def _precondition(grid: RadialGrid, g: np.ndarray) -> np.ndarray:
    """Solve (I − Δ_h) d = g on nodes 1..N−1 with the center tie d_0 = d_1."""
    n = grid.N - 1
    fc = grid.flux
    w = grid.w
    ab = np.zeros((3, n))
    # unknowns d_1..d_{N-1}; the tie folds the fc_0 flux out of row 1
    ab[1, :] = 1.0 + (fc[1:grid.N] + fc[0:grid.N - 1]) / w[1:grid.N]
    ab[1, 0] = 1.0 + fc[1] / w[1]
    ab[0, 1:] = -fc[1:grid.N - 1] / w[1:grid.N - 1]
    ab[2, :-1] = -fc[1:grid.N - 1] / w[2:grid.N]
    d = np.zeros(grid.N + 1)
    d[1:-1] = solve_banded((1, 1), ab, g[1:-1])
    d[0] = d[1]
    return d


def _descend(state: State, params: EnergyParams, cfg: SolveConfig):
    """Armijo-backtracking descent on Φ; returns (state, iterations, grad).

    Stops on the gradient tolerance, on energy stagnation, or on gradient
    stagnation.  The latter catches the near-flat valley the discretization
    opens along the dilation ray: the continuum Φ is exactly ray-invariant,
    so the discrete objective keeps a residual slope ~h² there that descent
    can follow forever at a useless ~1e-11 per 50 iterations.  The Newton
    polish that follows eliminates that residual gradient entirely.
    """
    gr = state.grid
    u = state.u.values.copy()
    v = state.v.values.copy()
    u[0] = u[1]
    v[0] = v[1]
    st = State(Profile(gr, u), Profile(gr, v))
    K, W = _phi_terms(st, params)
    if W <= 0.0:
        raise InfeasibleStart("initial state has W <= 0")
    phi = _phi_value(K, W)
    history: list[float] = [phi]
    ghistory: list[float] = []
    it = 0
    gnorm = math.inf
    while it < cfg.max_iters:
        gu, gv, K, W = _phi_gradient(st, params)
        gnorm = math.sqrt(float(gr.w @ (gu * gu) + gr.w @ (gv * gv)))
        ghistory.append(gnorm)
        if gnorm <= cfg.grad_tol:
            break
        if (len(ghistory) > STAGNATION_WINDOW
                and abs(ghistory[-STAGNATION_WINDOW - 1] - gnorm)
                <= 1e-3 * gnorm):
            break
        du = _precondition(gr, gu)
        dv = _precondition(gr, gv)
        slope = float(gr.w @ (gu * du) + gr.w @ (gv * dv))
        s = cfg.step
        accepted = False
        for _ in range(60):
            tu = st.u.values - s * du
            tv = st.v.values - s * dv
            trial = State(Profile(gr, tu), Profile(gr, tv))
            Kt, Wt = _phi_terms(trial, params)
            if Wt > 0.0 and Kt > 0.0:
                pt = _phi_value(Kt, Wt)
                if pt <= phi - cfg.armijo * s * slope:
                    st, phi = trial, pt
                    accepted = True
                    break
            s *= cfg.backtrack
        it += 1
        if not accepted:
            break
        history.append(phi)
        if (len(history) > STAGNATION_WINDOW
                and history[-STAGNATION_WINDOW - 1] - phi
                < STAGNATION_DELTA * (1.0 + abs(phi))):
            break
    return st, it, gnorm


# ----------------------------------------------------------------------
# Newton polish of the full coupled discrete system

def _coupled_newton(state: State, params: EnergyParams) -> State:
    """Polish with the shared damped Newton of `nlsground.energy.newton`."""
    gr = state.grid
    u, v = newton(gr, state.u.values, state.v.values, params)
    return State(Profile(gr, u), Profile(gr, v))


# ----------------------------------------------------------------------
# multi-start driver

def _initial_states(params: EnergyParams, grid: RadialGrid, cfg: SolveConfig,
                    base_u: ScalarGroundState, base_v: ScalarGroundState):
    strat = cfg.init_strategy
    want = lambda s: strat is InitStrategy.ALL or strat is s
    inits: list[tuple[str, State]] = []
    u0 = base_u.profile.values
    v0 = base_v.profile.values
    if want(InitStrategy.SCALAR_PAIR):
        inits.append(("scalar_pair",
                      State(Profile(grid, u0), Profile(grid, v0))))
    if want(InitStrategy.PERTURBED_SCALAR):
        inits.append(("perturbed_scalar",
                      State(Profile(grid, 1.2 * u0), Profile(grid, 0.6 * v0))))
    if want(InitStrategy.RANDOM_GAUSSIANS):
        rng = np.random.default_rng(cfg.seed)
        for k in range(cfg.n_random):
            au, av = rng.uniform(1.5, 4.0, size=2)
            su, sv = rng.uniform(0.9, 2.0, size=2)
            pu = Profile.from_callable(grid, lambda r: au * np.exp(-r ** 2 / (2 * su ** 2)))
            pv = Profile.from_callable(grid, lambda r: av * np.exp(-r ** 2 / (2 * sv ** 2)))
            inits.append((f"random_{k}", State(pu, pv)))
    return inits


def _settle_on_manifold(state: State, params: EnergyParams) -> State:
    """Project onto J = 0 only when the state's own defect needs it.

    A polished discrete critical point carries J = O(h²)·(1+K) from
    quadrature alone.  When that defect already sits inside half the
    certification budget, dilating would *worsen* the state: the profile
    moves by O(t̄−1) and picks up a PDE residual ~10·|t̄−1| while J gains
    nothing that matters.  On coarse grids the defect exceeds the budget
    and the trade goes the other way.
    """
    K, M, P = _terms(state, params)
    J = 0.5 * K - 3.0 * (P - 0.5 * M)
    if abs(J) <= 0.5 * CERT_TOL * (1.0 + K):
        return state
    settled, _ = project_pohozaev(state, params)
    return settled


def _scalar_candidate(gs: ScalarGroundState, which: Kind, grid: RadialGrid,
                      params: EnergyParams) -> GroundState:
    zero = Profile.zero(grid)
    if which is Kind.SCALAR_U:
        st = State(gs.profile, zero)
    else:
        st = State(zero, gs.profile)
    st = _settle_on_manifold(st, params)
    K, M, P = _terms(st, params)
    ru, rv = residuals(st, params)
    return GroundState(state=st, m=0.5 * K + 0.5 * M - P, kind=which,
                       residuals=(ru, rv), iterations=0)


def solve_coupled(params: EnergyParams, grid: RadialGrid,
                  cfg: SolveConfig = SolveConfig(),
                  shooting: ShootingConfig = ShootingConfig(),
                  baselines: tuple[ScalarGroundState, ScalarGroundState] | None = None,
                  ) -> GroundState:
    """Lowest-energy state among scalar embeddings and coupled descent runs.

    `baselines` lets callers (the β sweep) reuse the scalar solves, which
    do not depend on β.
    """
    if not params.beta > 0.0:
        raise NegativeBeta(f"beta={params.beta}: need beta > 0")
    if baselines is None:
        base_u = solve_scalar(params.f, grid, shooting)
        base_v = (base_u if params.g == params.f
                  else solve_scalar(params.g, grid, shooting))
    else:
        base_u, base_v = baselines

    candidates: list[GroundState] = [
        _scalar_candidate(base_u, Kind.SCALAR_U, grid, params),
        _scalar_candidate(base_v, Kind.SCALAR_V, grid, params),
    ]

    inits = _initial_states(params, grid, cfg, base_u, base_v)
    feasible = 0
    converged = 0
    for _, init in inits:
        K, W = _phi_terms(init, params)
        if W <= 0.0:
            continue
        feasible += 1
        try:
            st, iters, gnorm = _descend(init, params, cfg)
            st, _ = project_pohozaev(st, params)
            st = _coupled_newton(st, params)
            st = _settle_on_manifold(st, params)
            rep = certify(st, params)
        except (NoConvergence, NoProjection, ZeroState, CertificationFailure):
            continue
        converged += 1
        candidates.append(GroundState(
            state=st, m=rep.I, kind=classify(st, cfg.classify_tol),
            residuals=(rep.residual_u, rep.residual_v), iterations=iters))
    if feasible == 0:
        raise InfeasibleStart("all initializations have W <= 0")
    if converged == 0:
        raise NoConvergence("no descent run reached the residual target")

    # deterministic reduction: energies within TIE_REL of the least tie (runs
    # that reach one state differ by roundoff); a tie prefers a vector state,
    # then scalar_u over its mirror image scalar_v, then the smaller residual
    m_min = min(c.m for c in candidates)
    tied = [c for c in candidates if c.m <= m_min + TIE_REL * (1.0 + abs(m_min))]
    return min(tied, key=lambda c: (c.kind is not Kind.VECTOR,
                                    c.kind is Kind.SCALAR_V, max(c.residuals)))
