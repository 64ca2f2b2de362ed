"""Ground states of the coupled system by reduced-energy minimization.

The projected action Φ(u,v) = (K/3)^{3/2} (2W)^{-1/2} is the value of the
action at the unique Pohozaev point of the dilation ray through (u,v); it
is dilation-invariant, finite exactly on the cone W > 0, and its minimum
over that cone equals the constrained minimum over the manifold.  The
solver therefore runs an unconstrained preconditioned descent on Φ
(rejecting trial steps that leave the cone), but only to find the basin:
it runs in rounds of 50 iterations, and after each round the iterate is
projected onto the manifold by the closed-form dilation, polished to the
exact discrete critical point with the damped Newton iteration on the
full coupled system (`nlsground.energy.newton`), and projected once more
— the last projection moves the state by O(J) and restores J = 0 to
roundoff while the Newton step has already made the PDE residual tiny.
A minimizer on the manifold has Morse index 1 in the radial space, so
`_candidate`, the one accept gate, takes a state that `certify`, the one
a-posteriori certificate, accepts and whose `nlsground.energy.morse_index`
is 1.  A start ends on the first handoff it takes; otherwise the next
round descends from the projected iterate, the start's one state: Φ is
flat along dilations, and without the projection the iterate drifts off
the grid's scale along them.  A start whose handoffs polish twice in a
row to one action (a saddle, or a state the grid is too coarse to
certify) ends there with no candidate, as does one whose round ends in
Armijo failure or whose `max_iters` runs out.  The two scalar embeddings
pass the same gate, a start that raises drops only itself, and the
lesser projected action Φ_h of the embeddings bounds the answer: a state
above it is rejected.  The CLI judges states with `certify` too.
`nlsground.scalar.solve_scalar` is one round of this on (w, 0).

The weighted gradient of Φ is

    G_u = a·(−Δ_h u) + b·(u − f(u) − βuv²),  a = sqrt(K/(6W)),  b = Φ/(2W)

(and symmetrically for v); at any point of the manifold a = b = 1, so G
coincides with the PDE residual — criticality of Φ and of the action
agree there, which is the natural-constraint property in discrete form.
It is `nlsground.energy._variation` with these weights; the descent's
(I − Δ_h) preconditioner is built from the same −Δ_h bands as the Newton
Jacobian.  Scaled by the quadrature weights it is symmetric positive
definite, so it is factored once per round without pivoting (LAPACK
`pttrf`) and applied once per iteration (`pttrs`).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401  bound for perfbench tracer.PLAN
from scipy.linalg.lapack import dpttrf, dpttrs

from .energy import (EnergyParams, EnergyReport, _laplacian_band, _phi_value,
                     _terms, _variation, energy_I, energy_report, morse_index,
                     newton, project_pohozaev, projected_energy)
from .energy import residuals  # noqa: F401  bound for perfbench tracer.PLAN
from .errors import (CertificationFailure, InfeasibleStart, NegativeBeta,
                     NoConvergence, NoProjection, NumericalError, ZeroState)
from .grid import Profile, RadialGrid, State, integrate, kinetic
from .nonlinearity import eval_df, eval_f  # noqa: F401  bound for perfbench tracer.PLAN
from .scalar import ScalarGroundState, solve_scalar

__all__ = ["SolveConfig", "GroundState", "Kind", "solve_coupled", "classify",
           "certify"]

ARMIJO = 1e-4          # sufficient-decrease fraction of the first-order slope
BACKTRACK = 0.5        # step shrink per rejected Armijo trial
CERT_TOL = 1e-6        # |J| and |I − K/3| against 1 + K
CERT_RESIDUAL = 1e-5   # each relative PDE residual
TIE_REL = 1e-12        # candidate energies this close count as equal
ROUND = 50             # descent iterations between Newton handoffs
N_RANDOM = 2           # random Gaussian starts


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
    init_strategy: InitStrategy | str = InitStrategy.ALL
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
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
# reduced objective: value and weighted gradient, on raw node arrays

def _phi_terms(grid, u: np.ndarray, v: np.ndarray, params: EnergyParams):
    K, M, P = _terms(grid, u, v, params)
    return K, P - 0.5 * M


def _phi_gradient(grid, u: np.ndarray, v: np.ndarray, params: EnergyParams,
                  K: float, W: float):
    """Weighted gradient pair of Φ at (u, v) with terms K, W; 0 at nodes 0, N."""
    a = math.sqrt(K / (6.0 * W))
    b = _phi_value(K, W) / (2.0 * W)
    gu, gv = _variation(grid, u, v, params, a, b)
    gu[0] = gv[0] = 0.0
    return gu, gv


def _factor_preconditioner(grid):
    """LDLᵀ factors of W(I − Δ_h) on nodes 1..N−1, for `_precondition`.

    W = diag(w) makes the flux stencil symmetric positive definite: row i's
    off-diagonals are both −flux_i.  The tie d_0 = d_1 cancels row 1's flux
    to node 0, which leaves row 1's Laplacian diagonal at −upper[1];
    d_N = 0 is the Dirichlet node.  Returns (w, d, e).
    """
    w = grid.w[1:grid.N]
    diag, upper, _ = _laplacian_band(grid)
    d = w * (1.0 + diag[1:])
    d[0] = w[0] * (1.0 - upper[1])
    d, e, info = dpttrf(d, w[:-1] * upper[1:])
    if info != 0:
        raise np.linalg.LinAlgError("matrix not positive definite")
    return w, d, e


def _precondition(factors, gu: np.ndarray, gv: np.ndarray):
    """Solve (I − Δ_h) d = g for both components as W(I − Δ_h) d = W g."""
    w, dd, e = factors
    rhs = np.empty((2, gu.size - 2))
    np.multiply(w, gu[1:-1], out=rhs[0])
    np.multiply(w, gv[1:-1], out=rhs[1])
    x, _ = dpttrs(dd, e, rhs.T, overwrite_b=1)   # rhs.T is Fortran-ordered
    d = np.zeros((2, gu.size))
    d[:, 1:-1] = x.T
    d[:, 0] = d[:, 1]
    return d[0], d[1]


def _descend(state: State, params: EnergyParams, max_iters: int):
    """One round of Armijo descent on Φ; returns (state, iterations, grad).

    Runs on raw node arrays and never leaves the cone 0 < K, W < ∞.  Stops
    after `max_iters` iterations, or sooner when no backtracked step gives
    sufficient decrease; `grad` is the weighted ‖G‖ last evaluated.
    """
    gr = state.grid
    u = state.u.values.copy()
    v = state.v.values.copy()
    u[0] = u[1]
    v[0] = v[1]
    K, W = _phi_terms(gr, u, v, params)
    phi = _phi_value(K, W)
    if phi == math.inf:
        raise InfeasibleStart("initial state lies off the cone 0 < K, W < inf")
    factors = _factor_preconditioner(gr)
    it = 0
    gnorm = math.inf
    while it < max_iters:
        gu, gv = _phi_gradient(gr, u, v, params, K, W)
        gnorm = math.sqrt(float(gr.w @ (gu * gu) + gr.w @ (gv * gv)))
        # ‖G‖ is not finite when G is not, or when G·G overflows: scan then
        if not math.isfinite(gnorm) and not (np.isfinite(gu).all()
                                             and np.isfinite(gv).all()):
            raise NoConvergence(f"non-finite descent gradient at iteration {it}")
        du, dv = _precondition(factors, gu, gv)
        slope = float(gr.w @ (gu * du) + gr.w @ (gv * dv))
        it += 1
        s = 1.0
        for _ in range(60):
            tu = u - s * du
            tv = v - s * dv
            Kt, Wt = _phi_terms(gr, tu, tv, params)
            pt = _phi_value(Kt, Wt)
            if pt <= phi - ARMIJO * s * slope:
                u, v, K, W, phi = tu, tv, Kt, Wt, pt
                break
            s *= BACKTRACK
        else:
            break   # no Armijo step
    return State(Profile(gr, u), Profile(gr, v)), it, gnorm


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
        for k in range(N_RANDOM):
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
    K, M, P = _terms(state.grid, state.u.values, state.v.values, params)
    J = 0.5 * K - 3.0 * (P - 0.5 * M)
    if abs(J) <= 0.5 * CERT_TOL * (1.0 + K):
        return state
    settled, _ = project_pohozaev(state, params)
    return settled


def _judge(state: State, params: EnergyParams, iterations: int) -> GroundState:
    """Settle, `certify` and `classify` a state; raises what they raise."""
    state = _settle_on_manifold(state, params)
    rep = certify(state, params)
    return GroundState(state=state, m=rep.I, kind=classify(state),
                       residuals=(rep.residual_u, rep.residual_v),
                       iterations=iterations)


def _candidate(state: State, params: EnergyParams, iterations: int):
    """The one accept gate: `_judge`, then Morse index 1.

    Returns (GroundState, "") or (None, the rejection: the certificate
    clause, the projection error or `Morse index k`).
    """
    try:
        gs = _judge(state, params, iterations)
    except (NoProjection, ZeroState, CertificationFailure) as exc:
        return None, str(exc)
    # on the manifold the dilation direction is negative: a saddle has ≥ 2
    index = morse_index(gs.state, params)
    if index != 1:
        return None, f"Morse index {index}"
    return gs, ""


def _run_start(init: State, params: EnergyParams, max_iters: int):
    """Descend from `init` in rounds of ROUND, handing each iterate to Newton.

    After each round the iterate is projected onto the manifold, and that
    projection is the start's one state: Newton polishes it, `_candidate`
    judges the polished state, and the next round descends from it.  An
    accepted state ends the start.  So do two handoffs in a row whose
    Newton outputs have one action (within TIE_REL, accepted or not): the
    descent keeps returning to a critical point that cannot win, a saddle
    (for f = g the Φ-flow keeps the symmetric subspace invariant, so the
    scalar pair never leaves it) or a state too coarse to certify.  A round
    cut short by Armijo failure, or `max_iters` in all, ends the start too:
    a projection breaks `_descend`'s tie y₀ = y₁, so a descent that cannot
    move still hands Newton a new state each round.  Returns (accepted
    state, "") or (None, the last rejection and the iteration count).
    """
    state, done = init, 0
    last = None
    while True:
        budget = min(ROUND, max_iters - done)
        state, iters, _ = _descend(state, params, budget)
        done += iters
        state, _ = project_pohozaev(state, params)
        polished = _coupled_newton(state, params)
        gs, reason = _candidate(polished, params, done)
        if gs is not None:
            return gs, ""
        m = energy_I(polished, params)
        if ((last is not None and abs(m - last) <= TIE_REL * (1.0 + abs(m)))
                or iters < budget or done >= max_iters):
            return None, f"{reason} after {done} iterations"
        last = m


def scalar_baselines(params: EnergyParams, grid: RadialGrid):
    """The scalar ground states of f and of g; g == f reuses the one solve."""
    base_u = solve_scalar(params.f, grid)
    return base_u, (base_u if params.g == params.f
                    else solve_scalar(params.g, grid))


def solve_coupled(params: EnergyParams, grid: RadialGrid,
                  cfg: SolveConfig = SolveConfig(),
                  baselines: tuple[ScalarGroundState, ScalarGroundState] | None = None,
                  ) -> GroundState:
    """Lowest-energy state among scalar embeddings and coupled descent runs.

    `_candidate` judges the two embeddings and every start's handoffs
    alike; a start that raises drops only itself.  The embeddings lie on
    rays that cross the manifold, so the lesser of their Φ_h bounds the
    ground level: a state above it (beyond TIE_REL) is rejected too.  When
    no run gives a state one `NoConvergence` names the grid and each run's
    reason.  β must be positive and finite; `baselines` lets callers (the
    β sweep) reuse the scalar solves, which do not depend on β.
    """
    if not 0.0 < params.beta < math.inf:
        raise NegativeBeta(f"beta={params.beta}: need 0 < beta < inf")
    base_u, base_v = baselines or scalar_baselines(params, grid)

    zero = Profile.zero(grid)
    embeddings = {"scalar_u": State(base_u.profile, zero),
                  "scalar_v": State(zero, base_v.profile)}
    runs = [(name, _candidate(e, params, 0)) for name, e in embeddings.items()]
    for name, init in _initial_states(params, grid, cfg, base_u, base_v):
        try:
            runs.append((name, _run_start(init, params, cfg.max_iters)))
        except (NumericalError, ZeroState) as exc:
            runs.append((name, (None, str(exc))))
    bound = min(projected_energy(e, params) for e in embeddings.values())
    for i, (name, (gs, _)) in enumerate(runs):
        if gs is not None and gs.m > bound + TIE_REL * (1.0 + abs(bound)):
            runs[i] = name, (None, f"m={gs.m:.10g} above the embeddings' "
                                   f"bound {bound:.10g}")
    candidates = [gs for _, (gs, _) in runs if gs is not None]
    if not candidates:
        raise NoConvergence(
            f"no certified state of Morse index 1 within the embeddings' bound "
            f"on N={grid.N}, h={grid.h:g} (under-resolved? refine N): "
            + "; ".join(f"{name}: {reason}" for name, (_, reason) in runs))

    # deterministic reduction: energies within TIE_REL of the least tie (runs
    # that reach one state differ by roundoff); a tie prefers a vector state,
    # then scalar_u over its mirror image scalar_v, then the smaller residual
    m_min = min(c.m for c in candidates)
    tied = [c for c in candidates if c.m <= m_min + TIE_REL * (1.0 + abs(m_min))]
    return min(tied, key=lambda c: (c.kind is not Kind.VECTOR,
                                    c.kind is Kind.SCALAR_V, max(c.residuals)))
