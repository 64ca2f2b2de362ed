"""Ground states of the coupled system by reduced-energy minimization.

The projected action Φ(u,v) = (K/3)^{3/2} (2W)^{-1/2} is the value of the
action at the unique Pohozaev point of the dilation ray through (u,v); it
is dilation-invariant, finite exactly on the cone W > 0, and its minimum
over that cone equals the constrained minimum over the manifold.  The
solver therefore runs an unconstrained preconditioned descent on Φ
(rejecting trial steps that leave the cone) from one start, the pair
(w_f, w_g) of scalar ground states, but only to find the basin: it runs
in rounds of 20 iterations, and after each round the iterate is projected
onto the manifold by the closed-form dilation, polished to the exact
discrete critical point with the damped Newton iteration on the
full coupled system (`nlsground.energy.newton`), and projected once more
— the last projection moves the state by O(J) and restores J = 0 to
roundoff while the Newton step has already made the PDE residual tiny.
A minimizer on the manifold has Morse index 1 in the radial space, so
`_candidate`, the one accept gate, takes a state that `certify`, the one
a-posteriori certificate, accepts and whose `nlsground.energy.morse_index`
is 1.  The start ends on the first handoff it takes; otherwise the next
round descends from the projected iterate, the start's one state: Φ is
flat along dilations, and without the projection the iterate drifts off
the grid's scale along them.  A start whose handoffs polish twice in a
row to one action (a saddle, or a state the grid is too coarse to
certify) ends there with no candidate, as does one whose round ends in
Armijo failure or whose `max_iters` runs out.  The two scalar embeddings
pass the same gate, but only when they can still win: the start runs
first, and an embedding whose settled action lies above the best
accepted state by more than TIE_REL is not judged.  A start that raises
drops only itself, and the lesser projected action Φ_h of the embeddings
bounds the answer: a state above it is rejected.  Below the coupling
threshold an embedding wins; above it, the state the descent reaches
from (w_f, w_g).  The CLI judges states with `certify` and `morse_index`
too.
`nlsground.scalar.solve_scalar` is one round of this on the one node
array (w,): the descent, the projection and the Newton polish take one
or two components, and the coupling is present only with two.

The weighted gradient of Φ is

    G_u = a·(−Δ_h u) + b·(u − f(u) − βuv²),  a = sqrt(K/(6W)),  b = Φ/(2W)

(and symmetrically for v, when there is one); at any point of the
manifold a = b = 1, so G coincides with the PDE residual — criticality
of Φ and of the action agree there, which is the natural-constraint
property in discrete form.
It is `nlsground.energy._variation` with these weights; the descent's
(I − Δ_h) preconditioner is built from the same −Δ_h bands as the Newton
Jacobian.  Scaled by the quadrature weights it is symmetric positive
definite, so it is factored once per round without pivoting (LAPACK
`pttrf`) and applied once per iteration (`pttrs`, one right-hand side
per component).  Each point of a round is evaluated once: the iterate
and the Armijo trial are two `nlsground.energy._Point`s swapped on
acceptance, the gradient reads what the accepted trial's `_terms`
formed.  For f = g a pair whose two components are one array to the
bit (the scalar pair, which the Φ-flow keeps symmetric) is evaluated
once: the descent runs on that one array with the pair's arithmetic.
`_judge` forms the (K, W) of the state it judges, and takes the action
of a state that settles without dilating from them.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dpttrf, dpttrs
from ._lapack import solve_banded  # noqa: F401  bound for perfbench tracer.PLAN
from .energy import (EnergyParams, EnergyReport, _carve, _cone_terms,
                     _laplacian_band, _phi_value, _Point, _terms, _variation,
                     _Work, energy_I, energy_report, morse_index, newton,
                     project_pohozaev, projected_energy)
from .energy import residuals  # noqa: F401  bound for perfbench tracer.PLAN
from .errors import (CertificationFailure, NegativeBeta, NoConvergence,
                     NoProjection, NumericalError, ZeroState)
from .grid import Profile, RadialGrid, State, integrate, kinetic
from .nonlinearity import eval_df, eval_f  # noqa: F401  bound for perfbench tracer.PLAN
from .scalar import ScalarGroundState, solve_scalar

__all__ = ["SolveConfig", "GroundState", "Kind", "solve_coupled", "classify",
           "certify"]

ARMIJO = 1e-4          # sufficient-decrease fraction of the first-order slope
BACKTRACK = 0.5        # step shrink per rejected Armijo trial
CERT_TOL = 1e-6        # |J| against 1 + K
CERT_RESIDUAL = 1e-5   # each relative PDE residual
TIE_REL = 1e-12        # candidate energies this close count as equal
ROUND = 20             # descent iterations between Newton handoffs
VESTIGE_TOL = 1e-6     # L² norm of a vestigial component against the H¹ norm


class Kind(enum.Enum):
    SCALAR_U = "scalar_u"
    SCALAR_V = "scalar_v"
    VECTOR = "vector"


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 20000
    seed: int = 0      # validated, but no start is random: it has no effect

    def __post_init__(self):
        for name, low in (("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class GroundState:
    state: State
    m: float
    kind: Kind
    residuals: tuple[float, float]
    iterations: int


def classify(state: State) -> Kind:
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
    if nv <= VESTIGE_TOL * total:
        return Kind.SCALAR_U
    if nu <= VESTIGE_TOL * total:
        return Kind.SCALAR_V
    return Kind.VECTOR


def certify(gs: GroundState | State, params: EnergyParams) -> EnergyReport:
    """Check the ground-state certificate of a `GroundState` or bare `State`:
    |J| ≤ 1e-6(1+K), which bounds |I − K/3| = |J|/3; residuals < 1e-5.

    Recomputes all integrals; returns the energy report, or raises
    `CertificationFailure` naming the first clause violated.
    """
    state = gs.state if isinstance(gs, GroundState) else gs
    rep = energy_report(state, params)
    # the trivial solution meets every clause below, and so does a state
    # that is zero on every node of positive weight (M = 0, but K > 0)
    M = rep.normH1_sq - rep.K
    if rep.K == 0.0 or M == 0.0:
        raise CertificationFailure("nontrivial", f"K={rep.K:.3e}, M={M:.3e}: "
                                   "zero on every weighted node")
    scale = CERT_TOL * (1.0 + rep.K)
    if not abs(rep.J) <= scale:
        raise CertificationFailure("pohozaev", f"|J|={abs(rep.J):.3e} > {scale:.3e}")
    if not (rep.residual_u < CERT_RESIDUAL and rep.residual_v < CERT_RESIDUAL):
        raise CertificationFailure("residual", f"({rep.residual_u:.3e}, "
                                   f"{rep.residual_v:.3e}) >= {CERT_RESIDUAL:g}")
    return rep


# ----------------------------------------------------------------------
# reduced objective: value and weighted gradient, on raw node arrays

def _phi_gradient(grid, ys, params: EnergyParams, K: float, W: float):
    """Weighted gradient of Φ at node arrays `ys` with terms K, W, one array
    per component; 0 at nodes 0, N.

    A `_Point` whose `_terms` gave K, W is not formed again: the gradient
    reads its kept pieces and is written into its buffers.
    """
    a = math.sqrt(K / (6.0 * W))
    b = _phi_value(K, W) / (2.0 * W)
    gs = _variation(grid, ys, params, a, b, formed=True)
    for g in gs:
        g[0] = 0.0
    return gs


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


def _precondition(factors, gs):
    """Solve (I − Δ_h) d = g for each component as W(I − Δ_h) d = W g."""
    w, dd, e = factors
    rhs = np.array([w * g[1:-1] for g in gs])
    x, _ = dpttrs(dd, e, rhs.T, overwrite_b=1)   # rhs.T is Fortran-ordered
    out = np.empty((len(gs), gs[0].size))
    out[:, 1:-1] = x.T
    out[:, 0] = out[:, 1]
    out[:, -1] = 0.0
    return tuple(out)


def _descend(grid, ys, params: EnergyParams, max_iters: int):
    """One round of Armijo descent on Φ; returns (ys, iterations).

    Runs on the node arrays `ys`, (u, v) or (w,), from a start on the cone
    (else `_cone_terms` raises) and never leaves it.  Stops after
    `max_iters` iterations, or when no backtracked step decreases enough;
    a gradient G that is not finite raises `NoConvergence`.  The iterate
    and the Armijo trial are two `_Point`s, swapped on acceptance, so each
    state is evaluated once: its gradient reuses what its trial's `_terms`
    formed.  For f = g a pair whose arrays are one array to the bit (so
    never ±0 apart) is a mirror: the round runs on that one array, with
    the pair's arithmetic, and returns two equal arrays.
    """
    mirror = (len(ys) == 2 and params.f == params.g
              and ys[0].tobytes() == ys[1].tobytes())
    c, size = len(ys) - mirror, grid.N + 1
    *arrays, prod = _carve(size, 2 * c + 1)
    cur = _Point(tuple(arrays[:c]), _Work(grid, params, c, mirror=mirror))
    trial = _Point(tuple(arrays[c:]),
                   _Work(grid, params, c, share=cur.work, mirror=mirror))
    for y, start in zip(cur, ys):
        np.copyto(y, start)
        y[0] = y[1]
    K, W = _cone_terms(grid, cur, params)
    phi = _phi_value(K, W)
    factors = _factor_preconditioner(grid)
    it = 0
    while it < max_iters:
        gs = _phi_gradient(grid, cur, params, K, W)
        if not all(np.isfinite(g).all() for g in gs):
            raise NoConvergence(f"non-finite descent gradient at iteration {it}")
        ds = _precondition(factors, gs)
        slope = float(sum([grid.w @ np.multiply(g, dk, out=prod)
                           for g, dk in zip(gs, ds)] * (1 + mirror)))
        it += 1
        s = 1.0
        for _ in range(60):
            for y, dk, t in zip(cur, ds, trial):
                np.subtract(y, np.multiply(s, dk, out=t), out=t)
            Kt, Wt = _terms(grid, trial, params)
            pt = _phi_value(Kt, Wt)
            if pt <= phi - ARMIJO * s * slope:
                cur, trial = trial, cur
                K, W, phi = Kt, Wt, pt
                break
            s *= BACKTRACK
        else:
            break   # no Armijo step
    if mirror:
        return (cur[0], cur[0].copy()), it
    return tuple(cur), it


# ----------------------------------------------------------------------
# Newton polish of the full coupled discrete system

def _coupled_newton(state: State, params: EnergyParams) -> State:
    """Polish with the shared damped Newton of `nlsground.energy.newton`."""
    gr = state.grid
    u, v = newton(gr, state.values, params)
    return State(Profile(gr, u), Profile(gr, v))


# ----------------------------------------------------------------------
# driver

def _initial_states(base_u: ScalarGroundState, base_v: ScalarGroundState):
    """The named descent starts: the one scalar pair (w_f, w_g)."""
    return [("scalar_pair", State(base_u.profile, base_v.profile))]


def _settle_on_manifold(state: State, params: EnergyParams, K: float,
                        W: float) -> State:
    """Project onto J = 0 only when the state's own defect needs it.

    K, W are the state's `_terms`.  A polished discrete critical point
    carries J = O(h²)·(1+K) from quadrature alone.  When that defect
    already sits inside half the certification budget, dilating would
    *worsen* the state: the profile moves by O(t̄−1) and picks up a PDE
    residual ~10·|t̄−1| while J gains nothing that matters.  On coarse
    grids the defect exceeds the budget and the trade goes the other way.
    """
    if abs(0.5 * K - 3.0 * W) <= 0.5 * CERT_TOL * (1.0 + K):
        return state
    return project_pohozaev(state, params)[0]


def _judge(state: State, params: EnergyParams, iterations: int,
           ceiling: float = math.inf) -> GroundState | None:
    """Settle, `certify` and `classify` a state; raises what they raise.

    A settled state whose action lies above `ceiling` is returned as None,
    before `certify` runs.
    """
    K, W = _terms(state.grid, state.values, params)
    settled = _settle_on_manifold(state, params, K, W)
    if ceiling < math.inf:
        m = 0.5 * K - W if settled is state else energy_I(settled, params)
        if m > ceiling:
            return None
    rep = certify(settled, params)
    return GroundState(state=settled, m=rep.I, kind=classify(settled),
                       residuals=(rep.residual_u, rep.residual_v),
                       iterations=iterations)


def _candidate(state: State, params: EnergyParams, iterations: int,
               ceiling: float = math.inf):
    """The one accept gate: `_judge`, then Morse index 1.

    Returns (GroundState, "") or (None, the rejection: the certificate
    clause, the projection error, `Morse index k`, or `cannot win` for a
    settled action above `ceiling`).
    """
    try:
        gs = _judge(state, params, iterations, ceiling)
    except (NoProjection, CertificationFailure) as exc:
        return None, str(exc)
    if gs is None:
        return None, "cannot win"
    # on the manifold the dilation direction is negative: a saddle has ≥ 2
    index = morse_index(gs.state.grid, gs.state.values, params)
    if index != 1:
        return None, f"Morse index {index}"
    return gs, ""


def _tie_limit(m: float) -> float:
    """The largest action that ties with m: within TIE_REL·(1 + |m|)."""
    return m + TIE_REL * (1.0 + abs(m))


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
    gr = init.grid
    state, done = init, 0
    last = None
    while True:
        budget = min(ROUND, max_iters - done)
        (u, v), iters = _descend(gr, state.values, params, budget)
        done += iters
        state, _ = project_pohozaev(State(Profile(gr, u), Profile(gr, v)),
                                    params)
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
    """Lowest-energy state among the scalar embeddings and the descent run.

    `_candidate` judges the start's handoffs and then the two embeddings
    alike; a start that raises drops only itself.  An embedding whose
    settled action lies above the best accepted state so far, beyond
    TIE_REL, can neither win nor tie and is not judged, so the answer is
    the one a judgement of every run gives.  The embeddings lie on rays
    that cross the manifold, so the lesser of their Φ_h bounds the ground
    level: a state above it (beyond TIE_REL) is rejected too.  When no run
    gives a state one `NoConvergence` names the grid and each run's
    reason.  β must be positive and finite; `baselines` lets callers (the
    β sweep) reuse the scalar solves, which do not depend on β.
    """
    if not 0.0 < params.beta < math.inf:
        raise NegativeBeta(f"beta={params.beta}: need 0 < beta < inf")
    base_u, base_v = baselines or scalar_baselines(params, grid)

    zero = Profile.zero(grid)
    embeddings = {"scalar_u": State(base_u.profile, zero),
                  "scalar_v": State(zero, base_v.profile)}
    bound = min(projected_energy(e, params) for e in embeddings.values())
    runs = dict.fromkeys(embeddings)    # the order the reasons are listed in
    best = math.inf

    def enter(name, out):
        nonlocal best
        gs, _ = out
        if gs is not None and gs.m > _tie_limit(bound):
            out = None, f"m={gs.m:.10g} above the embeddings' bound {bound:.10g}"
        elif gs is not None:
            best = min(best, gs.m)
        runs[name] = out

    for name, init in _initial_states(base_u, base_v):
        try:
            enter(name, _run_start(init, params, cfg.max_iters))
        except (NumericalError, ZeroState) as exc:
            enter(name, (None, str(exc)))
    # an embedding whose settled action lies above the best state so far,
    # beyond TIE_REL, can neither win nor tie: it is not judged
    for name, e in embeddings.items():
        enter(name, _candidate(e, params, 0, _tie_limit(best)))
    candidates = [gs for gs, _ in runs.values() if gs is not None]
    if not candidates:
        raise NoConvergence(
            f"no certified state of Morse index 1 within the embeddings' bound "
            f"on N={grid.N}, h={grid.h:g} (under-resolved? refine N): "
            + "; ".join(f"{name}: {reason}" for name, (_, reason) in runs.items()))

    # deterministic reduction: energies within TIE_REL of the least tie (runs
    # that reach one state differ by roundoff); a tie prefers a vector state,
    # then scalar_u over its mirror image scalar_v, then fewer iterations
    # (an embedding over the start that polished to it), then the smaller
    # residual
    m_min = min(c.m for c in candidates)
    tied = [c for c in candidates if c.m <= _tie_limit(m_min)]
    return min(tied, key=lambda c: (c.kind is not Kind.VECTOR,
                                    c.kind is Kind.SCALAR_V, c.iterations,
                                    max(c.residuals)))
