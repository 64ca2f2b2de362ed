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
variation, the −Δ_h bands of its Jacobian, the damped `newton` polish and
the `morse_index` of the action's Hessian.  It reads a state as a tuple of
one or two node arrays: (u, v) for the coupled system, (w,) for the scalar
equation, which is the coupled one at v = 0 and β = 0 with the absent
component's terms dropped.  The β·u²v² coupling is present only when there
are two, or one whose `_Work` mirrors the pair (y, y).  Both
linear-algebra kernels hand LAPACK a band in its own Fortran storage:
`gbsv` for the Newton step and `pbtrf` for the index.
`nlsground.coupled.certify` judges its states.

A state is evaluated in a `_Work`, buffers allocated once per call: `_form`
writes each component's Δy, y² and nonlinearity piece there, `_terms` and
`_variation` read them, and a `_Point` (the node arrays tagged with their
work) lets `_variation` reuse what `_terms` formed at the same state.  The
descent, `newton` and the projection each allocate their works once.  The
rounding is that of the forms that build every array afresh, which
`tests/conftest.py` keeps: the same operations in the same order, less
products by 1 and |y|² read as y·y, which are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._lapack import dgbsv, dpbtrf
from .errors import NoConvergence, NoProjection, ZeroState
from .grid import (Profile, State, _flux_laplacian, dilate_values, integrate,
                   kinetic)
from .nonlinearity import (Nonlinearity, _force, _potential, _shared,
                           _shared_buffers, _stiffness, eval_df)
from .nonlinearity import eval_F, eval_f  # noqa: F401  bound for perfbench tracer.PLAN

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
        return "\n".join(f"{f.name}={format(getattr(self, f.name), '.17g')}"
                         for f in fields(self))


def _carve(n: int, count: int, from_one: int = 0):
    """`count` empty float arrays of length n, then `from_one` more, cut
    from one allocation: element 0 of the first ones, element 1 of the
    others, starts a 64-byte line.

    numpy's vector loops store whole lines there; an output that straddles
    them takes about twice as long.
    """
    stride = (n + 15) // 8 * 8             # whole lines, with room to shift
    rows = count + from_one
    raw = np.empty(rows * stride + 8)
    skip = -(raw.ctypes.data // 8) % 8
    block = raw[skip:skip + rows * stride].reshape(rows, stride)
    return list(block[:count, :n]) + list(block[count:, 7:7 + n])


class _Work:
    """The buffers one state of c components is evaluated in.

    `_form` writes each component's Δy, y² and `_shared` piece here, which
    `_terms` and `_variation` then read.  `var` receives the variation and
    the rest is scratch that each evaluation overwrites; a work made with
    `share` uses that work's, so two points of one call (an iterate and
    its trial) hold only their own pieces.  With `mirror` (f = g) its one
    component stands for the pair (y, y): it is evaluated once, and the
    pair's sums add that one term twice, in the pair's order.
    """

    def __init__(self, grid, params: EnergyParams, c: int,
                 share: _Work | None = None, mirror: bool = False):
        N, self.mirror = grid.N, mirror
        nls = (params.f, params.g)[:c]
        if share is None:
            rows = _carve(N + 1, 2 * c + 7, c)    # var is written from node 1
            (flux_dy, self.src, self.P, self.M, self.t1, self.t2,
             self.t3) = rows[2 * c:2 * c + 7]
            self.flux_dy, self.var = flux_dy[:N], rows[2 * c + 7:]
        else:
            rows = _carve(N + 1, 2 * c)
            for name in ("var", "flux_dy", "src", "P", "M", "t1", "t2", "t3"):
                setattr(self, name, getattr(share, name))
        self.dy = [row[:N] for row in rows[:c]]
        self.y2 = rows[c:2 * c]
        self.shared = [_shared_buffers(nl, lambda: np.empty(N + 1))
                       for nl in nls]
        self.pieces = [None for _ in nls]


class _Point(tuple):
    """Node arrays (u, v) or (w,) that carry the `_Work` they are evaluated
    in; anything that reads a tuple of node arrays reads one."""

    def __new__(cls, ys, work: _Work):
        point = super().__new__(cls, ys)
        point.work = work
        return point


def _work_of(grid, ys, params: EnergyParams) -> _Work:
    """The `_Work` a `_Point` carries; fresh buffers for bare arrays."""
    return ys.work if isinstance(ys, _Point) else _Work(grid, params, len(ys))


def _form(ys, params: EnergyParams, work: _Work):
    """Δy, y² and the `_shared` piece of each component, into `work`."""
    for k, (y, nl) in enumerate(zip(ys, (params.f, params.g))):
        np.subtract(y[1:], y[:-1], out=work.dy[k])
        np.multiply(y, y, out=work.y2[k])
        work.pieces[k] = _shared(nl, y, work.y2[k], work.shared[k])


def _terms(grid, ys, params: EnergyParams):
    """(K, W) of node arrays (u, v) or (w,): Dirichlet energy, well depth
    P − M/2.

    A `_Point`'s work keeps what this forms, for `_variation` at the same
    state.
    """
    work = _work_of(grid, ys, params)
    _form(ys, params, work)
    ks = [float(grid.flux @ np.multiply(dy, dy, out=work.flux_dy))
          for dy in work.dy]
    K = sum(ks * (1 + work.mirror))
    u2 = work.y2[0]
    P = _potential(params.f, ys[0], u2, work.pieces[0], work.P, (work.t1,))
    M = u2
    if len(ys) == 2 or work.mirror:
        v2 = work.y2[-1]
        P += P if work.mirror else _potential(
            params.g, ys[1], v2, work.pieces[1], work.t1, (work.t2,))
        coupling = np.multiply(0.5 * params.beta, u2, out=work.t1)
        coupling *= v2
        P += coupling
        M = np.add(u2, v2, out=work.M)
    return K, integrate(grid, P) - 0.5 * integrate(grid, M)


def energy_I(state: State, params: EnergyParams) -> float:
    K, W = _terms(state.grid, state.values, params)
    return 0.5 * K - W


def pohozaev_J(state: State, params: EnergyParams) -> float:
    K, W = _terms(state.grid, state.values, params)
    return 0.5 * K - 3.0 * W


def _variation(grid, ys, params: EnergyParams, a: float = 1.0, b: float = 1.0,
               formed: bool = False):
    """Discrete a·(−Δ_h y) + b·(y − f(y) − β y·other²) for each y of `ys`.

    With a = b = 1 it is the first variation of the action; the weights of
    Φ's gradient give `nlsground.coupled._phi_gradient`.  Interior nodes
    use the flux-form Laplacian (the exact adjoint of the discrete kinetic
    energy); the origin uses the symmetry-limit stencil; the Dirichlet
    node N carries no variation.  Returns one array per component, the
    work's `var` buffers (fresh ones for bare arrays); with `formed` a
    `_Point` reuses the pieces that `_terms` formed at it.
    """
    work = _work_of(grid, ys, params)
    if not (formed and isinstance(ys, _Point)):
        _form(ys, params, work)
    for k, (y, nl) in enumerate(zip(ys, (params.f, params.g))):
        source = _force(nl, y, work.y2[k], work.pieces[k], work.src,
                        (work.t1, work.t2))
        np.subtract(y, source, out=source)
        if len(ys) == 2 or work.mirror:
            pull = np.multiply(params.beta, y, out=work.t1)
            pull *= work.y2[-1 - k]         # the other's, or a mirror's own
            source -= pull
        var = work.var[k]
        lap = _flux_laplacian(grid, work.dy[k], var[1:-1], work.flux_dy)
        lap *= -a
        source *= b
        lap += source[1:-1]
        var[0] = -a * 6.0 * (y[1] - y[0]) / grid.r[1] ** 2 + source[0]
        var[-1] = 0.0
    return tuple(work.var)


def _laplacian_band(grid):
    """Bands of −Δ_h on nodes 0..N−1: (row i at node i, at i+1, row i+1 at i)."""
    fc, w, N = grid.flux, grid.w, grid.N
    diag = np.empty(N)
    diag[0] = 6.0 / grid.r[1] ** 2
    diag[1:] = (fc[1:N] + fc[0:N - 1]) / w[1:N]
    upper = np.empty(N - 1)
    upper[0] = -6.0 / grid.r[1] ** 2
    upper[1:] = -fc[1:N - 1] / w[1:N - 1]
    return diag, upper, -fc[0:N - 1] / w[1:N]


def morse_index(grid, ys, params: EnergyParams) -> int:
    """Number of eigenvalues below −INDEX_TOL of the action's Hessian at `ys`.

    `ys` holds the node arrays (u, v), or (w,) for the scalar action.  The
    unknowns are each component on nodes 1..N−1 with the tie y_0 = y_1
    (the descent's space): the flux between nodes 0 and 1 drops out, and
    node 0 has no weight to fold into node 1 (w_0 = 0 at r = 0).  Per node
    the Hessian H is the `_laplacian_band` stiffness plus
    diag(w(1 − f′(u) − βv²)), the same for v, and the cross term −2βwuv;
    interleaved as in `newton` it is a band of half-width c, the component
    count.  The eigenvalues are those of H y = λ W y against the mass
    matrix W = diag(w), which approximate the linearised operator's; by
    Sylvester those below −INDEX_TOL are the non-positive pivots of
    H + INDEX_TOL·W, which `_count_nonpositive_pivots` counts with LAPACK
    `pbtrf`.  A zero mode (the circle of cubic vector states at β = 1) is
    not counted.  A ground state has index 1.
    """
    N, c, beta = grid.N, len(ys), params.beta
    w = grid.w[1:N]
    diag, upper, _ = _laplacian_band(grid)
    stiff = w * diag[1:]
    stiff[0] = -w[0] * upper[1]             # the tie drops the flux to node 0
    n = c * (N - 1)
    # pbtrf's lower band storage, Fortran-ordered: A[j + k, j] is row k
    band = np.zeros((c + 1, n), order="F")
    band[c, :n - c] = np.repeat(w[:-1] * upper[1:], c)  # node i to node i+1
    shift = 1.0 + INDEX_TOL
    for k, (y, nl) in enumerate(zip(ys, (params.f, params.g))):
        pivot = shift - eval_df(nl, y)
        if c == 2:
            pivot -= beta * ys[1 - k] * ys[1 - k]
        pivot *= grid.w
        np.add(stiff, pivot[1:N], out=band[0, k::c])
    if c == 2:
        cross = -2.0 * beta * grid.w * ys[0] * ys[1]
        band[1, 0::2] = cross[1:N]          # u to v at one node
    return _count_nonpositive_pivots(band)


def _count_nonpositive_pivots(band) -> int:
    """Non-positive pivots of a symmetric band matrix, each counted once.

    `band` is the lower triangle in LAPACK's Fortran band storage (row k
    the k-th subdiagonal, half-width kd = rows − 1); it is overwritten.
    pbtrf's Cholesky stops at the first pivot d ≤ 0 and leaves the Schur
    complement of the rows before it in the trailing band.  One Schur step
    on a dense copy of the next 3kd + 1 rows (those it updates, up to 2kd,
    and their band) eliminates the pivot: d < 0 on its own; d = 0 with the
    first row m it couples to, a 2×2 pivot [[0, s], [s, a]] with one
    negative eigenvalue (the −∞ pivot that follows a zero one in LDLᵀ), or
    alone, inverse 0, when it couples to none.  pbtrf restarts on the band
    the result is written back to.  By Sylvester's law the count is that of
    the eigenvalues ≤ 0.
    """
    kd = band.shape[0] - 1
    count = 0
    while band.shape[1]:
        band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info == 0:
            break
        count += 1
        band = band[:, info - 1:]           # the trailing Schur complement
        size = min(3 * kd + 1, band.shape[1])
        block = sum(np.diag(band[k, :size - k], -k)
                    for k in range(min(kd + 1, size)))
        block += np.tril(block, -1).T
        d, coupled = block[0, 0], np.flatnonzero(block[0, 1:]) + 1
        if d < 0.0 or not coupled.size:
            piv, inv = [0], [[1.0 / d if d < 0.0 else 0.0]]
        else:
            m = coupled[0]
            s, a = block[m, 0], block[m, m]
            piv, inv = [0, m], [[-a / s / s, 1.0 / s], [1.0 / s, 0.0]]
        rest = [r for r in range(size) if r not in piv]
        cross = block[np.ix_(rest, piv)]
        # Σ x_a·inv_ab·x_b, a then b: a matrix product rounds differently
        schur = block[np.ix_(rest, rest)] - sum(
            np.outer(cross[:, b], cross[:, a] * inv[a][b])
            for a in range(len(piv)) for b in range(len(piv)))
        band = band[:, len(piv):]
        for k in range(min(kd + 1, len(rest))):
            band[k, :len(rest) - k] = np.diagonal(schur, -k)
    return count


def first_variation(state: State, params: EnergyParams):
    """Pointwise L^2-gradient pair (-Δu + u - f(u) - βuv², same with u↔v, f→g)."""
    return _variation(state.grid, state.values, params)


def newton(grid, ys, params: EnergyParams):
    """Damped Newton on the discrete system in `ys`, (u, v) or (w,).

    The unknowns are nodes 0..N-1 of the c components, interleaved (unknown
    c·i + k is component k at node i) so that the Jacobian of `_variation`
    is banded (c, c): pentadiagonal for (u, v), tridiagonal for (w,).  Each
    step is LAPACK `gbsv` on a band built in its own Fortran-ordered
    storage, which f2py passes without a transposed copy.  Node N keeps the
    Dirichlet zero it comes with.  It runs to the roundoff floor of the
    residual (the 1/h² stencil amplifies cancellation noise, so no fixed
    absolute target is safe); the caller certifies the result.  Returns a
    tuple of the polished arrays; the caller's `ys` is never written.  A
    singular step raises `NoConvergence`.
    """
    N = grid.N
    c = len(ys)
    n = c * N
    beta = params.beta
    # the Laplacian part of the Jacobian does not change between steps;
    # A[i, j] is row 2c + i − j, below gbsv's c rows of fill-in
    diag, upper, lower = _laplacian_band(grid)
    lap = np.zeros((3 * c + 1, n), order="F")
    for k in range(c):
        lap[2 * c, k::c] = diag                 # A[ci+k, ci+k]
        lap[c, c + k::c] = upper                # A[ci+k, c(i+1)+k]
        lap[3 * c, k:n - c:c] = lower           # A[c(i+1)+k, ci+k]

    ab = np.empty_like(lap)

    def residual(point, out):
        for k, r in enumerate(_variation(grid, point, params)):
            out[k::c] = r[:N]
        return out

    cur = _Point(ys, _Work(grid, params, c))
    spare = _Work(grid, params, c, share=cur.work)
    res, tres = _carve(n, 2)
    res = residual(cur, res)
    for _ in range(NEWTON_MAX_ITER):
        rn = float(np.sqrt(res @ res))
        ymax = max([float(np.max(np.abs(y, out=cur.work.t1))) for y in cur]
                   + [1.0])
        if rn <= 1e-12 * ymax * math.sqrt(n):
            break
        np.copyto(ab, lap)
        # 1 − f′ at the iterate, from the pieces its residual formed
        work = cur.work
        jac = [np.subtract(1.0, _stiffness(nl, y, work.y2[k], work.pieces[k],
                                           out, (work.t1, work.t2, work.t3)),
                           out=out)[:N]
               for k, (y, nl, out) in enumerate(zip(cur, (params.f, params.g),
                                                    (work.P, work.M)))]
        if c == 2:
            u, v = cur[0][:N], cur[1][:N]
            cross = np.multiply(-2.0 * beta, u, out=work.t1[:N])
            cross *= v
            ab[3, 1::2] = cross                 # A[2i, 2i+1]
            ab[5, 0:n - 1:2] = cross            # A[2i+1, 2i]
            for k, j in enumerate(jac):
                j -= np.multiply(beta, work.y2[1 - k][:N], out=work.t2[:N])
        for k, j in enumerate(jac):
            ab[2 * c, k::c] += j
        _, _, step, info = dgbsv(c, c, ab, res, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise NoConvergence(f"singular Newton step at pivot {info}")
        lam = 1.0
        for _ in range(30):
            trial = _Point([np.append(y[:N] - lam * step[k::c], y[N])
                            for k, y in enumerate(cur)], spare)
            residual(trial, tres)
            if float(np.linalg.norm(tres)) < rn:
                # the next step's residual and the pieces it formed
                spare, cur = cur.work, trial
                res, tres = tres, step
                break
            lam *= 0.5
        else:
            break   # stalled at the floor; the caller's certificate decides
    return tuple(cur)


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
    returned with the same values and t̄ = 1.  Raises ZeroState for the
    origin and NoProjection off the cone of `_phi_value`, before any pass:
    interpolating a core narrower than h can lose W > 0.
    """
    grid, values = state.grid, state.values
    ys, tbar = _project(grid, values, params)
    return State(Profile(grid, ys[0]), Profile(grid, ys[1])), tbar


def _project(grid, ys, params: EnergyParams):
    """`project_pohozaev` on node arrays (u, v) or (w,); returns (ys, t̄)."""
    work = _Work(grid, params, len(ys))     # every pass's (K, W) is formed here
    K, W = _cone_terms(grid, _Point(ys, work), params)
    tbar = 1.0
    for _ in range(12):
        t = math.sqrt(K / (6.0 * W))
        ys = tuple(dilate_values(grid, y, t) for y in ys)
        tbar *= t
        K, W = _cone_terms(grid, _Point(ys, work), params)
        if abs(0.5 * K - 3.0 * W) <= 1e-12 * (1.0 + K):
            break
    return ys, tbar


def _phi_value(K: float, W: float) -> float:
    """Φ on the cone 0 < W < ∞, 0 < t̄² = K/(6W) < ∞ (so 0 < K < ∞), else +∞."""
    if not (0.0 < W < math.inf and 0.0 < K / (6.0 * W) < math.inf):
        return math.inf
    return (K / 3.0) ** 1.5 / math.sqrt(2.0 * W)


def _cone_terms(grid, ys, params: EnergyParams):
    """(K, W) of node arrays on the cone, where `_phi_value` is finite."""
    K, W = _terms(grid, ys, params)
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
    return _phi_value(*_cone_terms(state.grid, state.values, params))


def energy_report(state: State, params: EnergyParams) -> EnergyReport:
    gr, (u, v) = state.grid, state.values
    K, W = _terms(gr, state.values, params)
    ru, rv = residuals(state, params)
    return EnergyReport(I=0.5 * K - W, J=0.5 * K - 3.0 * W, K=K, W=W,
                        normH1_sq=K + integrate(gr, u * u + v * v),
                        residual_u=ru, residual_v=rv)
