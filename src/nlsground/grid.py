"""Uniform radial discretization of radially symmetric functions on R^3.

The ball of radius R is discretized with N uniform intervals; a sampled
profile carries its values at the N+1 nodes with a hard Dirichlet zero at
r = R (truncation of the exponential decay at infinity).  Volume integrals
use the composite trapezoid rule on the r^2-weighted integrand,

    integrate(s) = sum_i w_i s_i,   w_i = 4 pi r_i^2 h c_i,

and the kinetic energy uses the conservative midpoint (flux) form

    kinetic(u) = (4 pi / h) sum_i r_{i+1/2}^2 (u_{i+1} - u_i)^2,

whose exact Euclidean gradient is the flux-form radial Laplacian returned
by :func:`flux_laplacian_interior`.  Keeping the quadratic form and the
operator as exact adjoints of one another (rather than pairing the
quadrature with the pointwise central stencil) is what lets
finite-difference directional derivatives of the energy match its analytic
gradient to roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, LengthMismatch, NonpositiveDilation

FOUR_PI = 4.0 * math.pi


class RadialGrid:
    """Uniform mesh on [0, R] with 3D quadrature weights.

    Attributes
    ----------
    R, N, h : truncation radius, interval count, spacing R/N.
    r : (N+1,) node radii.
    w : (N+1,) quadrature weights 4 pi r^2 h c (trapezoid coefficients).
    flux : (N,) midpoint flux coefficients 4 pi r_{i+1/2}^2 / h.
    """

    def __init__(self, R: float = 20.0, N: int = 4000):
        if isinstance(R, bool):
            raise ValueError(f"R must be a number, got {R!r}")
        if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
            raise ValueError(f"N must be an integer, got {N!r}")
        R = float(R)
        N = int(N)
        if not 0.0 < R < math.inf:
            raise ValueError("R must be positive and finite")
        if N < 64:
            raise ValueError("N must be at least 64")
        self.R = R
        self.N = N
        self.h = R / N
        self.r = np.linspace(0.0, R, N + 1)
        c = np.ones(N + 1)
        c[0] = c[-1] = 0.5
        self.w = FOUR_PI * self.r ** 2 * self.h * c
        r_mid = self.r[:-1] + 0.5 * self.h
        self.flux = FOUR_PI * r_mid ** 2 / self.h
        # trapezoid is exact on r^2 up to its O(h^2) boundary correction
        ball = FOUR_PI / 3.0 * R ** 3
        if abs(self.w.sum() - ball) > 2.0 * self.h ** 2 / R ** 2 * ball:
            raise AssertionError("quadrature weights fail the ball-volume check")

    def __repr__(self):
        return f"RadialGrid(R={self.R}, N={self.N})"

    def same_as(self, other: "RadialGrid") -> bool:
        return self is other or (self.R == other.R and self.N == other.N)


def _check_grid(grid: RadialGrid, other: RadialGrid):
    if not grid.same_as(other):
        raise GridMismatch(f"{grid!r} vs {other!r}")


@dataclass(frozen=True)
class Profile:
    """Node samples of one radial function; last entry pinned to 0."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.N + 1,):
            raise LengthMismatch(
                f"expected {self.grid.N + 1} samples, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile contains non-finite values")
        if vals[-1] != 0.0:
            raise ValueError("profile must vanish at the truncation radius")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zero(grid: RadialGrid) -> "Profile":
        return Profile(grid, np.zeros(grid.N + 1))

    @staticmethod
    def from_callable(grid: RadialGrid, fn) -> "Profile":
        vals = np.asarray(fn(grid.r), dtype=float)
        vals = vals.copy()
        vals[-1] = 0.0
        return Profile(grid, vals)


@dataclass(frozen=True)
class State:
    """A pair of profiles (u, v) on one shared grid."""

    u: Profile
    v: Profile

    def __post_init__(self):
        _check_grid(self.u.grid, self.v.grid)

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid

    @property
    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """The node arrays (u, v) that the discrete operator reads."""
        return self.u.values, self.v.values


def integrate(grid: RadialGrid, samples) -> float:
    """Quadrature of a node-sampled function over R^3 (radial measure)."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N + 1,):
        raise LengthMismatch(
            f"expected {grid.N + 1} samples, got {samples.shape}")
    return float(grid.w @ samples)


def kinetic(p: Profile) -> float:
    """int |grad u|^2 in the conservative midpoint form."""
    du = np.diff(p.values)
    return float(p.grid.flux @ (du * du))


def flux_laplacian_interior(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Flux-form Laplacian at nodes 1..N-1 (exact adjoint of `kinetic`).

    Defined by (4 pi / h)[r_{i+1/2}^2 (u_{i+1}-u_i) - r_{i-1/2}^2 (u_i-u_{i-1})] / w_i,
    so that d(kinetic)/du_i = -2 w_i (Lu)_i holds to roundoff for interior i.
    """
    return _flux_laplacian(grid, values[1:] - values[:-1])


def _flux_laplacian(grid: RadialGrid, du: np.ndarray, out=None, flux_du=None):
    """`flux_laplacian_interior` from the node differences du, into `out`
    (nodes 1..N−1); `flux_du` receives flux·du, formed once for both sides
    of the stencil.  Either is made when not given."""
    flux_du = np.multiply(grid.flux, du, out=flux_du)
    lap = np.subtract(flux_du[1:], flux_du[:-1], out=out)
    lap /= grid.w[1:-1]
    return lap


def dilate(p: Profile, t: float) -> Profile:
    """Return r -> p(r/t) on the same grid by linear interpolation.

    Arguments r/t beyond R read as 0; the boundary node is re-clamped to 0
    to honor the Dirichlet truncation contract.
    """
    if not t > 0.0:
        raise NonpositiveDilation(f"t={t}")
    if t == 1.0:
        return p
    return Profile(p.grid, dilate_values(p.grid, p.values, t))


def dilate_values(grid: RadialGrid, values: np.ndarray, t: float) -> np.ndarray:
    """`dilate` on a raw node array: a new array, with t > 0 not checked."""
    vals = np.interp(grid.r / t, grid.r, values, right=0.0)
    vals[-1] = 0.0
    return vals


def rearrange(p: Profile) -> Profile:
    """Radially decreasing rearrangement under the discrete 3D measure.

    The sorted node values with their quadrature weights define a step
    function of the cumulative volume coordinate (the exact discrete
    distribution; ties broken by node index).  Each output node takes the
    average of that step function over its own weight cell, which keeps
    the volume bookkeeping exact — no sampling-phase bias — and preserves
    smooth integrands to O(h^2) with a small constant.  Non-increasing
    inputs are fixed points by construction (early exit), which also makes
    the operation exactly idempotent.
    """
    grid = p.grid
    vals = np.abs(p.values)
    if np.all(np.diff(vals) <= 0.0):
        return Profile(grid, vals)
    order = np.argsort(-vals, kind="stable")
    sorted_vals = vals[order]
    vol = grid.w[order]
    atom_edges = np.concatenate(([0.0], np.cumsum(vol)))
    mass = np.concatenate(([0.0], np.cumsum(vol * sorted_vals)))
    cell_edges = np.concatenate(([0.0], np.cumsum(grid.w)))
    # total volumes agree up to reordering roundoff; clamp for interp
    cell_edges[-1] = min(cell_edges[-1], atom_edges[-1])
    s = np.interp(cell_edges, atom_edges, mass)
    out = np.empty(grid.N + 1)
    out[0] = sorted_vals[0]
    out[1:] = np.diff(s)[1:] / grid.w[1:]
    out[-1] = 0.0
    # cell averages of a decreasing step are decreasing; repair the
    # roundoff-scale violations so idempotence is exact via the early exit
    np.minimum.accumulate(out, out=out)
    return Profile(grid, out)


# ----------------------------------------------------------------------
# persistence: CSV with 17-significant-digit floats, one node per row

def _write_columns(path, header: str, *columns) -> None:
    # one `%` over Python floats formats as np.savetxt's "%.17g" rows do;
    # newline="" keeps the CRLF row ends byte-exact on every platform
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    body = row * len(columns[0]) % tuple(np.column_stack(columns).ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + body)


def write_profile_csv(p: Profile, path) -> None:
    _write_columns(path, "r,u", p.grid.r, p.values)


def write_state_csv(state: State, path) -> None:
    _write_columns(path, "r,u,v", state.grid.r, state.u.values, state.v.values)


def read_state_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read `r,u[,v]` columns; returns (r, u, v-or-None). Raises ValueError."""
    with open(path) as fh:
        header = fh.readline()
        rows = [line for line in fh if line.strip()]
    if not header:
        raise ValueError("empty CSV")
    header = [c.strip() for c in header.split(",")]
    if header not in (["r", "u", "v"], ["r", "u"]):
        raise ValueError(f"unexpected CSV header {header}")
    if not rows:
        raise ValueError("CSV contains no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"bad row fields: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValueError(f"rows have {data.shape[1]} fields, not {len(header)}")
    return data[:, 0], data[:, 1], (data[:, 2] if len(header) == 3 else None)


def state_from_csv(path, grid: RadialGrid) -> State:
    """Load a stored state and bind it to `grid`, validating the nodes."""
    r, u, v = read_state_csv(path)
    if r.shape != grid.r.shape:
        raise ValueError(
            f"node count {r.size} does not match grid ({grid.N + 1})")
    if np.max(np.abs(r - grid.r)) > 1e-12 * max(1.0, grid.R):
        raise ValueError("node radii do not match the configured grid")
    if v is None:
        v = np.zeros_like(u)
    return State(Profile(grid, u), Profile(grid, v))
