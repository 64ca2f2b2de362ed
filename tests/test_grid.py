from __future__ import annotations

import math

import numpy as np
import pytest

from nlsground.errors import GridMismatch, LengthMismatch, NonpositiveDilation
from nlsground.grid import (Profile, RadialGrid, State, dilate,
                            flux_laplacian_interior, integrate, kinetic,
                            laplacian, read_state_csv, rearrange,
                            state_from_csv, write_profile_csv,
                            write_state_csv)
from conftest import (GAUSS_INT, GAUSS_NARROW_INT, GAUSS_R2_INT,
                      gaussian_bumps)


def test_grid_construction_and_validation():
    g = RadialGrid(R=10.0, N=200)
    assert g.r[0] == 0.0
    assert g.r[-1] == pytest.approx(10.0)
    assert g.h == pytest.approx(0.05)
    with pytest.raises(ValueError):
        RadialGrid(R=-1.0, N=200)
    with pytest.raises(ValueError):
        RadialGrid(R=10.0, N=10)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_grid_rejects_non_finite_radius(R):
    with pytest.raises(ValueError, match="finite"):
        RadialGrid(R=R, N=200)


def test_quadrature_total_volume(grid):
    # trapezoid weights reproduce the ball volume up to the O(h^2)
    # boundary correction of the rule itself
    ones = np.ones(grid.N + 1)
    ball = 4.0 / 3.0 * math.pi * grid.R ** 3
    assert integrate(grid, ones) == pytest.approx(ball, rel=1e-7)


def test_quadrature_gaussian_moments(grid):
    r = grid.r
    assert integrate(grid, np.exp(-r ** 2)) == pytest.approx(GAUSS_INT, rel=1e-6)
    assert integrate(grid, r ** 2 * np.exp(-r ** 2)) == pytest.approx(
        GAUSS_R2_INT, rel=1e-6)
    assert integrate(grid, np.exp(-2.0 * r ** 2)) == pytest.approx(
        GAUSS_NARROW_INT, rel=1e-6)


def test_integrate_rejects_wrong_length(grid):
    with pytest.raises(LengthMismatch):
        integrate(grid, np.ones(grid.N))


def test_profile_validation(grid):
    vals = np.ones(grid.N + 1)
    with pytest.raises(ValueError):
        Profile(grid, vals)          # does not vanish at R
    vals[-1] = 0.0
    Profile(grid, vals)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        Profile(grid, vals)
    with pytest.raises(LengthMismatch):
        Profile(grid, np.zeros(17))


def test_state_requires_matching_grids(grid):
    other = RadialGrid(R=grid.R, N=grid.N // 2)
    with pytest.raises(GridMismatch):
        State(Profile.zero(grid), Profile.zero(other))


def test_laplacian_exact_on_quadratic():
    g = RadialGrid(R=20.0, N=640)
    p = Profile.from_callable(g, lambda r: g.R ** 2 - r ** 2)
    lap = laplacian(g, p)
    # exact except at the boundary node, whose ghost extension is not quadratic
    np.testing.assert_allclose(lap[:-1], -6.0, rtol=0.0, atol=1e-8)


def test_laplacian_second_order_on_gaussian(grid):
    p = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 2.0))
    lap = laplacian(grid, p)
    exact = (grid.r ** 2 - 3.0) * np.exp(-grid.r ** 2 / 2.0)
    inner = grid.r <= grid.R - 3.0
    assert np.max(np.abs(lap - exact)[inner]) <= 5.0 * grid.h ** 2


def test_flux_laplacian_annihilates_constants(grid):
    out = flux_laplacian_interior(grid, np.ones(grid.N + 1))
    assert np.all(out == 0.0)


def test_flux_laplacian_is_kinetic_adjoint(grid):
    rng = np.random.default_rng(7)
    vals = gaussian_bumps(grid, rng, 3)
    # gradient of the quadratic form K = sum fc_i (u_{i+1}-u_i)^2
    du = np.diff(vals)
    fd = grid.flux * du
    grad_K = 2.0 * (fd[:-1] - fd[1:])          # interior nodes 1..N-1
    lap = flux_laplacian_interior(grid, vals)
    np.testing.assert_allclose(grad_K, -2.0 * grid.w[1:-1] * lap,
                               rtol=1e-12, atol=1e-14)


def test_kinetic_gaussian(grid):
    p = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 2.0))
    assert kinetic(p) == pytest.approx(GAUSS_R2_INT, rel=1e-5)


def test_dilate_identity_and_validation(grid):
    p = Profile.from_callable(grid, lambda r: np.exp(-r ** 2))
    assert dilate(p, 1.0) is p
    with pytest.raises(NonpositiveDilation):
        dilate(p, 0.0)
    with pytest.raises(NonpositiveDilation):
        dilate(p, -2.0)


def test_dilate_composition_roundtrip(grid):
    p = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 2.0))
    back = dilate(dilate(p, 2.0), 0.5)
    assert np.max(np.abs(back.values - p.values)) <= 5e-4


def test_dilate_scaling_laws(grid):
    p = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 2.0))
    t = 1.3
    q = dilate(p, t)
    assert kinetic(q) == pytest.approx(t * kinetic(p), rel=1e-3)
    mass_p = integrate(grid, p.values ** 2)
    mass_q = integrate(grid, q.values ** 2)
    assert mass_q == pytest.approx(t ** 3 * mass_p, rel=1e-3)


def test_rearrange_fixes_decreasing_profiles(grid):
    p = Profile.from_callable(grid, lambda r: 2.0 * np.exp(-r ** 2))
    q = rearrange(p)
    assert np.array_equal(q.values, p.values)


def test_rearrange_idempotent(grid):
    rng = np.random.default_rng(11)
    p = Profile(grid, gaussian_bumps(grid, rng, 3))
    once = rearrange(p)
    twice = rearrange(once)
    assert np.array_equal(twice.values, once.values)
    assert np.all(np.diff(once.values) <= 0.0)


def test_rearrange_preserves_integrals_of_bumps():
    g = RadialGrid(R=20.0, N=16000)
    rng = np.random.default_rng(5)
    p = Profile(g, gaussian_bumps(g, rng, 2))
    q = rearrange(p)
    for power in (2, 4):
        a = integrate(g, p.values ** power)
        b = integrate(g, q.values ** power)
        assert b == pytest.approx(a, rel=1e-6)


def test_rearrange_does_not_increase_kinetic(grid):
    rng = np.random.default_rng(13)
    p = Profile(grid, gaussian_bumps(grid, rng, 3))
    q = rearrange(p)
    assert kinetic(q) <= kinetic(p) * (1.0 + 1e-8)


def test_profile_csv_roundtrip(grid, tmp_path):
    p = Profile.from_callable(grid, lambda r: 1.7 * np.exp(-r ** 2 / 3.0))
    path = tmp_path / "u0.csv"
    write_profile_csv(p, path)
    r, u, v = read_state_csv(path)
    assert v is None
    np.testing.assert_array_equal(r, grid.r)
    np.testing.assert_array_equal(u, p.values)


def test_state_csv_roundtrip(grid, tmp_path):
    u = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 2.0))
    v = Profile.from_callable(grid, lambda r: 0.5 * np.exp(-r ** 2))
    path = tmp_path / "state.csv"
    write_state_csv(State(u, v), path)
    st = state_from_csv(path, grid)
    np.testing.assert_array_equal(st.u.values, u.values)
    np.testing.assert_array_equal(st.v.values, v.values)


def test_two_column_csv_loads_with_zero_second_component(grid, tmp_path):
    p = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 2.0))
    path = tmp_path / "u0.csv"
    write_profile_csv(p, path)
    st = state_from_csv(path, grid)
    np.testing.assert_array_equal(st.u.values, p.values)
    assert np.all(st.v.values == 0.0)


def test_state_from_csv_rejects_mismatched_grid(grid, tmp_path):
    small = RadialGrid(R=grid.R, N=grid.N // 2)
    p = Profile.from_callable(small, lambda r: np.exp(-r ** 2 / 2.0))
    path = tmp_path / "small.csv"
    write_profile_csv(p, path)
    with pytest.raises(ValueError, match="node count"):
        state_from_csv(path, grid)
    shifted = RadialGrid(R=grid.R * 1.5, N=grid.N)
    q = Profile.from_callable(shifted, lambda r: np.exp(-r ** 2 / 2.0))
    path2 = tmp_path / "shifted.csv"
    write_profile_csv(q, path2)
    with pytest.raises(ValueError, match="radii"):
        state_from_csv(path2, grid)


def test_read_state_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("x,y\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_state_csv(bad_header)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("r,u\n0.0,1.0\n0.1\n")
    with pytest.raises(ValueError, match="fields"):
        read_state_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_state_csv(empty)
    headeronly = tmp_path / "headeronly.csv"
    headeronly.write_text("r,u\n")
    with pytest.raises(ValueError, match="no data"):
        read_state_csv(headeronly)
    short = tmp_path / "short.csv"
    short.write_text("r,u,v\n0.0,1.0\n0.1,0.5\n")
    with pytest.raises(ValueError, match="fields"):
        read_state_csv(short)
    comment = tmp_path / "comment.csv"
    comment.write_text("r,u\n# comment\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_state_csv(comment)
    # trailing blank lines are not malformed
    trailing = tmp_path / "trailing.csv"
    trailing.write_bytes(b"r,u\r\n0.0,1.0\r\n0.5,0\r\n\r\n\n")
    r, u, v = read_state_csv(trailing)
    np.testing.assert_array_equal(r, [0.0, 0.5])
    np.testing.assert_array_equal(u, [1.0, 0.0])
    assert v is None


def test_csv_bytes_are_pinned(tmp_path):
    # the stored format: a header, 17 significant digits, CRLF row ends
    grid = RadialGrid(R=20.0, N=64)
    u = np.zeros(grid.N + 1)
    u[:4] = [-0.0, 1e-300, 1.2345678901234567e300, 1.0 / 3.0]
    v = np.roll(u, 2)

    def expected(header, *columns):
        rows = [header] + [",".join(format(x, ".17g") for x in row)
                           for row in zip(*columns)]
        return "".join(row + "\r\n" for row in rows).encode()

    write_state_csv(State(Profile(grid, u), Profile(grid, v)),
                    tmp_path / "state.csv")
    write_profile_csv(Profile(grid, u), tmp_path / "u0.csv")
    assert (tmp_path / "state.csv").read_bytes() == expected("r,u,v", grid.r, u, v)
    assert (tmp_path / "u0.csv").read_bytes() == expected("r,u", grid.r, u)
