from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlsground.coupled as coupled_mod
import nlsground.energy as energy_mod
import nlsground.scalar as scalar_mod
from nlsground.energy import (EnergyParams, energy_I, morse_index, pohozaev_J,
                              project_pohozaev)
from nlsground.errors import BracketFailure, NoConvergence, NumericalError
from nlsground.grid import Profile, RadialGrid, State, kinetic
from nlsground.nonlinearity import cubic, log_enhanced, power_sum
from nlsground.scalar import (ScalarGroundState, _bisect_amplitude, _integrate,
                              solve_scalar)
from conftest import CUBIC_ACTION, CUBIC_CENTER


def test_shoot_classifies_amplitudes():
    nl = cubic()
    assert _integrate(nl, 2.0) is False     # turns back up
    assert _integrate(nl, 10.0) is True     # crosses zero


def test_solve_scalar_cubic_matches_oracles(cubic_scalar):
    assert cubic_scalar.center_value == pytest.approx(CUBIC_CENTER, rel=5e-4)
    assert cubic_scalar.action == pytest.approx(CUBIC_ACTION, rel=1e-5)
    assert cubic_scalar.residual < 1e-6
    vals = cubic_scalar.profile.values
    assert np.all(vals[:-1] > 0.0)
    assert np.all(np.diff(vals) <= 1e-12 * vals[0])


def test_solve_scalar_satisfies_pohozaev(grid, cubic_scalar):
    params = EnergyParams(cubic(), cubic(), 0.0)
    st = State(cubic_scalar.profile, Profile.zero(grid))
    K = kinetic(st.u)
    assert abs(pohozaev_J(st, params)) <= 1e-5 * (1.0 + K)


def test_solve_scalar_log_family(log_scalar):
    assert isinstance(log_scalar, ScalarGroundState)
    assert log_scalar.residual < 1e-6
    assert log_scalar.center_value > 0.0
    assert log_scalar.action > 0.0
    vals = log_scalar.profile.values
    assert np.all(np.diff(vals) <= 1e-12 * vals[0])


def test_solve_scalar_deterministic():
    g = RadialGrid(R=20.0, N=800)
    a = solve_scalar(cubic(), g)
    b = solve_scalar(cubic(), g)
    assert np.array_equal(a.profile.values, b.profile.values)
    assert a.center_value == b.center_value


def test_bracket_without_transition_fails():
    # f == 0: every positive trajectory turns up, so no end of the bracket
    # crosses
    with pytest.raises(BracketFailure):
        _bisect_amplitude(power_sum([]))


def test_linear_equation_has_no_ground_state():
    # f == 0 leaves -Δw + w = 0, whose positive trajectories all turn up
    with pytest.raises(BracketFailure):
        solve_scalar(power_sum([]), RadialGrid(R=20.0, N=500))


def test_solve_scalar_small_grid_consistency():
    # the same state at N=800 should match the session solution loosely
    g = RadialGrid(R=20.0, N=800)
    gs = solve_scalar(cubic(), g)
    assert gs.center_value == pytest.approx(CUBIC_CENTER, rel=5e-3)
    assert gs.action == pytest.approx(CUBIC_ACTION, rel=1e-3)


@pytest.mark.parametrize("nl, N, resolved", [
    pytest.param(power_sum([(1.0, 4.5)]), 400, False, id="nl0-400"),
    pytest.param(power_sum([(1.0, 2.0), (0.5, 3.5)]), 160, True, id="nl1-160"),
])
def test_blowup_counts_as_overshoot(nl, N, resolved):
    # the RK4 trajectory from the bracket's top a = 50 leaves the trust
    # region, which counts as an overshoot
    g = RadialGrid(R=20.0, N=N)
    assert _integrate(nl, 50.0, g.h / 4.0) is True
    if not resolved:
        # h = 0.05 under-resolves the p = 4.5 core: the discrete critical
        # point that the shooting amplitude seeds has Morse index 0
        with pytest.raises(NoConvergence):
            solve_scalar(nl, g)
        return
    gs = solve_scalar(nl, g)
    assert np.all(gs.profile.values[:-1] > 0.0)
    assert gs.residual <= 1e-14


def test_underresolved_core_names_amplitude_and_step():
    # p = 4.9 puts w(0) near 14, a core ~a^{-(p-1)/2} ≈ 0.006 wide against
    # h = 0.005: Newton stalls on the under-resolved grid (N = 16000 converges)
    with pytest.raises(NoConvergence, match=r"w\(0\)=.*h=0\.005"):
        solve_scalar(power_sum([(1.0, 4.9)]), RadialGrid(R=20.0, N=4000))


@pytest.mark.parametrize("nl, a_ref", [
    pytest.param(cubic(), 4.3373876803802, id="cubic"),
    pytest.param(log_enhanced(), 3.421732833354326, id="log_enhanced"),
    pytest.param(power_sum([(1.0, 2.0), (0.5, 3.5)]), 3.4877423898899,
                 id="power_sum"),
])
def test_center_matches_rk4_reference(nl, a_ref):
    # the fixed-step RK4 bisection is an independent solver of the same ODE;
    # its w(0) is pinned to the bit
    assert _bisect_amplitude(nl) == a_ref
    if nl == cubic():
        assert abs(a_ref - CUBIC_CENTER) <= 1e-9 * CUBIC_CENTER
    g = RadialGrid(R=20.0, N=4000)
    assert solve_scalar(nl, g).center_value == pytest.approx(a_ref, rel=1e-3)


_TERM = st.tuples(st.floats(0.5, 2.0), st.floats(1.2, 4.8))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(terms=st.lists(_TERM, min_size=1, max_size=2),
       N=st.sampled_from([400, 800]))
@example(terms=[(1.0, 4.5)], N=400)
def test_scalar_state_is_a_ground_state_or_fails_cleanly(terms, N):
    nl = power_sum(terms)
    g = RadialGrid(R=20.0, N=N)
    try:
        gs = solve_scalar(nl, g)
    except NumericalError:
        return
    vals = gs.profile.values
    assert np.all(vals[:-1] > 0.0)
    assert np.all(np.diff(vals) <= 1e-12 * vals[0])
    assert gs.residual < 1e-6
    state = State(gs.profile, Profile.zero(g))
    assert morse_index(g, state.values, EnergyParams(nl, nl, 0.0)) == 1


_PAIR_CASES = pytest.mark.parametrize(
    "nl", [cubic(), log_enhanced(), power_sum([(1.0, 2.0), (0.5, 3.5)])],
    ids=["cubic", "log_enhanced", "power_sum"])


def _pair_pipeline(nl, g):
    """The reference: the two-component pipeline on (start, 0) at β = 0,
    start, round, projection and Newton, as one `solve_scalar` on (w,)
    runs them.  Returns the polished (w, S) and the projected round."""
    params = EnergyParams(nl, nl, 0.0)
    zero = np.zeros(g.N + 1)
    (u, v), _ = coupled_mod._descend(g, (scalar_mod._start(g, params), zero),
                                     params, coupled_mod.ROUND)
    state, _ = project_pohozaev(State(Profile(g, u), Profile(g, v)), params)
    u, v = energy_mod.newton(g, state.values, params)
    return u, energy_I(State(Profile(g, u), Profile(g, v)), params), state


@_PAIR_CASES
def test_scalar_solve_matches_the_pair_pipeline(grid, nl):
    w_ref, s_ref, projected = _pair_pipeline(nl, grid)
    gs = solve_scalar(nl, grid)
    w = gs.profile.values
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
    assert abs(gs.action - s_ref) <= 1e-12 * abs(s_ref)
    # up to the polish the one-component arithmetic is the pair's, bitwise
    params = EnergyParams(nl, nl, 0.0)
    ys, _ = coupled_mod._descend(grid, (scalar_mod._start(grid, params),),
                                 params, coupled_mod.ROUND)
    (one,), _ = energy_mod._project(grid, ys, params)
    assert np.array_equal(one, projected.u.values)


def test_scalar_newton_solves_tridiagonal_systems(monkeypatch, grid, cubic_nl):
    shapes = []
    real = energy_mod.dgbsv

    def spy(kl, ku, ab, b, *args, **kwargs):
        shapes.append(((kl, ku), ab.shape, b.shape))
        return real(kl, ku, ab, b, *args, **kwargs)

    monkeypatch.setattr(energy_mod, "dgbsv", spy)
    solve_scalar(cubic_nl, grid)
    assert shapes
    # gbsv's band for (kl, ku) = (1, 1): one row of fill-in above the three
    assert set(shapes) == {((1, 1), (4, grid.N), (grid.N,))}


def test_singular_newton_step_is_no_convergence(monkeypatch):
    def singular(kl, ku, ab, b, *args, **kwargs):
        return ab, None, b, 1           # gbsv's info > 0: U(1, 1) is zero

    monkeypatch.setattr(energy_mod, "dgbsv", singular)
    with pytest.raises(NoConvergence, match="singular Newton step at pivot 1"):
        solve_scalar(cubic(), RadialGrid(R=20.0, N=400))


def test_non_monotone_polish_is_rejected(monkeypatch):
    def bumpy(grid, vals, params):
        w = np.exp(-0.5 * grid.r ** 2) + 0.5 * np.exp(-(grid.r - 5.0) ** 2)
        w[-1] = 0.0
        return w

    monkeypatch.setattr(scalar_mod, "_newton_polish", bumpy)
    with pytest.raises(NoConvergence,
                       match=r"lost monotonicity \(w\(0\)=1, h=0\.05\)"):
        solve_scalar(cubic(), RadialGrid(R=20.0, N=400))


def test_polish_with_morse_index_two_is_rejected(monkeypatch):
    monkeypatch.setattr(scalar_mod, "morse_index", lambda *args: 2)
    with pytest.raises(NoConvergence,
                       match=r"Morse index 2, not 1 \(w\(0\)=.*, h=0\.05\)"):
        solve_scalar(cubic(), RadialGrid(R=20.0, N=400))
