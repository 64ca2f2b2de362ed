"""The public API in `nlsground.__all__` is pinned: a name leaves or joins
it only by an edit here."""
from __future__ import annotations

import nlsground

PUBLIC = [
    "AssumptionReport", "EnergyParams", "EnergyReport", "GroundState",
    "Kind", "Nonlinearity", "Profile", "RadialGrid", "ScalarGroundState",
    "SolveConfig", "State", "SweepResult", "SweepRow", "__version__",
    "bisect_beta0", "certify", "check_assumptions", "classify",
    "compare_energies", "cubic", "dilate", "energy_I", "energy_report",
    "eval_F", "eval_df", "eval_f", "first_variation", "integrate", "kinetic",
    "log_enhanced", "pohozaev_J", "power_sum", "project_pohozaev",
    "projected_energy", "rearrange", "solve_coupled", "solve_scalar",
    "sweep",
]


def test_public_api_is_pinned():
    assert sorted(nlsground.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(nlsground, name), name
