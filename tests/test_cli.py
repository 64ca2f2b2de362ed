from __future__ import annotations

import contextlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlsground.cli as cli
import nlsground.coupled as coupled_mod
import nlsground.energy as energy_mod
from nlsground.cli import main
from nlsground.errors import CertificationFailure
from nlsground.grid import (Profile, RadialGrid, State, state_from_csv,
                            write_state_csv)


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def write_conf(path, body: str) -> str:
    path.write_text(body)
    return str(path)


@pytest.fixture(scope="module")
def coupled_run(tmp_path_factory):
    """One CLI coupled solve shared by the round-trip tests."""
    root = tmp_path_factory.mktemp("coupled_cli")
    conf = write_conf(root / "run.conf", f"""
f.family = cubic
beta = 2.0
grid.N = 1600
output.dir = {root / 'out'}
""")
    code, out, err = run_cli("coupled", conf)
    assert code == 0, err
    return root, conf, out


def test_scalar_command(tmp_path):
    conf = write_conf(tmp_path / "s.conf", f"""
f.family = cubic
grid.N = 1200
output.dir = {tmp_path / 'out'}
""")
    code, out, err = run_cli("scalar", conf)
    assert code == 0
    assert re.match(r"a=\S+ action=\S+ residual=\S+\s*$", out)
    csv_path = tmp_path / "out" / "u0.csv"
    report = (tmp_path / "out" / "u0.report").read_text()
    assert csv_path.exists()
    assert "center_value=" in report and "action=" in report
    assert "residual_u=" in report
    # no leftover temp files from the atomic writes
    assert not list((tmp_path / "out").glob("*.tmp"))
    st = state_from_csv(csv_path, RadialGrid(R=20.0, N=1200))
    assert st.u.values[0] == pytest.approx(4.34, abs=0.05)


def test_scalar_numeric_failure(tmp_path):
    conf = write_conf(tmp_path / "s.conf", """
f.family = power_sum
f.terms = [(1.0, 4.5)]
grid.N = 500
""")
    code, out, err = run_cli("scalar", conf)
    assert code == 2
    assert "error:" in err


def test_coupled_command_output(coupled_run):
    root, conf, out = coupled_run
    assert re.match(r"kind=vector m=\S+ beta=2\s*$", out)
    report = (root / "out" / "state.report").read_text()
    assert "kind=vector" in report
    assert "iterations=" in report
    for key in ("I=", "J=", "K=", "W="):
        assert key in report
    m = float(re.search(r"^m=(\S+)$", report, re.M).group(1))
    assert m == pytest.approx(12.598, abs=1e-3)


def test_coupled_deterministic(coupled_run, tmp_path):
    root, _, _ = coupled_run
    conf = write_conf(tmp_path / "again.conf", f"""
f.family = cubic
beta = 2.0
grid.N = 1600
output.dir = {tmp_path / 'out'}
""")
    code, _, err = run_cli("coupled", conf)
    assert code == 0, err
    first = (root / "out" / "state.csv").read_bytes()
    second = (tmp_path / "out" / "state.csv").read_bytes()
    assert first == second


def test_coupled_certification_failure_leaves_no_state(monkeypatch, tmp_path):
    def reject(gs, params):
        raise CertificationFailure("pohozaev", "rejected by the spy")

    monkeypatch.setattr(cli, "certify", reject)
    conf = write_conf(tmp_path / "c.conf", f"""
f.family = cubic
beta = 2.0
grid.N = 1600
output.dir = {tmp_path / 'out'}
""")
    code, out, err = run_cli("coupled", conf)
    assert code == 3
    assert "certification failed" in err
    out_dir = tmp_path / "out"
    assert not (out_dir / "state.csv").exists()
    assert not (out_dir / "state.report").exists()
    assert not list(out_dir.glob("*.tmp"))


def test_coupled_non_finite_gradient_exits_2(monkeypatch, tmp_path):
    def poisoned(grid, ys, params, K, W):
        return tuple(np.full(grid.N + 1, np.nan) for _ in ys)

    monkeypatch.setattr(coupled_mod, "_phi_gradient", poisoned)
    conf = write_conf(tmp_path / "c.conf", f"""
f.family = cubic
beta = 2.0
grid.N = 1600
output.dir = {tmp_path / 'out'}
""")
    code, out, err = run_cli("coupled", conf)
    assert code == 2
    assert err.startswith("error:") and "non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "state.csv").exists()


def test_coupled_requires_beta(tmp_path):
    conf = write_conf(tmp_path / "c.conf", "f.family = cubic\n")
    code, out, err = run_cli("coupled", conf)
    assert code == 1
    assert "beta is required" in err


def test_coupled_numeric_failure_on_coarse_grid(tmp_path):
    conf = write_conf(tmp_path / "c.conf", """
f.family = cubic
beta = 2.0
grid.N = 640
""")
    code, out, err = run_cli("coupled", conf)
    assert code == 2
    assert "error:" in err


def test_sweep_command(tmp_path):
    conf = write_conf(tmp_path / "w.conf", f"""
f.family = cubic
beta_list = [0.9, 1.1]
grid.N = 1600
output.dir = {tmp_path / 'out'}
""")
    code, out, err = run_cli("sweep", conf)
    assert code == 0, err
    assert "bracket_lo=0.90000000000000002 bracket_hi=1.1000000000000001" in out
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,m,kind,scalar_min,lhs_bound,beats"
    low = lines[1].split(",")
    high = lines[2].split(",")
    assert low[2] == "scalar_u" and low[5] == "false"
    assert high[2] == "vector" and high[5] == "true"
    assert float(high[1]) < float(high[3]) < float(low[1]) + 1e-6


def test_sweep_requires_beta_list(tmp_path):
    conf = write_conf(tmp_path / "w.conf", "f.family = cubic\nbeta = 2.0\n")
    code, out, err = run_cli("sweep", conf)
    assert code == 1
    assert "beta_list" in err


def test_sweep_partial_failure(tmp_path):
    conf = write_conf(tmp_path / "w.conf", f"""
f.family = cubic
beta_list = [2.0]
grid.N = 640
output.dir = {tmp_path / 'out'}
""")
    code, out, err = run_cli("sweep", conf)
    assert code == 4
    assert "bracket=none" in out
    assert "failed" in err
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[2] == "failed"


def test_check_accepts_solver_output(coupled_run):
    root, conf, _ = coupled_run
    code, out, err = run_cli("check", conf, str(root / "out" / "state.csv"))
    assert code == 0
    assert re.search(r"^J=", out, re.M)
    assert re.search(r"^residual_u=", out, re.M)
    assert re.search(r"^morse_index=1$", out, re.M)


def test_check_rejects_perturbed_state(coupled_run, tmp_path):
    root, conf, _ = coupled_run
    grid = RadialGrid(R=20.0, N=1600)
    st = state_from_csv(root / "out" / "state.csv", grid)
    u = st.u.values.copy()
    u[1:-1] += 1e-3 * np.exp(-(grid.r[1:-1] - 2.0) ** 2)
    bad = tmp_path / "bad.csv"
    rows = ["r,u,v"]
    for r, a, b in zip(grid.r, u, st.v.values):
        rows.append(f"{r:.17g},{a:.17g},{b:.17g}")
    bad.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli("check", conf, str(bad))
    assert code == 3


def test_check_goes_through_certify(monkeypatch, coupled_run):
    root, conf, _ = coupled_run
    seen = []

    def reject(state, params):
        seen.append(state)
        raise CertificationFailure("residual", "rejected by the spy")

    monkeypatch.setattr(cli, "certify", reject)
    code, out, err = run_cli("check", conf, str(root / "out" / "state.csv"))
    assert code == 3
    assert len(seen) == 1
    assert re.search(r"^J=", out, re.M)
    assert "certification failed" in err


def test_check_rejects_the_zero_state(tmp_path):
    # u = v = 0 meets the Pohozaev, energy and residual clauses exactly
    conf = write_conf(tmp_path / "c.conf",
                      "f.family = cubic\nbeta = 2.0\ngrid.N = 800\n")
    zero = Profile.zero(RadialGrid(R=20.0, N=800))
    write_state_csv(State(zero, zero), tmp_path / "zero.csv")
    code, out, err = run_cli("check", conf, str(tmp_path / "zero.csv"))
    assert code == 3
    assert re.search(r"^K=0$", out, re.M)
    assert "certification failed" in err and "nontrivial" in err


def test_check_rejects_a_state_zero_on_weighted_nodes(tmp_path):
    # node 0 has weight 0: u = (1e-6, 0, …, 0) has K > 0 but M = 0, and
    # would meet the Pohozaev, energy and residual clauses as the zero state
    conf = write_conf(tmp_path / "c.conf",
                      "f.family = cubic\nbeta = 2.0\ngrid.N = 800\n")
    grid = RadialGrid(R=20.0, N=800)
    u = np.zeros(grid.N + 1)
    u[0] = 1e-6
    write_state_csv(State(Profile(grid, u), Profile.zero(grid)),
                    tmp_path / "node0.csv")
    code, out, err = run_cli("check", conf, str(tmp_path / "node0.csv"))
    assert code == 3
    assert "certification failed" in err and "nontrivial" in err


def test_check_rejects_a_saddle(tmp_path, cubic_scalar):
    # below β = 1 the symmetric state (w, w)/√(1+β) solves the system and
    # passes every clause of `certify`, but it is a saddle of index 2
    conf = write_conf(tmp_path / "c.conf", "f.family = cubic\nbeta = 0.9\n")
    w = cubic_scalar.profile
    half = Profile(w.grid, w.values / np.sqrt(1.9))
    write_state_csv(State(half, half), tmp_path / "saddle.csv")
    code, out, err = run_cli("check", conf, str(tmp_path / "saddle.csv"))
    assert code == 3
    assert re.search(r"^morse_index=2$", out, re.M)
    assert "certification failed" in err and "morse_index" in err


def test_check_scalar_profile(tmp_path):
    conf = write_conf(tmp_path / "s.conf", f"""
f.family = cubic
output.dir = {tmp_path / 'out'}
""")
    code, _, err = run_cli("scalar", conf)
    assert code == 0, err
    # two-column CSVs load with a vanishing second component
    code, out, _ = run_cli("check", conf, str(tmp_path / "out" / "u0.csv"))
    assert code == 0
    assert re.search(r"^residual_v=0\b", out, re.M)


@pytest.mark.parametrize("extra", ["", "beta_list = [2.0]\n"],
                         ids=["no-beta", "beta_list-only"])
def test_check_of_a_vector_state_requires_beta(coupled_run, tmp_path, extra):
    # judged at β = 0, the β = 2 vector state would fail a misleading clause
    root, _, _ = coupled_run
    conf = write_conf(tmp_path / "c.conf",
                      f"f.family = cubic\ngrid.N = 1600\n{extra}")
    code, out, err = run_cli("check", conf, str(root / "out" / "state.csv"))
    assert code == 1 and out == ""
    assert "config error" in err and "beta is required" in err


def test_check_of_a_state_with_a_zero_component_needs_no_beta(tmp_path,
                                                              cubic_scalar):
    # the coupling terms vanish with either component, so β cannot matter
    conf = write_conf(tmp_path / "c.conf", "f.family = cubic\n")
    w = cubic_scalar.profile
    write_state_csv(State(Profile.zero(w.grid), w), tmp_path / "v.csv")
    code, out, err = run_cli("check", conf, str(tmp_path / "v.csv"))
    assert code == 0, err
    assert re.search(r"^morse_index=1$", out, re.M)


def test_a_coarse_scalar_profile_fails_check_where_coupled_passes(tmp_path):
    # at R = 20 the cubic's scalar profile misses the Pohozaev clause by the
    # quadrature's O(h²) up to N = 2000 (|J| = 9.9e-5 against 5.8e-5 here);
    # `coupled` projects that profile onto J = 0 before judging it
    conf = write_conf(tmp_path / "c.conf", f"""
f.family = cubic
beta = 0.5
grid.N = 1600
output.dir = {tmp_path / 'out'}
""")
    code, _, err = run_cli("scalar", conf)
    assert code == 0, err
    code, _, err = run_cli("check", conf, str(tmp_path / "out" / "u0.csv"))
    assert code == 3 and "pohozaev" in err
    code, out, err = run_cli("coupled", conf)
    assert code == 0 and "kind=scalar_u" in out, err
    code, _, err = run_cli("check", conf, str(tmp_path / "out" / "state.csv"))
    assert code == 0, err


def test_check_bad_inputs(coupled_run, tmp_path):
    root, conf, _ = coupled_run
    code, _, err = run_cli("check", conf, str(tmp_path / "missing.csv"))
    assert code == 1
    assert "error:" in err
    other_conf = write_conf(tmp_path / "other.conf",
                            "f.family = cubic\ngrid.N = 800\n")
    code, _, err = run_cli("check", other_conf,
                           str(root / "out" / "state.csv"))
    assert code == 1
    assert "node count" in err


def test_unwritable_output_dir(tmp_path):
    # output.dir under a regular file: the solve succeeds, the write cannot
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    conf = write_conf(tmp_path / "s.conf", f"""
f.family = cubic
grid.N = 800
output.dir = {blocker / 'out'}
""")
    code, out, err = run_cli("scalar", conf)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_state_write_leaves_no_temp_file(monkeypatch, tmp_path):
    # the writer fails after the temp file exists: it is removed, no state
    # is renamed in, and the I/O error exits 1
    def partial(state, path):
        Path(path).write_text("r,u,v\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_state_csv", partial)
    conf = write_conf(tmp_path / "c.conf", f"""
f.family = cubic
beta = 2.0
grid.N = 1600
output.dir = {tmp_path / 'out'}
""")
    code, out, err = run_cli("coupled", conf)
    assert code == 1
    assert err.startswith("error:") and "disk full" in err
    out_dir = tmp_path / "out"
    assert not (out_dir / "state.csv").exists()
    assert not list(out_dir.glob("*.tmp"))


def test_config_error_exit(tmp_path):
    conf = write_conf(tmp_path / "bad.conf", "nonsense = true\n")
    code, _, err = run_cli("scalar", conf)
    assert code == 1
    assert "config error:" in err


def test_unallocatable_grid_exits_1(tmp_path):
    # 10**15 nodes exceed any address space, so nothing is allocated
    conf = write_conf(tmp_path / "huge.conf",
                      "f.family = cubic\ngrid.N = 1000000000000000\n")
    proc = subprocess.run([sys.executable, "-m", "nlsground", "scalar", conf],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: grid: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("body, message", [
    pytest.param(b"\xff\xfe", "cannot read config", id="not-utf8"),
    pytest.param(b"f.family = cubic\noutput.dir = None\n", "output.dir",
                 id="output.dir-None"),
])
def test_unreadable_config_exits_1(body, message, tmp_path):
    # bytes that are not UTF-8 raised UnicodeDecodeError, and a non-string
    # output.dir wrote into a directory named `None`
    conf = tmp_path / "c.conf"
    conf.write_bytes(body)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nlsground", "scalar",
                           str(conf)], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"config error: {message}")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "None").exists()


@pytest.mark.parametrize("R", ["1e-300", "1e200"])
def test_grid_past_the_float_range_exits_1(R, tmp_path):
    # R = 1e-300 divided by zero in the ball check, and R = 1e200 let numpy
    # warn of overflow before the config error
    conf = write_conf(tmp_path / "r.conf",
                      f"f.family = cubic\ngrid.R = {R}\ngrid.N = 64\n")
    proc = subprocess.run([sys.executable, "-m", "nlsground", "scalar", conf],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: grid: R = ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_outputs_take_the_mode_open_gives(tmp_path):
    # 0o666 less the umask, not the temp file's 0o600
    for umask, mode in [(0o022, 0o644), (0o077, 0o600)]:
        out = tmp_path / f"out{umask:o}"
        conf = write_conf(tmp_path / "s.conf",
                          f"f.family = cubic\ngrid.N = 800\noutput.dir = {out}\n")
        old = os.umask(umask)
        try:
            code, _, err = run_cli("scalar", conf)
        finally:
            os.umask(old)
        assert code == 0, err
        for name in ("u0.csv", "u0.report"):
            assert stat.S_IMODE((out / name).stat().st_mode) == mode, name


@pytest.mark.parametrize("command, key, value", [
    ("coupled", "beta", "1" + "0" * 400),
    ("sweep", "beta_list", "[0.5, " + "1" + "0" * 400 + "]"),
])
def test_beta_past_the_float_range_exits_1(command, key, value, tmp_path):
    # an int too large for a float is a config error, not a traceback
    conf = write_conf(tmp_path / "big.conf",
                      f"f.family = cubic\ngrid.N = 400\n{key} = {value}\n")
    proc = subprocess.run([sys.executable, "-m", "nlsground", command, conf],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"config error: {key}: int too large")
    assert "Traceback" not in proc.stderr


def test_module_entrypoint(tmp_path):
    conf = write_conf(tmp_path / "s.conf", f"""
f.family = cubic
grid.N = 800
output.dir = {tmp_path / 'out'}
""")
    proc = subprocess.run([sys.executable, "-m", "nlsground", "scalar", conf],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("a=")
    assert (tmp_path / "out" / "u0.csv").exists()


@pytest.mark.parametrize("command", ["scalar", "coupled"])
def test_huge_coefficient_exits_2(command, tmp_path):
    # a = 1e300 keeps W finite, but 6W overflows and t̄ = sqrt(K/(6W)) reads
    # 0: off the cone.  A subprocess, since tier-1 makes numpy's overflow
    # warning an error in-process.
    out = tmp_path / "out"
    conf = write_conf(tmp_path / "huge.conf", f"""
f.family = power_sum
f.terms = [(1e300, 3.0)]
beta = 1.0
grid.N = 400
output.dir = {out}
""")
    proc = subprocess.run([sys.executable, "-m", "nlsground", command, conf],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "off the cone" in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.tmp"))
    assert not (out / "state.csv").exists() and not (out / "u0.csv").exists()


_TERMS = st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(1.2, 4.5)),
                  min_size=1, max_size=2)
# most draws keep their config valid; the others set one invalid value
_INVALID = st.sampled_from([None] * 6 + [
    ("beta", "-1.0"), ("beta", "1e999"), ("grid.N", "400.5"),
    ("grid.N", "10"), ("f.terms", "[(1.0, 6.0)]"), ("g.terms", "[]"),
    ("f.terms", "[(True, 3.0)]"), ("f.terms", "[(1e999, 3.0)]"),
    ("g.terms", '[("1.0", 3.0)]')])


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(f=_TERMS, g=_TERMS, beta=st.floats(0.2, 3.0),
       N=st.sampled_from([400, 800]), invalid=_INVALID)
@example(f=[(1.4390811863748851, 2.661538484714544)],
         g=[(1.0, 3.826593723128285)], beta=2.3876456135900965, N=800,
         invalid=None)
@example(f=[(1.8605774100131578, 1.2)], g=[(0.5, 1.2)], beta=0.2, N=400,
         invalid=None)
@example(f=[(1.5, 3.0)], g=[(1.0, 3.0)], beta=2.0, N=400,
         invalid=("g.terms", '[("1.0", 3.0)]'))
def test_coupled_cli_exits_cleanly(f, g, beta, N, invalid):
    # every drawn run exits with a documented code and no traceback, leaves
    # no temp file, writes a state only on success, and that state re-checks
    keys = {"f.family": "power_sum", "f.terms": repr(f),
            "g.family": "power_sum", "g.terms": repr(g),
            "beta": repr(beta), "grid.N": str(N)}
    if invalid is not None:
        keys[invalid[0]] = invalid[1]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        conf = write_conf(Path(tmp) / "run.conf", "".join(
            f"{k} = {v}\n" for k, v in keys.items()) + f"output.dir = {out}\n")
        code, _, err = run_cli("coupled", conf)
        assert 0 <= code <= 4 and "Traceback" not in err
        assert invalid is None or code == 1
        assert not list(Path(tmp).rglob("*.tmp"))
        if code != 0:
            assert not (out / "state.csv").exists()
            return
        code, _, err = run_cli("check", conf, str(out / "state.csv"))
        assert code == 0, err


def test_singular_newton_step_exits_2(monkeypatch, tmp_path):
    monkeypatch.setattr(energy_mod, "dgbsv",
                        lambda kl, ku, ab, b, *args, **kwargs: (ab, None, b, 1))
    conf = write_conf(tmp_path / "s.conf", f"""
f.family = cubic
grid.N = 400
output.dir = {tmp_path / 'out'}
""")
    code, _, err = run_cli("scalar", conf)
    assert code == 2
    assert "error: singular Newton step at pivot 1" in err
