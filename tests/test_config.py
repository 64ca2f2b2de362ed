from __future__ import annotations

from pathlib import Path

import pytest

from nlsground.config import load_config, parse_config
from nlsground.errors import ConfigError
from nlsground.nonlinearity import eval_f


def test_minimal_config_defaults():
    cfg = parse_config("f.family = cubic\n")
    assert cfg.grid.R == 20.0 and cfg.grid.N == 4000
    assert cfg.g is cfg.f
    assert cfg.beta is None
    assert cfg.beta_list is None
    assert cfg.output_dir == Path(".")


def test_full_config_round_trip():
    text = """
# coupled run
grid.R = 18.0
grid.N = 1600
f.family = power_sum
f.terms = [(1.0, 3.0), (0.5, 2.5)]
g.family = log_enhanced
g.amplitude = 2.0
beta = 1.5                      # coupling
beta_list = [0.5, 1.0, 2.0]
seed = 7
output.dir = runs/demo
"""
    cfg = parse_config(text)
    assert cfg.grid.R == 18.0 and cfg.grid.N == 1600
    assert cfg.f.family == "power_sum"
    assert eval_f(cfg.f, 2.0) == pytest.approx(8.0 + 0.5 * 2.0 ** 2.5)
    assert cfg.g.family == "log_enhanced"
    assert cfg.beta == 1.5
    assert cfg.beta_list == (0.5, 1.0, 2.0)
    assert cfg.output_dir == Path("runs/demo")


def test_distinct_g_family():
    cfg = parse_config("f.family = cubic\ng.family = log_enhanced\n")
    assert cfg.g is not cfg.f
    assert cfg.g.family == "log_enhanced"


@pytest.mark.parametrize("text, fragment", [
    ("bogus = 1\nf.family = cubic\n", "unknown keys"),
    ("f.family = cubic\nf.family = cubic\n", "duplicate"),
    ("grid.R = 20.0\n", "f.family is required"),
    ("f.family = sine\n", "unknown family"),
    ("f.family = cubic\nf.terms = [(1.0, 3.0)]\n", "no extra keys"),
    ("f.family = log_enhanced\nf.terms = [(1.0, 3.0)]\n", "no terms"),
    ("f.family = power_sum\nf.terms = 3\n", "list"),
    ("f.family = power_sum\nf.terms = []\n", "at least one \\(a, p\\) pair"),
    ("f.family = power_sum\n", "at least one \\(a, p\\) pair"),
    ("f.family = power_sum\nf.terms = [(1.0, 6.0)]\n", "exponent"),
    ("f.family = cubic\nbeta = 0\n", "positive"),
    ("f.family = cubic\nbeta = -2\n", "positive"),
    ("f.family = cubic\nbeta = True\n", "number"),
    ("f.family = cubic\nbeta_list = [2.0, 1.0]\n", "sorted"),
    ("f.family = cubic\nbeta_list = [1.0, -1.0]\n", "sorted|positive"),
    ("f.family = cubic\nbeta_list = 2.0\n", "list"),
    ("f.family = cubic\nbeta = 1e999\n", "beta must be finite"),
    ("f.family = cubic\nbeta_list = [0.5, 1e999]\n", "entries must be finite"),
    ("f.family = cubic\ngrid.R = 1e999\n", "grid: R must be positive and finite"),
    # weights or fluxes past the float range: no division by zero, and no
    # numpy overflow warning first
    ("f.family = cubic\ngrid.R = 1e-300\ngrid.N = 64\n", "^grid: "),
    ("f.family = cubic\ngrid.R = 1e200\ngrid.N = 64\n", "^grid: "),
    # malformed nonlinearity values are config errors, not tracebacks
    ("f.family = log_enhanced\nf.amplitude = [1]\n", "^f: "),
    ("f.family = power_sum\nf.terms = [None]\n", "^f: "),
    ("f.family = power_sum\nf.terms = [1, 2]\n", "^f: "),
    ("f.family = cubic\nseed = 1.5\n", "integer"),
    ("f.family = cubic\nseed = False\n", "integer"),
    ("f.family = cubic\nf.bogus = 1\n", "unknown f"),
    ("f.family = cubic\nsolver.grad_tol = -1\n", "unknown keys"),
    # no solve shoots, so no shooting key configures a run
    ("f.family = cubic\nshooting.a_min = 5\nshooting.a_max = 1\n", "unknown keys"),
    ("f.family = cubic\nshooting.a_min = 0.5\n", "unknown keys"),
    ("f.family = cubic\nshooting.a_max = 30.0\n", "unknown keys"),
    ("f.family = cubic\nshooting.ode_step = 0.001\n", "unknown keys"),
    ("f.family = cubic\ngrid.N = 10\n", "grid"),
    # grid values are never truncated or coerced from a bool
    ("f.family = cubic\ngrid.N = 4000.7\n", "grid: N must be an integer"),
    ("f.family = cubic\ngrid.N = 4000.0\n", "grid: N must be an integer"),
    ("f.family = cubic\ngrid.N = True\n", "grid: N must be an integer"),
    ("f.family = cubic\ngrid.R = True\n", "grid: R must be a number"),
    # nonlinearity numbers are finite reals, never coerced from a bool or a
    # string
    ("f.family = log_enhanced\nf.amplitude = True\n",
     "^f: amplitude must be a finite real"),
    ('f.family = log_enhanced\nf.amplitude = "2"\n',
     "^f: amplitude must be a finite real"),
    ("f.family = log_enhanced\nf.amplitude = 1e999\n",
     "^f: amplitude must be a finite real"),
    ("f.family = power_sum\nf.terms = [(True, 3.0)]\n",
     "^f: coefficient must be a finite real"),
    ("f.family = power_sum\nf.terms = [(1e999, 3.0)]\n",
     "^f: coefficient must be a finite real"),
    ("f.family = power_sum\nf.terms = [(1.0, True)]\n",
     "^f: exponent must be a finite real"),
    ('f.family = cubic\ng.family = power_sum\ng.terms = [("1.0", 3.0)]\n',
     "^g: coefficient must be a finite real"),
    # an int past the float range is a config error, not a traceback
    pytest.param(f"f.family = power_sum\nf.terms = [(1{'0' * 400}, 3.0)]\n",
                 "^f: int too large", id="f.terms-int-past-float"),
    pytest.param(f"f.family = cubic\ngrid.R = 1{'0' * 400}\n",
                 "^grid: int too large", id="grid.R-int-past-float"),
    pytest.param("f.family = cubic\nbeta = " + "1" + "0" * 400 + "\n",
                 "^beta: int too large", id="beta-int-past-float"),
    pytest.param("f.family = cubic\nbeta_list = [0.5, " + "1" + "0" * 400
                 + "]\n", "^beta_list: int too large",
                 id="beta_list-int-past-float"),
    # 10**15 nodes exceed any address space: the allocation fails before
    # anything is allocated, and that is a config error too
    pytest.param("f.family = cubic\ngrid.N = 1000000000000000\n",
                 "^grid: Unable to allocate", id="grid.N-unallocatable"),
    ("f.family cubic\n", "key = value"),
    (" = 3\nf.family = cubic\n", "empty key"),
    ("f.family = @!\n", "cannot parse"),
    # the literal parser's TypeError, RecursionError and MemoryError
    ("f.family = cubic\nbeta = {[1]: 2}\n", "cannot parse"),
    pytest.param("f.family = cubic\nbeta = " + "-" * 5000 + "1\n",
                 "beta must be a number", id="beta-nested-5000-deep"),
    pytest.param("f.family = cubic\nbeta = " + "-" * 20000 + "1\n",
                 "beta must be a number", id="beta-nested-20000-deep"),
    ('f.family = cubic\noutput.dir = "runs/#1\n', "cannot parse"),
    # output.dir names a directory: a string, not empty and without a NUL
    *(pytest.param(f"f.family = cubic\noutput.dir = {raw}\n",
                   "^output.dir must be a non-empty string without NUL, got ",
                   id=f"output.dir-{name}")
      for name, raw in [("None", "None"), ("list", "[1]"), ("bytes", "b'x'"),
                        ("int", "5"), ("bool", "True"), ("empty", '""'),
                        ("nul", '"a\\x00b"')]),
    ("f.family = cubic\nseed = -1\n", "seed must be >= 0"),
    # the budget is a `SolveConfig` field only; the one descent start is
    # fixed in code, with no strategy or random-start count to choose
    ("f.family = cubic\nsolver.max_iters = 500\n", "unknown keys"),
    ("f.family = cubic\nsolver.init_strategy = scalar_pair\n", "unknown keys"),
    ("f.family = cubic\nsolver.n_random = 3\n", "unknown keys"),
    # the descent and bisection constants are fixed in code, not config keys
    ("f.family = cubic\nshooting.max_bisect = 2.5\n", "unknown keys"),
    ("f.family = cubic\nshooting.max_bisect = 0\n", "unknown keys"),
    ("f.family = cubic\nsolver.backtrack = 1.0\n", "unknown keys"),
    ("f.family = cubic\nsolver.armijo = 2\n", "unknown keys"),
    ("f.family = cubic\nsolver.step = 0.5\n", "unknown keys"),
    ("f.family = cubic\nsolver.classify_tol = 1e-5\n", "unknown keys"),
    ("f.family = cubic\nshooting.classify_radius = 15.0\n", "unknown keys"),
    # each family takes only its own keys, and none without a family
    ("f.family = power_sum\nf.terms = [(1.0, 3.0)]\nf.amplitude = 7\n",
     "power_sum takes no amplitude"),
    ("f.terms = [(1.0, 3.0)]\n", "^f.family is required when f.\\* is set"),
])
def test_rejected_configs(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    import re
    assert re.search(fragment, str(exc.value)), str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("f.family = cubic\nf.amplitude = 7\n", "f: cubic takes no extra keys"),
    ("f.family = log_enhanced\nf.terms = [(1.0, 3.0)]\n",
     "f: log_enhanced takes no terms"),
    ("f.family = cubic\ng.family = power_sum\ng.terms = [(1.0, 3.0)]\n"
     "g.amplitude = 7\n", "g: power_sum takes no amplitude"),
])
def test_family_key_errors_name_the_prefix_once(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# header\n\nf.family = cubic  # inline\n\n")
    assert cfg.f.family == "power_sum"  # cubic is a power_sum special case


def test_quoted_string_values():
    cfg = parse_config('f.family = "cubic"\noutput.dir = "runs/a b"\n')
    assert cfg.output_dir == Path("runs/a b")


def test_quoted_hash_is_not_a_comment():
    cfg = parse_config('f.family = cubic\noutput.dir = "runs/#1"  # note\n')
    assert cfg.output_dir == Path("runs/#1")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("f.family = cubic\nbeta = 2.0\n")
    cfg = load_config(path)
    assert cfg.beta == 2.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.conf")
