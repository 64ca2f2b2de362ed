"""The four LAPACK routines the solvers call, from scipy's `_flapack` alone.

`energy` calls `dgbsv` and `dpbtrf`, `coupled` calls `dpttrf` and `dpttrs`.
They live in scipy's compiled `linalg/_flapack` extension, which loads in a
few milliseconds.  `import scipy.linalg` costs about 0.3 s more, most of it
scipy's array-API layer and the `numpy.f2py` and `numpy.testing` it pulls
in, and every command would pay it before any work.  So `_load` finds the
extension file without importing scipy, loads it, and registers it in
`sys.modules` under its own name, `scipy.linalg._flapack`: a later
`import scipy.linalg` reuses that module, and the routines are scipy's own
objects.  Where the file is not at that place, `_load` imports it through
`scipy.linalg`.

`solve_banded` is bound in `coupled` and `scalar` only for the perfbench
tracer's PLAN, and nothing calls it; it imports scipy's `solve_banded`
when called.  It goes with B1a, which drops those PLAN entries.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _extension_file() -> str | None:
    """Path of scipy's `linalg/_flapack` extension, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load():
    """scipy's `_flapack` module, loaded from its file once per process."""
    path = _extension_file()
    if path is None:
        from scipy.linalg import _flapack
        return _flapack
    module = sys.modules.get(_NAME)
    if module is None:
        spec = importlib.util.spec_from_file_location(_NAME, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_NAME] = module
    return module


_flapack = _load()
dgbsv = _flapack.dgbsv
dpbtrf = _flapack.dpbtrf
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs


def solve_banded(*args, **kwargs):
    """scipy's `solve_banded`, imported on the call; bound for the tracer only."""
    from scipy.linalg import solve_banded as solve
    return solve(*args, **kwargs)
