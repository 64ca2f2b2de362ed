"""`nlsground._lapack` loads scipy's `_flapack` extension without `scipy.linalg`.

A fresh interpreter that imports the package or runs the CLI must not pay
for `import scipy.linalg`, and the routines must be scipy's own objects,
from the file or, where it is not found, through `scipy.linalg`.
"""
from __future__ import annotations

import subprocess
import sys

import pytest
import scipy.linalg.lapack

import nlsground._lapack as lapack_mod

ROUTINES = ("dgbsv", "dpbtrf", "dpttrf", "dpttrs", "dsbev")


def _imported(args: list[str]) -> set[str]:
    # `-X importtime` logs each module the import system loads, one a line
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("args", [["-c", "import nlsground"],
                                  ["-c", "import nlsground.cli"],
                                  ["-m", "nlsground", "--help"]],
                         ids=["package", "cli", "help"])
def test_fresh_start_does_not_import_scipy_linalg(args):
    imported = _imported(args)
    assert "nlsground.energy" in imported
    assert not {"scipy", "scipy.linalg"} & imported


def test_routines_are_scipys():
    for name in ROUTINES:
        assert getattr(lapack_mod, name) is getattr(scipy.linalg.lapack, name)


def test_missing_extension_file_falls_back_to_scipy_linalg(monkeypatch):
    monkeypatch.setattr(lapack_mod, "_extension_file", lambda: None)
    flapack = lapack_mod._load()
    for name in ROUTINES:
        assert getattr(flapack, name) is getattr(scipy.linalg.lapack, name)
