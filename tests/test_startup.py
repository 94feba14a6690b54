"""Start-up cost: importing thinshell loads numpy, scipy.special and
scipy.sparse(.linalg) only; the solvers that a single check uses load on first
use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import thinshell
from thinshell import clt

_DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.spatial")

_IMPORT_AND_RUN = """
import sys
import thinshell, thinshell.cli, thinshell.clt
from thinshell.cli import ExperimentConfig, default_config, run
thinshell.clt.build_kernel()
loaded = [m for m in {deferred!r} if m in sys.modules]
for cfg in (ExperimentConfig("thinshell", [4, 8], 2000), default_config("identities")):
    cfg.output_dir = {out!r}
    assert run(cfg) == 0
print("after import", loaded, "after runs", [m for m in {deferred!r} if m in sys.modules])
"""


def test_import_and_a_thinshell_run_leave_the_one_check_solvers_unloaded(tmp_path):
    src = str(Path(thinshell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = _IMPORT_AND_RUN.format(deferred=_DEFERRED, out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "after import [] after runs []"


def test_the_kernel_moment_check_integrates_through_clt_quad(monkeypatch):
    quad = clt.quad
    calls = []
    monkeypatch.setattr(clt, "quad", lambda *a, **kw: calls.append(a[1:3]) or quad(*a, **kw))
    mass = clt.kernel_moment_by_quadrature(clt.build_kernel(), 0)
    assert calls == [(0.0, clt._MOMENT_CUT)]
    assert mass == pytest.approx(1.0, abs=1e-10)
