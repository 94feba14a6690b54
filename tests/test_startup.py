"""Start-up cost: importing thinshell loads numpy and no scipy; each suite loads
the scipy subpackages of its own solvers when it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import thinshell
from thinshell import clt

_DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.spatial", "scipy.special",
             "scipy.sparse", "scipy.sparse.linalg")

_IMPORT_AND_RUN = """
import sys
import thinshell, thinshell.cli, thinshell.clt
from thinshell.cli import ExperimentConfig, default_config, run
from thinshell.suites import CUBE
thinshell.clt.build_kernel()
loaded = [m for m in {deferred!r} if m in sys.modules]
for cfg in (ExperimentConfig("thinshell", [4, 8], 2000, [CUBE]), default_config("identities")):
    cfg.output_dir = {out!r}
    assert run(cfg) == 0
print("after import", loaded, "after runs", [m for m in {deferred!r} if m in sys.modules],
      "scipy", "scipy" in sys.modules)
"""


def _python(code: str, cwd, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(thinshell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_import_and_a_thinshell_run_leave_the_one_check_solvers_unloaded(tmp_path):
    proc = _python(_IMPORT_AND_RUN.format(deferred=_DEFERRED, out=str(tmp_path)), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "after import [] after runs [] scipy False"


_RUN_ONE = """
import sys
from thinshell.cli import default_config, main, run
suite, out = sys.argv[1:]
if suite == "version":
    assert main(["version"]) == 0
elif suite == "config-error":
    assert main(["thinshell", "--seed", "-1"]) == 2
else:
    cfg = default_config(suite)  # given only the inputs the suite reads
    if cfg.n_grid is not None:
        cfg.n_grid, cfg.samples = [16], 10 ** 4
    cfg.output_dir = out
    assert run(cfg) == 0
print("loaded", [m for m in {deferred!r} if m in sys.modules])
"""

# the scipy subpackages that one cli.run of each suite loads; the transport
# suite's exact assignment is solved in numpy, so no suite loads scipy.optimize
# or the scipy.spatial that it imports
_LOADED_BY = {
    "thinshell": [],
    "identities": [],
    "berry_esseen": ["scipy.special"],  # erfc of the normal CDF
    "spectral": ["scipy.special", "scipy.sparse", "scipy.sparse.linalg"],
    "transport": ["scipy.special", "scipy.sparse", "scipy.sparse.linalg"],
    "clt": ["scipy.special"],  # erfc of the normal tail, sici of the kernel's far tail
    "version": [],
    "config-error": [],
}


@pytest.mark.parametrize("suite", list(_LOADED_BY))
def test_each_suite_loads_only_its_own_scipy(tmp_path, suite):
    proc = _python(_RUN_ONE.format(deferred=_DEFERRED), tmp_path, suite, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"loaded {_LOADED_BY[suite]}"


def test_the_kernel_moment_check_integrates_through_clt_quad(monkeypatch):
    quad = clt.quad
    calls = []
    monkeypatch.setattr(clt, "quad", lambda *a, **kw: calls.append(a[1:3]) or quad(*a, **kw))
    mass = clt.kernel_moment_by_quadrature(clt.build_kernel(), 0)
    assert calls == [(0.0, clt._MOMENT_CUT)]
    assert mass == pytest.approx(1.0, abs=1e-10)
