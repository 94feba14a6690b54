"""The benchmark's workloads.

Each workload runs thinshell suites at one seed, writes every suite's
report.csv and report.json under ``out/<suite>`` and returns the wall time of
each suite call (report writing included), the assertions read back from the
written report.json files and the report.csv bytes.

Suite entry points are looked up as module attributes at call time, so the
traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import contextlib
import datetime
import io
import json
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    passed: bool    # the suite's own verdict
    accepted: bool  # the benchmark's verdict, see _accepted


class Outcome(NamedTuple):
    suite_s: dict[str, float]
    assertions: list[Check]
    reports: dict[str, bytes]

    @property
    def wall_s(self) -> float:
        return sum(self.suite_s.values())


# Assertions that fail on the unchanged program, by name and number of failures
# per run.  acceptance: the clt suite's sup-error slope at sigma = 2/sqrt(n),
# the known red the README explains.  families: the euclidean ball (slope about
# -1.81) and the p=3 ball (about -1.46) decay faster than the product-body
# window [-1.15, -0.85] allows; the l1 ball's slope passes.  A failure beyond
# these counts as a failed operation of the benchmark.
EXPECTED_RED: dict[str, dict[str, int]] = {
    "acceptance": {"lemma700.scaling": 1},
    "families": {"thinshell.slope.euclidean_ball": 1, "thinshell.slope.lp_ball.p=3": 1},
    "lattice": {},
}

# The thinshell suite asserts Var(|X|^2/n) = 0.8/n for cubes within 3 Monte
# Carlo sigma, which a correct program misses at about one seed in twenty (at
# seeds 3, 42 and 53 of 1..60).  The benchmark accepts such a miss up to 5 sigma
# (a false alarm once in about two million checks); the miss still counts in
# assertions_failed.
_MC_ASSERTION = "thinshell.var_ratio."
_MC_SIGMAS = 5.0

RUN_ALL_SUITES = ("identities", "thinshell", "clt", "berry_esseen", "transport", "spectral")

# The clt suite's oracle draws the size n of each of its 100 instances from
# 1..16 with the seed and enumerates 2^n sign patterns for each.  Over seeds
# 1..10 that is 0.51M to 1.09M patterns, 4.3 s to 10.2 s of brute force, which
# made acceptance's wall_s depend on the seed more than on the program.  So
# acceptance runs the clt suite at the first seed of a sequence drawn from its
# own seed whose oracle enumerates within ORACLE_BAND of the mean number of
# patterns; the other suites run at the workload's seed.
ORACLE_INSTANCES = 100
ORACLE_MEAN_PATTERNS = ORACLE_INSTANCES * (2 ** 17 - 2) / 16
ORACLE_BAND = 0.01


def oracle_patterns(seed: int) -> int:
    """Sign patterns the clt suite's oracle enumerates at ``seed``: its draws,
    in the order the suite makes them, without the enumeration."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    total = 0
    for _ in range(ORACLE_INSTANCES):
        n = int(rng.integers(1, 17))
        rng.uniform(-1.0, 1.0, size=n)  # theta
        rng.uniform(0.05, 1.5)  # sigma
        rng.uniform(-3.0, 3.0)  # t
        total += 2 ** n
    return total


def clt_seed(seed: int) -> int:
    """``seed`` if its oracle work is typical, else the first such seed drawn
    from a generator keyed by ``seed``."""
    candidates = np.random.default_rng(seed)
    candidate = seed
    while abs(oracle_patterns(candidate) / ORACLE_MEAN_PATTERNS - 1.0) > ORACLE_BAND:
        candidate = int(candidates.integers(2 ** 63))
    return candidate


def _cli_run(cfg) -> None:
    from thinshell import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(cfg)
    if code not in (0, 1):  # 1 means an assertion failed; counted from report.json
        raise RuntimeError(f"thinshell {cfg.experiment} exited with code {code}")


def acceptance(seed: int, out: Path) -> Outcome:
    """scripts/run_all.py: every suite at its default_config, through cli.run;
    the clt suite at ``clt_seed(seed)``."""
    from thinshell import cli

    times = {}
    for name in RUN_ALL_SUITES:
        cfg = cli.default_config(name)
        cfg.seed = clt_seed(seed) if name == "clt" else seed
        cfg.output_dir = str(out / name)
        cfg.plot = True
        t0 = time.perf_counter()
        _cli_run(cfg)
        times[name] = time.perf_counter() - t0
    return _collect(times, out)


def families(seed: int, out: Path) -> Outcome:
    """scripts/thinshell_scaling.py: the thinshell suite over four body families."""
    from thinshell import cli
    from thinshell.suites import BALL, CUBE, L1_BALL, BodyTemplate

    bodies = [CUBE, BALL, L1_BALL, BodyTemplate("lp_ball", 3.0)]
    cfg = cli.ExperimentConfig(
        experiment="thinshell",
        bodies=bodies,
        n_grid=[4, 8, 16, 32, 64, 128],
        samples=10 ** 5,
        seed=seed,
        output_dir=str(out / "thinshell"),
        plot=True,
    )
    t0 = time.perf_counter()
    _cli_run(cfg)
    return _name_slopes(_collect({"thinshell": time.perf_counter() - t0}, out), bodies)


def lattice(seed: int, out: Path) -> Outcome:
    """Transport at raster spacing 1/128 on the square and disc, then spectral."""
    from thinshell import suites

    calls = (("transport", lambda: suites.transport_suite(seed, raster_h=1 / 128)),
             ("spectral", lambda: suites.spectral_suite(seed)))
    times = {}
    for name, call in calls:
        t0 = time.perf_counter()
        _write_report(call(), out / name, {"workload": "lattice", "seed": seed})
        times[name] = time.perf_counter() - t0
    return _collect(times, out)


def _write_report(result, out_dir: Path, echo: dict) -> None:
    from thinshell import __version__, reporting
    from thinshell.sampler import RNG_ID

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(reporting.render_csv(result.rows))
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    (out_dir / "report.json").write_text(
        reporting.render_json(result, echo, stamp, __version__, RNG_ID))


def _accepted(assertion: dict, rows: list[dict]) -> bool:
    if assertion["passed"]:
        return True
    if not assertion["name"].startswith(_MC_ASSERTION):
        return False
    label = assertion["name"][len(_MC_ASSERTION):]
    row = next(r for r in rows
               if r["estimator_id"] == "thin_shell.var_ratio" and r["body"] == label)
    return abs(row["value"] - 0.8 / row["n"]) <= _MC_SIGMAS / 3.0 * row["half_width"]


def _name_slopes(outcome: Outcome, bodies) -> Outcome:
    """Give each slope assertion the exponent of its body.  The suite names a
    slope by body kind only, so the l1 ball and the p=3 ball share a name; it
    makes the slopes in the order of its bodies."""
    bodies = iter(bodies)
    checks = []
    for c in outcome.assertions:
        if c.name.startswith("thinshell.slope."):
            body = next(bodies, None)
            if body is None or c.name != f"thinshell.slope.{body.kind}":
                raise RuntimeError("slope assertions no longer follow the order of the bodies")
            if body.p is not None:
                c = c._replace(name=f"{c.name}.p={body.p:g}")
        checks.append(c)
    return outcome._replace(assertions=checks)


def _collect(times: dict[str, float], out: Path) -> Outcome:
    checks, reports = [], {}
    for name in times:
        payload = json.loads((out / name / "report.json").read_text())
        checks += [Check(a["name"], bool(a["passed"]), _accepted(a, payload["rows"]))
                   for a in payload["assertions"]]
        reports[name] = (out / name / "report.csv").read_bytes()
    return Outcome(times, checks, reports)


WORKLOADS: dict[str, Callable[[int, Path], Outcome]] = {
    "acceptance": acceptance,
    "families": families,
    "lattice": lattice,
}
