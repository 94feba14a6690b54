"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 5's scaling clause asserts the 1/n law of the sup error at
sigma = 2/sqrt(n), slope in [-1.15, -0.85], over n in {256, ..., 2048}.  The
kernel pinned by the contract has E Gamma^2 = 3360/151 ~ 22.25, so the
smoothing variance (2/sqrt(n))^2 E Gamma^2 ~ 89/n; the law only shows once
that variance is small, and 256 is the first power of two where it is at most
1/2.  Over n in {8, ..., 64} it is of order one and the slope reads -0.455,
although the sup errors there are right: test_clt.py checks them against an
independent real-space evaluation and checks the 1/n limit.
"""

import csv
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from thinshell.cli import default_config, parse_config, run
from thinshell.reporting import render_csv
from thinshell.suites import (
    _COMPARISON_TOL,
    BALL,
    CUBE,
    L1_BALL,
    berry_esseen_suite,
    clt_suite,
    identities_suite,
    spectral_suite,
    thinshell_suite,
    transport_suite,
)

SEED = 20250810
GOLDEN = Path(__file__).resolve().parent / "golden"  # written by scripts/write_golden.py
# the assertions each suite makes at its CLI defaults
ASSERTION_COUNTS = {"identities": 12, "thinshell": 30, "clt": 13, "berry_esseen": 13,
                    "transport": 27, "spectral": 14}


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def _check(result, prefix: str, criterion: str):
    subset = [a for a in result.assertions if a.name.startswith(prefix)]
    assert subset, f"no assertions with prefix {prefix}"
    passed = all(a.passed for a in subset)
    detail = "; ".join(f"{a.name}={a.measured:.4g}" for a in subset[:6])
    _report(criterion, passed, detail)
    assert passed, [f"{a.name}: measured {a.measured}, wanted {a.target}"
                    for a in subset if not a.passed]


@pytest.fixture(scope="module")
def thinshell_result():
    start = time.monotonic()
    result = thinshell_suite([CUBE], [4, 8, 16, 32, 64, 128, 256], 10 ** 5, SEED,
                             shell_n=(16, 64), shell_templates=(CUBE, L1_BALL, BALL))
    result.elapsed = time.monotonic() - start
    return result


@pytest.fixture(scope="module")
def identities_result():
    return identities_suite()


@pytest.fixture(scope="module")
def clt_result():
    return clt_suite(SEED, scaling_ns=(256, 512, 1024, 2048))


@pytest.fixture(scope="module")
def berry_esseen_result():
    return berry_esseen_suite(SEED, cube_ns=(16, 64, 256), counter_ns=(16, 256),
                              samples=10 ** 5)


@pytest.fixture(scope="module")
def transport_result():
    return transport_suite(SEED, raster_h=1 / 32)


@pytest.fixture(scope="module")
def spectral_result():
    return spectral_suite(SEED)


def test_c01_thin_shell_law(thinshell_result):
    _check(thinshell_result, "thinshell.var_ratio.cube", "01a thin-shell 0.8/n, 3 sigma, all n")
    _check(thinshell_result, "thinshell.slope.cube", "01b thin-shell slope in [-1.15, -0.85]")
    _report("01c runtime <= 2 min", thinshell_result.elapsed <= 120,
            f"{thinshell_result.elapsed:.1f} s")
    assert thinshell_result.elapsed <= 120


def test_c02_shell_deviation(thinshell_result):
    _check(thinshell_result, "shell_dev.", "02 E(|X|-sqrt n)^2 <= 16, three bodies, n in {16,64}")


def test_c02b_report_has_no_duplicate_rows(thinshell_result):
    # the shell checks reuse the grid's draws instead of writing their rows again
    lines = render_csv(thinshell_result.rows).splitlines()
    assert len(lines) == len(set(lines))
    assert all(len(f) == 9 for f in csv.reader(lines))


def test_c03_weighted_square_bound(thinshell_result):
    _check(thinshell_result, "weighted_square.",
           "03 Var(sum a X^2) <= 16 sum a^2, sup over a >= 0 from Var X_1^2 and Cov(X_1^2, X_2^2)")


def test_c04_identities(identities_result):
    assert len(identities_result.assertions) == 12
    _check(identities_result, "identity.", "04 identities exact to 1e-10 on the 12-point grid")


def test_c05a_oracle_equivalence(clt_result):
    _check(clt_result, "lemma700.oracle_equivalence",
           "05a Fourier vs 2^n enumeration <= 1e-6, 100 instances, n <= 16")


def test_c05b_sup_error_scaling(clt_result):
    # slope in [-1.15, -0.85] at sigma = 2/sqrt(n), n in {256,...,2048}, where
    # the smoothing variance 89/n is at most 1/2 (see module docstring)
    _check(clt_result, "lemma700.scaling", "05b sup-error scaling slope, sigma = 2/sqrt(n)")


def test_c05c_default_scaling_range_needs_no_note(clt_result):
    # from n = 256 on the smoothing variance 89/n is at most 1/2
    assert clt_result.notes == []


def test_c06_kernel_contract(clt_result):
    _check(clt_result, "kernel.", "06 kernel: support, bounds, density, sixth moment")


def test_c07_counterexample_non_gaussianity(berry_esseen_result):
    _check(berry_esseen_result, "berry_esseen.counterexample",
           "07 counterexample marginal exact distance >= 0.045, = 0.0572067 +- 1e-6, "
           "n in {16,256}")


def test_c08_berry_esseen_trend(berry_esseen_result):
    _check(berry_esseen_result, "berry_esseen.cube",
           "08 cube marginal exact distance <= 10/n and n dist within 0.012/n of "
           "its Edgeworth limit 0.0275294, n in {16,64,256}")
    _check(berry_esseen_result, "berry_esseen.sampler",
           "08b cube and counterexample samplers within 3 DKW of their exact laws")


def test_c09_transport_duality(transport_result):
    _check(transport_result, "thm258.", "09 dual norm 1.0328 +- 1e-10, ratio within 2% at eps 0.01")


def test_c10_variance_bound(transport_result):
    _check(transport_result, "lemma21.", "10 Var <= dual-norm bound, square and disc, 7 functions")


def test_c11_spectral(spectral_result):
    _check(spectral_result, "spectral.square.lambda1", "11a square lambda1 2.4674 +- 1e-6 relative")
    _check(spectral_result, "spectral.disc.lambda1", "11b disc lambda1 3.390 +- 1e-6 relative")
    _check(spectral_result, "spectral.l1.lambda1", "11h l1 ball lambda1 pi^2/2 +- 1e-6 relative")
    _check(spectral_result, "spectral.multiplicity", "11c multiplicity 2 on both")
    _check(spectral_result, "spectral.bias_rank", "11d gradient-bias rank 2 on both")
    _check(spectral_result, "spectral.antisymmetric_member",
           "11e lowest odd flip class below the even class's first nonzero eigenvalue")
    _check(spectral_result, "spectral.cube_comparison",
           "11f lambda1(body) >= (1 - 0.1%) lambda1(cube) for disc and l1 ball")
    _check(spectral_result, "spectral.flip_classes",
           "11g flip classes together = whole-raster spectrum to 1e-10, 3 rasters")
    assert any("4x" in note for note in spectral_result.notes)


def test_rows_support_their_verdicts(transport_result, spectral_result):
    # the suites decide each verdict from the values their rows carry
    verdicts = {a.name: a.passed
                for result in (transport_result, spectral_result) for a in result.assertions}

    def rows(result, estimator_id):
        found = [r for r in result.rows if r.estimator_id == estimator_id]
        assert found, estimator_id
        return found

    for row in rows(transport_result, "lemma21.variance_bound"):
        name = "lemma21." + row.body.replace(":", ".")
        assert verdicts[name] == (row.value <= row.bound + row.extra["tolerance"]), name
    for row in rows(spectral_result, "spectral.antisymmetric_margin"):
        assert verdicts[f"spectral.antisymmetric_member.{row.body}"] == (row.value > row.bound)
    for row in rows(spectral_result, "spectral.cube_comparison"):
        assert verdicts[f"spectral.cube_comparison.{row.body}"] == (
            row.value >= (1 - _COMPARISON_TOL) * row.bound)


def test_c12_determinism(tmp_path):
    text = """
[experiment]
name = thinshell
n_grid = 4 8 16
samples = 2000
seed = 77

[body.cube]
kind = cube
"""
    blobs = []
    for sub in ("r1", "r2"):
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path / sub)
        assert run(cfg) in (0, 1)
        blobs.append((tmp_path / sub / "report.csv").read_bytes())
    identical = blobs[0] == blobs[1]
    _report("12 byte-identical report.csv on rerun", identical, f"{len(blobs[0])} bytes")
    assert identical


def test_c12_lattice_suites_rerun_byte_identical(spectral_result, transport_result):
    for first, rerun in [(spectral_result, spectral_suite(SEED)),
                         (transport_result, transport_suite(SEED))]:
        blobs = [render_csv(r.rows).encode() for r in (first, rerun)]
        identical = blobs[0] == blobs[1]
        _report(f"12 byte-identical {first.name} report.csv on rerun", identical,
                f"{len(blobs[0])} bytes")
        assert identical


def _golden_tolerance(key: str, row_value: float) -> dict:
    """math.isclose tolerances of a float field of a golden row, by its extra key.

    Two spectral fields are rounding noise.  A change of the disc's cut-cell fractions
    below 2.9e-12 moved the eigen residuals, 8e-13 to 4.7e-12, by up to 5.8%
    while no eigenvalue moved by more than 1.7e-15 relative; and it moved the
    Richardson order, log2 of a ratio of differences some 6,000x smaller than
    lambda_1, by 2.0e-11 relative.  The lowest value of each eigen report is
    the constants' 0 up to rounding (-1.3e-12 and -3.3e-13), so the reported
    eigenvalues are compared relative to lambda_1, the row's value.

    The rounding errors that other rows report need none: the identity errors
    (0 to 2.8e-14), the oracle gap (4.8e-16) and the pushforward defect
    (2.2e-12) read the same bits at one and two BLAS threads and on one core,
    so a change that moves them is a change of arithmetic and regenerates the files."""
    if key == "residuals":
        return {"rel_tol": 0.0, "abs_tol": 1e-11}
    if key == "order":
        return {"rel_tol": 1e-9}
    if key == "lambda":
        return {"rel_tol": 1e-12, "abs_tol": 1e-12 * abs(row_value)}
    return {"rel_tol": 1e-12}


def _golden_match(want, got, tol: dict) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return (math.isnan(want) and math.isnan(got)) or math.isclose(want, got, **tol)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(_golden_match(w, g, tol) for w, g in zip(want, got))
    return type(want) is type(got) and want == got


@pytest.mark.parametrize("suite", ASSERTION_COUNTS)
def test_c12_report_matches_its_golden_file(request, suite):
    # integer and text fields exactly, floats to 1e-12 relative but for the noise
    # above; the suite fixtures' configs are the CLI defaults the files are written at
    want = list(csv.reader((GOLDEN / f"{suite}.csv").read_text().splitlines()))
    result = request.getfixturevalue(f"{suite}_result")
    got = list(csv.reader(render_csv(result.rows).splitlines()))
    assert got[0] == want[0] and len(got) == len(want)
    moved = []
    for w, g in zip(want[1:], got[1:]):
        value = float(w[5])
        w_extra, g_extra = (json.loads(e) if e else {} for e in (w[8], g[8]))
        if not (w[:5] == g[:5] and w_extra.keys() == g_extra.keys()
                and all(_golden_match(float(a), float(b), _golden_tolerance("", value))
                        for a, b in zip(w[5:8], g[5:8]))
                and all(_golden_match(w_extra[k], g_extra[k], _golden_tolerance(k, value))
                        for k in w_extra)):
            moved.append((w, g))
    _report(f"12 {suite} report.csv matches tests/golden/{suite}.csv", not moved,
            f"{len(want) - 1} rows, {len(moved)} moved")
    assert not moved


def _stated_interval(target: str) -> list[float]:
    """The [lo, hi] that an assertion's target text states."""
    op, _, rest = target.partition(" ")
    if op == "in":
        return [float(edge) for edge in rest.strip("[]").split(", ")]
    value = float(rest)
    return {"=": [value, value], "<=": [-math.inf, value], ">=": [value, math.inf]}[op]


@pytest.mark.parametrize("suite", ASSERTION_COUNTS)
def test_each_verdict_is_its_interval(request, suite):
    # the target text states [lo, hi] exactly; measured at either edge passes,
    # one float past it or NaN fails
    result = request.getfixturevalue(f"{suite}_result")
    assert len(result.assertions) == ASSERTION_COUNTS[suite]
    for a in result.assertions:
        assert _stated_interval(a.target) == [a.lo, a.hi], a
        assert not dataclasses.replace(a, measured=math.nan).passed, a.name
        for edge, outward in [(a.lo, -math.inf), (a.hi, math.inf)]:
            if math.isfinite(edge):
                at, past = (dataclasses.replace(a, measured=v)
                            for v in (edge, math.nextafter(edge, outward)))
                assert at.passed and not past.passed, a.name


@pytest.mark.parametrize("fixture, names", [
    ("berry_esseen_result", {"kolmogorov_vs_n.svg"}),
    ("spectral_result", {"eigenfunction_square.svg", "eigenfunction_disc.svg"}),
])
def test_suites_return_their_figures_and_run_writes_them_only_to_plot(
        request, tmp_path, monkeypatch, capsys, fixture, names):
    result = request.getfixturevalue(fixture)
    assert set(result.figures) == names
    assert all(render().startswith("<svg") for render in result.figures.values())
    monkeypatch.setattr(f"thinshell.cli.{result.name}_suite", lambda *a, **kw: result)
    for plot in (False, True):
        cfg = default_config(result.name)
        cfg.output_dir, cfg.plot = str(tmp_path / str(plot)), plot
        run(cfg)
        written = {p.name for p in (tmp_path / str(plot)).glob("*.svg")}
        assert written == (names if plot else set())
    capsys.readouterr()
