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
import math
import time

import numpy as np
import pytest

from thinshell.cli import default_config, parse_config, run
from thinshell.reporting import render_csv
from thinshell.suites import (
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
def clt_result():
    return clt_suite(SEED, scaling_ns=(256, 512, 1024, 2048))


@pytest.fixture(scope="module")
def berry_esseen_result():
    return berry_esseen_suite(SEED, cube_ns=(16, 64, 256), counter_ns=(16, 256),
                              samples=10 ** 6)


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
    _check(thinshell_result, "weighted_square.", "03 Var(sum a X^2) <= 16 sum a^2, 20 random a")


def test_c04_identities():
    result = identities_suite()
    assert len(result.assertions) == 12
    _check(result, "identity.", "04 identities exact to 1e-10 on the 12-point grid")


def test_c05a_oracle_equivalence(clt_result):
    _check(clt_result, "lemma700.oracle_equivalence",
           "05a Fourier vs 2^n enumeration <= 1e-6, 100 instances, n <= 16")


def test_c05b_sup_error_scaling(clt_result):
    # slope in [-1.15, -0.85] at sigma = 2/sqrt(n), n in {256,...,2048}, where
    # the smoothing variance 89/n is at most 1/2 (see module docstring)
    _check(clt_result, "lemma700.scaling", "05b sup-error scaling slope, sigma = 2/sqrt(n)")


def test_c06_kernel_contract(clt_result):
    _check(clt_result, "kernel.", "06 kernel: support, bounds, density, sixth moment")


def test_c07_counterexample_non_gaussianity(berry_esseen_result):
    _check(berry_esseen_result, "berry_esseen.counterexample",
           "07 counterexample marginal distance >= 0.045, = 0.0572 +- 0.01, n in {16,256}")


def test_c08_berry_esseen_trend(berry_esseen_result):
    _check(berry_esseen_result, "berry_esseen.cube",
           "08 cube marginal distance <= max(3 DKW, 10/n), n in {16,64,256}")
    notes = [n for n in berry_esseen_result.notes if "floor" in n]
    _report("08b MC-floor notes", True, f"{len(notes)} note(s) on DKW-floor dominance")


def test_c09_transport_duality(transport_result):
    _check(transport_result, "thm258.", "09 dual norm 1.0328 +- 0.01, ratio within 2% at eps 0.01")


def test_c10_variance_bound(transport_result):
    _check(transport_result, "lemma21.", "10 Var <= dual-norm bound, square and disc, 7 functions")


def test_c11_spectral(spectral_result):
    _check(spectral_result, "spectral.square.lambda1", "11a square lambda1 2.467 +- 1%")
    _check(spectral_result, "spectral.disc.lambda1", "11b disc lambda1 3.390 +- 1%")
    _check(spectral_result, "spectral.multiplicity", "11c multiplicity 2 on both")
    _check(spectral_result, "spectral.bias_rank", "11d gradient-bias rank 2 on both")
    _check(spectral_result, "spectral.antisymmetric_member",
           "11e antisymmetric member, defect <= 1e-6")
    _check(spectral_result, "spectral.cube_comparison",
           "11f lambda1(body) >= lambda1(cube) for disc and l1 ball")


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
