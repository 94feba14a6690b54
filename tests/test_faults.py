"""Fault injection: a wrong lattice operator or flip-class extension must fail
at least one suite assertion.

Each fault monkeypatches the function that builds the operator or the
extension, then runs the transport suite at raster spacing 1/32 (and, for the
extension, the spectral suite).
"""

import pytest

from thinshell import spectral, suites, transport

SEED = 20250810


def _failed_with(monkeypatch, module, scale):
    build = module.graph_laplacian
    monkeypatch.setattr(module, "graph_laplacian", lambda *args: scale * build(*args))
    result = suites.transport_suite(SEED, raster_h=1 / 32)
    return [a.name for a in result.assertions if not a.passed]


def test_a_small_1d_operator_fails_thm258(monkeypatch):
    failed = _failed_with(monkeypatch, transport, 1e-3)
    assert failed == ["thm258.norm_value", "thm258.ratio_at_0.01", "thm258.duality"]


def test_a_large_raster_operator_fails_every_lemma21_bound(monkeypatch):
    failed = _failed_with(monkeypatch, spectral, 1e3)
    bounds = [name for name in failed if name.startswith("lemma21.")
              and not name.endswith(".closed_form")]
    assert len(bounds) == 14


@pytest.mark.parametrize("scale", [1e-3, 0.98])
def test_a_small_raster_operator_fails_the_closed_form(monkeypatch, scale):
    # a smaller operator only inflates the dual-norm bound, so the one-sided
    # Lemma 2.1 checks pass; the closed-form target of the square's x^2 does not
    assert _failed_with(monkeypatch, spectral, scale) == ["lemma21.cube(n=2).x^2.closed_form"]


def test_a_sign_error_in_the_parity_extension_fails_both_lattice_suites(monkeypatch):
    # every reflection carries the wrong sign, so each class is its opposite:
    # each Lemma 2.1 gradient is solved in the wrong class, and the constants
    # turn up in the odd-odd class; the class spectra together stay right
    flip_class = spectral.GridDomain.flip_class
    monkeypatch.setattr(spectral.GridDomain, "flip_class",
                        lambda grid, odd: flip_class(grid, tuple(not o for o in odd)))
    result = suites.transport_suite(SEED, raster_h=1 / 32)
    assert [a.name for a in result.assertions if not a.passed] == [
        "lemma21.cube(n=2).x^2.closed_form"]
    failed = [a.name for a in suites.spectral_suite(SEED).assertions if not a.passed]
    assert failed == [f"spectral.flip_classes.{body}" for body in
                      ("cube(n=2)", "euclidean_ball(n=2)", "lp_ball(p=1,n=2)")]
