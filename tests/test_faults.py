"""Fault injection: a wrong lattice operator must fail at least one suite
assertion.

Each fault scales one operator by monkeypatching the function that builds it,
then runs the transport suite at raster spacing 1/32.
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
