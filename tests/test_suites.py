"""The thinshell suite draws each (body, n) once and reduces it block by block;
the berry_esseen suite runs each of its dimensions once."""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from thinshell import sampler as smp
from thinshell.cli import parse_config, run
from thinshell.estimators import WeightVector, thin_shell_stats, weighted_square_variance
from thinshell.suites import (
    BALL,
    CUBE,
    L1_BALL,
    BodyTemplate,
    _thinshell_task,
    thinshell_suite,
)

SEED = 515


@pytest.mark.parametrize("template", [CUBE, BALL, BodyTemplate("lp_ball", 3.0)])
def test_blockwise_reduction_matches_the_full_matrix(template):
    # 40000 draws span three sampler blocks, the last one short
    n, count = 24, 40000
    a = np.random.default_rng(3).uniform(0.0, 2.0, size=(3, n))
    label, stats, weighted = _thinshell_task((template, n, count, SEED, a))
    full = smp.sample_exact(template.instantiate(n), count, SEED).data
    assert label == template.instantiate(n).label()
    assert stats == thin_shell_stats(np.einsum("ij,ij->i", full, full), n)
    for ak, got in zip(a, weighted):
        w = WeightVector.coefficients(ak)
        assert got == weighted_square_variance((full ** 2) @ w.array, w)


def test_each_body_and_dimension_is_drawn_once(monkeypatch):
    drawn = Counter()
    blocks = smp.exact_blocks

    def counting(body, count, seed):
        drawn[body.label()] += 1
        return blocks(body, count, seed)

    monkeypatch.setattr(smp, "exact_blocks", counting)
    result = thinshell_suite([CUBE, L1_BALL], [4, 8, 16], 500, SEED, shell_n=(8, 32),
                             shell_templates=(CUBE, L1_BALL, BALL))
    keys = {(t, n) for t in (CUBE, L1_BALL) for n in (4, 8, 16)}
    keys |= {(t, n) for t in (CUBE, L1_BALL, BALL) for n in (8, 32)}
    assert len(keys) == 10
    assert set(drawn) == {t.instantiate(n).label() for t, n in keys}
    assert set(drawn.values()) == {1}
    rows = [(r.estimator_id, r.body) for r in result.rows]
    assert len(rows) == len(set(rows))
    assert sum(r.estimator_id == "cor204i.worst_margin" for r in result.rows) == 3


def test_peak_memory_stays_below_one_sample_matrix():
    matrix_mb = 10 ** 5 * 256 * 8 / 1e6  # 204.8 MB
    tracemalloc.start()
    try:
        thinshell_suite([CUBE], [64, 128, 256], 10 ** 5, SEED)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < matrix_mb


def test_non_cube_bodies_are_checked_against_the_bound():
    result = thinshell_suite([BALL], [4, 8, 16], 2000, SEED, shell_templates=())
    slopes = [r for r in result.rows if r.estimator_id == "thin_shell.loglog_slope"]
    assert [r.body for r in slopes] == ["euclidean_ball"]
    assert not [a for a in result.assertions if a.name.startswith("thinshell.slope.")]
    bounds = [a for a in result.assertions if a.name.startswith("thinshell.var_bound.")]
    assert [a.name for a in bounds] == [f"thinshell.var_bound.euclidean_ball(n={n})"
                                        for n in (4, 8, 16)]
    assert all(a.passed for a in bounds)
    assert not [a for a in result.assertions if a.name.startswith("thinshell.var_ratio.")]


def test_slope_rows_name_the_exponent():
    result = thinshell_suite([L1_BALL, BodyTemplate("lp_ball", 3.0)], [4, 8, 16], 500,
                             SEED, shell_templates=())
    slopes = [r.body for r in result.rows if r.estimator_id == "thin_shell.loglog_slope"]
    assert slopes == ["lp_ball(p=1)", "lp_ball(p=3)"]


@pytest.mark.parametrize("n_grid", ["64", "64 64"])
def test_berry_esseen_dimensions_are_distinct(tmp_path, n_grid):
    # the CLI passes counter_ns = (min, max) of n_grid, which is (64, 64) here
    cfg = parse_config(f"[experiment]\nname = berry_esseen\nn_grid = {n_grid}\n"
                       f"samples = 10000\noutput_dir = {tmp_path}\n")
    assert run(cfg) == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    names = [a["name"] for a in json.loads((tmp_path / "report.json").read_text())["assertions"]]
    assert len(lines) == len(set(lines)) == 5  # header, then 2 rows per law
    assert len(names) == len(set(names)) == 4
