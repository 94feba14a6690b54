"""The thinshell suite draws each (body, n) once and reduces it block by block;
the berry_esseen suite runs each of its dimensions once."""

import json
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from thinshell import sampler as smp
from thinshell.cli import parse_config, run
from thinshell.estimators import thin_shell_stats, weighted_square_variance
from thinshell.reporting import render_csv
from thinshell.suites import (
    BALL,
    CUBE,
    L1_BALL,
    BodyTemplate,
    _thinshell_task,
    berry_esseen_suite,
    thinshell_suite,
)

SEED = 515
FOR_EACH_BLOCK = smp.for_each_block


@pytest.mark.parametrize("template", [CUBE, BALL, BodyTemplate("lp_ball", 3.0)])
def test_blockwise_reduction_matches_the_full_matrix(template):
    # 40000 draws span three sampler blocks, the last one short
    n, count = 24, 40000
    a = np.random.default_rng(3).uniform(0.0, 2.0, size=(3, n))
    label, stats, weighted = _thinshell_task(template, n, count, SEED, a)
    full = smp.sample_exact(template.instantiate(n), count, SEED).data
    assert label == template.instantiate(n).label()
    assert stats == thin_shell_stats(np.einsum("ij,ij->i", full, full), n)
    for ak, got in zip(a, weighted):
        assert got == weighted_square_variance((full ** 2) @ ak, ak)


def test_each_body_and_dimension_is_drawn_once(monkeypatch):
    drawn = Counter()
    draw = smp.for_each_block

    def counting(body, count, seed, visit):
        drawn[body.label()] += 1
        return draw(body, count, seed, visit)

    monkeypatch.setattr(smp, "for_each_block", counting)
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


def _reports_at(monkeypatch, threads):
    """thinshell and berry_esseen report.csv text with the drawing pool at
    ``threads`` threads, and the order in which each draw's blocks were reduced.
    With more than one thread, each draw's first block is reduced last."""
    monkeypatch.setattr(smp, "_usable_cores", lambda: threads)
    orders = []

    def first_block_last(body, count, seed, visit):
        blocks = -(-count // smp.BLOCK)
        order = []
        others_done = threading.Event()

        def late_first(rows, block):
            if rows.start == 0 and threads > 1:
                assert others_done.wait(timeout=30)
            visit(rows, block)
            order.append(rows.start // smp.BLOCK)
            if len(order) == blocks - 1:
                others_done.set()

        FOR_EACH_BLOCK(body, count, seed, late_first)
        orders.append(order)

    monkeypatch.setattr(smp, "for_each_block", first_block_last)
    # seven blocks, the last one short: the fewest rows that three threads draw
    count = 6 * smp.BLOCK + 500
    thin = thinshell_suite([CUBE, BALL, L1_BALL, BodyTemplate("lp_ball", 3.0)], [4, 16],
                           count, SEED, shell_n=(16, 32))
    be = berry_esseen_suite(SEED, cube_ns=(16,), counter_ns=(16,), samples=count)
    return render_csv(thin.rows), render_csv(be.rows), orders


def test_reports_do_not_depend_on_the_thread_count(monkeypatch):
    thin1, be1, orders1 = _reports_at(monkeypatch, 1)
    thin3, be3, orders3 = _reports_at(monkeypatch, 3)
    assert thin1 == thin3
    assert be1 == be3
    assert len(orders1) == len(orders3) == 12  # 11 thinshell draws, 1 cube marginal
    assert all(order == list(range(7)) for order in orders1)
    assert all(order[-1] == 0 and sorted(order) == list(range(7)) for order in orders3)


def _thinshell_peak_mb():
    tracemalloc.start()
    try:
        thinshell_suite([CUBE], [64, 128, 256], 10 ** 5, SEED)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_peak_memory_stays_below_one_sample_matrix():
    assert _thinshell_peak_mb() < 10 ** 5 * 256 * 8 / 1e6  # 204.8 MB


def test_peak_memory_stays_below_one_sample_matrix_on_a_many_core_host(monkeypatch):
    # one drawing buffer per core would hold 7 blocks, 234.9 MB at n = 256
    monkeypatch.setattr(smp, "_usable_cores", lambda: 64)
    assert _thinshell_peak_mb() < 10 ** 5 * 256 * 8 / 1e6


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


def test_counterexample_draws_of_two_dimensions_share_no_values(monkeypatch):
    # a seed + n offset made the n = 64 draw at SEED the n = 16 draw at SEED + 48
    drawn = []
    draw = smp.counterexample_marginal

    def recording(n, count, theta, seed):
        drawn.append(draw(n, count, theta, seed))
        return drawn[-1]

    monkeypatch.setattr(smp, "counterexample_marginal", recording)
    berry_esseen_suite(SEED, cube_ns=(), counter_ns=(64,), samples=2000)
    berry_esseen_suite(SEED + 48, cube_ns=(), counter_ns=(16,), samples=2000)
    # uniform theta makes both marginals sqrt(3) (2u - 1), so shared uniforms
    # give values equal up to rounding
    values = np.sort(np.concatenate(drawn))
    assert values.size == 4000
    assert np.diff(values).min() > 1e-12
