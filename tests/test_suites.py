"""The thinshell suite draws each (body, n) once and reduces it block by block;
the berry_esseen suite runs each of its dimensions once."""

import json
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from thinshell import estimators as est
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


def _fourth(full):
    """sum_i X_i^4 / n of each row of a sample matrix."""
    squares = full ** 2
    return np.einsum("ij,ij->i", squares, squares) / full.shape[1]


@pytest.mark.parametrize("template", [CUBE, BALL, BodyTemplate("lp_ball", 3.0)])
def test_blockwise_reduction_matches_the_full_matrix(template):
    # 40000 draws span three sampler blocks, the last one short
    n, count = 24, 40000
    label, stats, v = _thinshell_task(template, n, count, SEED, True)
    full = smp.sample_exact(template.instantiate(n), count, SEED).data
    assert label == template.instantiate(n).label()
    assert stats == thin_shell_stats(np.einsum("ij,ij->i", full, full), n)
    moments = est._GroupMoments(1, count)
    moments.add(slice(0, count), _fourth(full)[None])
    mean = est._mean_estimate(moments.merged(), 0, "cor204i.v")
    assert (v.value, v.half_width) == (mean.value - 1.0, mean.half_width)


def _two_pass(y):
    """Variance and its half-width by numpy two-pass sums over the whole array."""
    d = y - y.mean()
    s2 = float(np.sum(d * d)) / (y.size - 1)
    m4 = float(np.sum(d ** 4)) / y.size
    return s2, 3.0 * np.sqrt(max(m4 - s2 * s2, 0.0) / y.size)


@pytest.mark.parametrize("threads", [1, 3])
def test_streamed_group_moments_match_two_pass_sums(monkeypatch, threads):
    # six blocks and 300 rows: three drawing threads, and a last group of 44 rows
    monkeypatch.setattr(smp, "_usable_cores", lambda: threads)
    n, count = 16, 6 * smp.BLOCK + 300
    assert count % smp.GROUP_ROWS == 44
    _, (var_ratio, shell_dev), v = _thinshell_task(CUBE, n, count, SEED, True)
    full = smp.sample_exact(CUBE.instantiate(n), count, SEED).data
    sq = np.einsum("ij,ij->i", full, full)
    dev = (np.sqrt(sq) - np.sqrt(n)) ** 2
    fourth = _fourth(full)
    expected = [_two_pass(sq / n),
                (float(dev.mean()), 3.0 * float(dev.std(ddof=1)) / np.sqrt(count)),
                (float(fourth.mean()) - 1.0, 3.0 * float(fourth.std(ddof=1)) / np.sqrt(count))]
    for got, (value, half_width) in zip([var_ratio, shell_dev, v], expected):
        assert got.value == pytest.approx(value, rel=1e-13)
        assert got.half_width == pytest.approx(half_width, rel=1e-13)


def _rows(result, label):
    """The suite's rows of one body by estimator id."""
    return {r.estimator_id: r for r in result.rows if r.body == label}


def test_the_weighted_square_margin_is_taken_against_16_sum_a_squared():
    # Cor 204(i): Var(sum a_i X_i^2) = (v - c)|a|^2 + c (sum a)^2 for an
    # exchangeable body, so the suite's v and c give the Monte Carlo variance
    # at any a of the same draws, and its sup over a >= 0 is held to 16
    n, count = 8, 20000
    result = thinshell_suite([], [], count, SEED, shell_n=(n,), shell_templates=(L1_BALL,))
    label = L1_BALL.instantiate(n).label()
    rows = _rows(result, label)
    v, c = rows["cor204i.v"], rows["cor204i.c"]
    full = smp.sample_exact(L1_BALL.instantiate(n), count, SEED).data
    for a in np.random.default_rng(7).uniform(-1.0, 2.0, size=(4, n)):
        a2, s2 = float(a @ a), float(a.sum()) ** 2
        direct = weighted_square_variance((full ** 2) @ a)
        form = (v.value - c.value) * a2 + c.value * s2
        tolerance = (v.half_width + c.half_width) * a2 + c.half_width * s2 + direct.half_width
        assert abs(form - direct.value) <= tolerance
    sup = rows["cor204i.sup_nonneg"]
    [check] = [a for a in result.assertions if a.name == f"weighted_square.{label}"]
    assert (sup.bound, check.measured, check.hi) == (16.0, sup.value, 16.0 + sup.half_width)


def test_the_covariance_of_squares_needs_two_coordinates():
    with pytest.raises(ValueError, match="n >= 2"):
        thinshell_suite([], [], 500, SEED, shell_n=(1,))


@pytest.mark.parametrize("n", [16, 64])
def test_v_and_c_match_their_closed_forms(n):
    # v = Var X_1^2 and c = Cov(X_1^2, X_2^2) of the isotropic cube, Euclidean
    # ball and l1 ball, each within the suite's half-width
    exact = {CUBE: (0.8, 0.0),
             BALL: (2.0 * (n + 1) / (n + 4), -2.0 / (n + 4)),
             L1_BALL: (6.0 * (n + 1) * (n + 2) / ((n + 3) * (n + 4)) - 1.0,
                       (n + 1) * (n + 2) / ((n + 3) * (n + 4)) - 1.0)}
    result = thinshell_suite([], [], 10 ** 5, SEED, shell_n=(n,))
    for template, (v, c) in exact.items():
        rows = _rows(result, template.instantiate(n).label())
        for got, want in [(rows["cor204i.v"], v), (rows["cor204i.c"], c)]:
            assert abs(got.value - want) <= got.half_width, (template, got)


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
    assert sum(r.estimator_id == "cor204i.v" for r in result.rows) == 6


def _reports_at(monkeypatch, threads):
    """thinshell and berry_esseen report.csv text with the drawing pool at
    ``threads`` threads, and the block of each visited chunk in visit order.
    With more than one thread, each draw's first block is reduced last."""
    monkeypatch.setattr(smp, "_usable_cores", lambda: threads)
    orders = []

    def first_block_last(body, count, seed, visit):
        others = count - min(smp.BLOCK, count)  # rows outside the first block
        order = []
        done = [0]
        lock = threading.Lock()
        others_done = threading.Event()

        def late_first(rows, chunk):
            block = rows.start // smp.BLOCK
            if block == 0 and threads > 1:
                assert others_done.wait(timeout=30)
            visit(rows, chunk)
            order.append(block)
            if block > 0:
                with lock:
                    done[0] += rows.stop - rows.start
                    if done[0] == others:
                        others_done.set()

        FOR_EACH_BLOCK(body, count, seed, late_first)
        orders.append(order)

    monkeypatch.setattr(smp, "for_each_block", first_block_last)
    # seven blocks, the last one short: the fewest rows that three threads draw;
    # at n = 32 each block is 16 chunks
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
    assert any(len(order) > 7 for order in orders1)  # some blocks span several chunks
    assert all(order == sorted(order) and set(order) == set(range(7)) for order in orders1)
    for order in orders3:
        first = order.index(0)
        assert set(order) == set(range(7)) and set(order[first:]) == {0}


def _visited_reports(count):
    thin = thinshell_suite([CUBE, L1_BALL, BALL], [64, 300], count, SEED, shell_n=(300,),
                           shell_templates=(CUBE, L1_BALL, BALL))
    be = berry_esseen_suite(SEED, cube_ns=(300,), counter_ns=(16,), samples=count)
    return render_csv(thin.rows), render_csv(be.rows)


def test_reports_do_not_depend_on_the_chunk_rows(monkeypatch):
    # for_each_block visits chunks, of 512 rows at n = 64 and 256 at n = 300,
    # and the second block ends in a short one; the gemv reductions of these
    # visits must give the bits of whole-block visits
    count = smp.BLOCK + smp._chunk_rows(300) + 333
    chunked = _visited_reports(count)

    def whole_blocks(body, count, seed, visit):
        start = 0
        for block in smp.exact_blocks(body, count, seed):
            visit(slice(start, start + block.shape[0]), block)
            start += block.shape[0]

    monkeypatch.setattr(smp, "for_each_block", whole_blocks)
    assert _visited_reports(count) == chunked


def _thinshell_peak_mb(n_grid=(64, 128, 256), samples=10 ** 5, **shell):
    tracemalloc.start()
    try:
        thinshell_suite([CUBE], list(n_grid), samples, SEED, **shell)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_peak_memory_stays_below_one_sample_matrix():
    assert _thinshell_peak_mb() < 10 ** 5 * 256 * 8 / 1e6  # 204.8 MB


def test_peak_memory_stays_below_one_sample_matrix_on_a_many_core_host(monkeypatch):
    # one drawing buffer per core would hold 7 blocks, 234.9 MB at n = 256
    monkeypatch.setattr(smp, "_usable_cores", lambda: 64)
    assert _thinshell_peak_mb() < 10 ** 5 * 256 * 8 / 1e6


def test_the_weighted_square_check_keeps_no_per_draw_values():
    # over these 7.5e5 more draws |X|^2 adds 6 MB to the peak (5.7 MB measured)
    # and the group moments next to nothing; keeping the per-draw values of
    # sum_i X_i^4 / n would add 6 MB more (11.9 MB measured)
    peaks = [_thinshell_peak_mb((4, 8, 16), samples, shell_n=(64,), shell_templates=(CUBE,))
             for samples in (5 * 10 ** 4, 8 * 10 ** 5)]
    assert peaks[1] - peaks[0] < 9.0


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
    # per law a sampler check and the exact distance; the cube's Edgeworth check
    assert len(names) == len(set(names)) == 5


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
