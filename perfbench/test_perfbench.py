"""Tests of the benchmark itself: metric names, span arithmetic, and that the
traced run leaves the program unpatched."""

import json
import re
from pathlib import Path

from perfbench import run, tracer as tr
from perfbench.tracer import Span, Tracer, busy_time, self_times

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert not set(e2e) & set(layer)


def test_self_time_and_busy_time_on_a_synthetic_tree():
    spans = [
        Span("suites.x", 0.0, 10.0, -1),
        Span("sampler.sample_exact", 1.0, 4.0, 0),
        Span("sampler.exact_blocks", 2.0, 3.0, 1),
        Span("estimators.thin_shell_stats", 5.0, 9.0, 0),
        Span("sampler.exact_blocks", 6.0, 8.5, 3),
        Span("bodies.instantiate", 10.0, 14.0, -1),
        Span("bodies.moment_pass", 10.5, 13.5, 5),
        Span("sampler.exact_blocks", 11.0, 13.0, 6),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.5, 1.0, 1.0, 2.0]
    # the block nested in sample_exact counts once; the one under estimators counts
    assert busy_time(spans, "sampler.") == 3.0 + 2.5 + 2.0
    # the block drawn by the moment pass belongs to the bodies layer
    assert busy_time(spans, "sampler.", outside=(tr.MOMENT_PASS,)) == 3.0 + 2.5
    assert busy_time(spans, "bodies.") == 4.0
    assert busy_time(spans, "estimators.") == 4.0
    assert busy_time(spans, "clt.") == 0.0


def test_moment_pass_rows_are_not_sampler_rows():
    from thinshell import bodies, sampler

    wraps = [w for w in tr.WRAPS if w.module == "thinshell.sampler"]
    t = Tracer()
    assert t.install(wraps) == []
    try:
        body = bodies.BodySpec.lp_ball(3, p=3.0)
        sampler.estimate_second_moments(body, count=500, seed=1)
        sampler.sample_exact(body, 200, 1)
    finally:
        t.uninstall()
    metrics = tr.layer_metrics(t)
    assert metrics["bodies.moment_passes"] == 1.0
    assert metrics["bodies.moment_rows"] == 500.0
    assert metrics["sampler.rows"] == 200.0
    sampled = [s for s in t.spans if s.name == "sampler.sample_exact"]
    assert metrics["sampler.busy_s"] == sum(s.end - s.start for s in sampled)


def test_generator_work_is_spanned_while_consumed():
    now = [0.0]
    t = Tracer(clock=lambda: now[0])

    def blocks(count):
        for i in range(count):
            now[0] += 1.0  # the lazy work happens on iteration
            yield i

    wrapped = t._wrapper("sampler.exact_blocks", blocks, None)
    gen = wrapped(3)
    assert t.spans == []
    assert list(gen) == [0, 1, 2]
    assert sum(s.end - s.start for s in t.spans) == 3.0
    assert t.counts["sampler.exact_blocks"] == 3


def test_every_wrapper_is_removed_after_the_traced_run():
    originals = [(vars(owner)[leaf], owner, leaf)
                 for owner, leaf in map(tr.resolve, tr.WRAPS)]
    t = Tracer()
    assert t.install(tr.WRAPS) == []
    try:
        assert all(vars(owner)[leaf] is not f for f, owner, leaf in originals)
        from thinshell import transport

        mu = transport.DiscreteMeasure.grid_1d(-1.0, 1.0, 64)
        transport.hminus1_norm(mu, mu.support[:, 0])
    finally:
        t.uninstall()
    assert all(vars(owner)[leaf] is f for f, owner, leaf in originals)
    names = {s.name for s in t.spans}
    assert {"transport.hminus1", "transport.cg", "lattice.laplacian"} <= names
    assert t.counts["transport.cg_iterations"] > 0
    metrics = tr.layer_metrics(t)
    assert set(metrics) == set(tr.LAYER_METRICS)
    assert metrics["transport.solve_nodes"] == 64.0


def test_a_wrap_whose_target_is_gone_is_skipped():
    gone = tr.Wrap("thinshell.transport", "no_such_function", "transport.cg")
    t = Tracer()
    assert t.install([gone]) == [gone]
    t.uninstall()
    assert tr.layer_metrics(t)["transport.cg_iterations"] == 0.0


def test_oracle_patterns_replays_the_clt_suite(monkeypatch):
    from perfbench.workloads import ORACLE_BAND, ORACLE_MEAN_PATTERNS, clt_seed, oracle_patterns
    from thinshell import clt, suites

    enumerated = []

    def brute(theta, sigma, t):
        enumerated.append(2 ** len(theta))
        return 0.0

    monkeypatch.setattr(clt, "bernoulli_gamma_tail_bruteforce", brute)
    monkeypatch.setattr(clt, "bernoulli_gamma_tail_fourier", lambda theta, sigma, t: 0.0)
    suites.clt_suite(3, scaling_ns=(4, 8, 16))
    assert len(enumerated) == 100
    assert sum(enumerated) == oracle_patterns(3)
    chosen = clt_seed(3)
    assert chosen == clt_seed(3)
    assert abs(oracle_patterns(chosen) / ORACLE_MEAN_PATTERNS - 1.0) <= ORACLE_BAND
