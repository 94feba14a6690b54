import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import beta, chisquare, kstest

from thinshell import sampler
from thinshell.bodies import BodySpec, analytic_second_moments, contains_rows, isotropic_body
from thinshell.sampler import (
    BLOCK,
    SampleMatrix,
    TruncatedSampleFileError,
    counterexample_marginal,
    dump_samples,
    estimate_second_moments,
    exact_blocks,
    for_each_block,
    load_samples,
    sample_exact,
    substream,
)

SEED = 20250810


def mc_sigma(values):
    return values.std(ddof=1) / math.sqrt(values.size)


def counterexample_rows(n, count, seed):
    """The count x n counterexample draws, column j as the marginal along e_j."""
    return np.column_stack([counterexample_marginal(n, count, e, seed) for e in np.eye(n)])


def test_determinism_bit_identical():
    body = BodySpec.lp_ball(3, p=1.5)
    a = sample_exact(body, 5000, seed=SEED)
    b = sample_exact(body, 5000, seed=SEED)
    assert np.array_equal(a.data, b.data)
    c = sample_exact(body, 5000, seed=SEED + 1)
    assert not np.array_equal(a.data, c.data)


def test_block_partition_matches_single_stream():
    # consuming the block generator in pieces equals the assembled matrix
    body = isotropic_body("cube", 4)
    n = BLOCK + 777
    whole = sample_exact(body, n, seed=SEED).data
    parts = np.concatenate(list(exact_blocks(body, n, seed=SEED)), axis=0)
    assert np.array_equal(whole, parts)


# sha256 of the little-endian float64 bytes of sample_exact(isotropic_body(kind,
# 5, p), 40000, SEED): three blocks, the last one short.  A change to any draw
# must change these and RNG_ID together.
GOLDEN_STREAMS = {
    ("cube", None): "6c119b728d536044303fd3034eb62f4020723d58d1fa8b9ce13004be82dd2bff",
    ("euclidean_ball", None): "15d86848fdb8e81a221ca594b813a8ec1001e85a4c4280149a38d0917463d3a1",
    ("lp_ball", 1.0): "15e01e4359e3b3f91b04c5f25d9ca053773c2f25e0232f8cafd5640cc77e57a2",
    ("lp_ball", 3.0): "ec3b59c097118c607fac3e709bcb9a03519b55d1d23132626338e52d74c510a5",
}


@pytest.mark.parametrize("kind, p", list(GOLDEN_STREAMS))
def test_exact_sampler_streams_are_golden(kind, p):
    data = sample_exact(isotropic_body(kind, 5, p), 40000, SEED).data
    got = hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest()
    assert got == GOLDEN_STREAMS[kind, p]


@pytest.mark.parametrize("kind, p", list(GOLDEN_STREAMS))
def test_every_thread_count_visits_the_exact_rows(monkeypatch, kind, p):
    body = isotropic_body(kind, 7, p)
    count = 6 * BLOCK + 333  # seven blocks, the last one short; three threads fit
    want = sample_exact(body, count, SEED).data
    for threads in (1, 3):
        monkeypatch.setattr(sampler, "_usable_cores", lambda: threads)
        got = np.full_like(want, np.nan)

        def visit(rows, block):
            got[rows] = block

        for_each_block(body, count, SEED, visit)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cores, count, threads", [
    (64, 1, 1), (64, BLOCK, 1), (64, BLOCK + 1, 1), (64, 3 * BLOCK, 1),
    (64, 4 * BLOCK - 1, 1), (64, 4 * BLOCK, 2), (64, 7 * BLOCK + 1, 3),
    (2, 7 * BLOCK + 1, 2), (64, 20 * BLOCK, 10)])
def test_pool_threads_are_capped_by_cores_blocks_and_memory(monkeypatch, cores, count, threads):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sampler, "_usable_cores", lambda: cores)
    monkeypatch.setattr(sampler, "ThreadPoolExecutor", RecordingPool)
    drawn_by = []
    for_each_block(isotropic_body("cube", 1), count, SEED,
                   lambda rows, block: drawn_by.append(threading.get_ident()))
    blocks = -(-count // BLOCK)
    assert len(drawn_by) == blocks
    if threads == 1:
        assert pools == [] and set(drawn_by) == {threading.get_ident()}
    else:
        assert pools == [threads] and threads <= blocks
        # the per-thread buffers hold at most half the draw's rows
        assert 2 * threads * BLOCK <= count
        assert threading.get_ident() not in drawn_by


def test_many_threads_draw_every_block_once(monkeypatch):
    # more threads than cores and a short switch interval: a block handed to two
    # threads, or to none, changes the rows or the visit count
    body = isotropic_body("cube", 1)
    count = 24 * BLOCK + 5
    want = sample_exact(body, count, SEED).data
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 8)
    got = np.full_like(want, np.nan)
    visits = []

    def visit(rows, block):
        got[rows] = block
        visits.append(rows.start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for_each_block(body, count, SEED, visit)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(visits) == list(range(0, count, BLOCK))
    assert np.array_equal(got, want)


def test_for_each_block_rejects_an_empty_draw():
    with pytest.raises(ValueError):
        for_each_block(isotropic_body("cube", 3), 0, SEED, lambda rows, block: None)


def test_substreams_do_not_collide():
    a = substream(SEED, 0).uniform(size=8)
    b = substream(SEED, 1).uniform(size=8)
    assert not np.allclose(a, b)


def test_cube_isotropic_by_construction():
    body = isotropic_body("cube", 4)
    s = sample_exact(body, 10 ** 5, seed=SEED)
    sq = s.data ** 2
    for j in range(4):
        assert abs(sq[:, j].mean() - 1.0) <= 4 * mc_sigma(sq[:, j])


def test_ball_radial_moment():
    n = 6
    body = isotropic_body("euclidean_ball", n)
    s = sample_exact(body, 10 ** 5, seed=SEED)
    y = np.einsum("ij,ij->i", s.data, s.data) / n
    assert abs(y.mean() - 1.0) <= 4 * mc_sigma(y)


def test_l1_quadrant_probability():
    body = BodySpec.lp_ball(2, p=1.0)
    s = sample_exact(body, 10 ** 5, seed=SEED)
    hits = (s.data[:, 0] > 0) & (s.data[:, 1] > 0)
    p = hits.mean()
    assert abs(p - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / s.count)


def test_lp_ball_pth_power_beta_oracle():
    # |X_1|^p ~ Beta(1/p, (n-1)/p + 1) for the uniform law on the unit p-ball
    n, p = 3, 2.7
    s = sample_exact(BodySpec.lp_ball(n, p=p), 10 ** 5, seed=SEED)
    y = np.abs(s.data[:, 0]) ** p
    expect = beta.mean(1 / p, (n - 1) / p + 1)
    assert abs(y.mean() - expect) <= 4 * mc_sigma(y)
    ks = kstest(y, beta(1 / p, (n - 1) / p + 1).cdf)
    assert ks.pvalue > 1e-4


def test_exact_membership_always():
    for body in [isotropic_body("cube", 5), isotropic_body("euclidean_ball", 3),
                 isotropic_body("lp_ball", 4, p=1.0), BodySpec.lp_ball(2, p=3.0)]:
        s = sample_exact(body, 20000, seed=SEED)
        assert contains_rows(s.body, s.data).all()


def test_sign_pattern_chi_square():
    s = sample_exact(isotropic_body("cube", 4), 10 ** 5, seed=SEED)
    bits = (s.data > 0).astype(int)
    cells = bits @ (1 << np.arange(4))
    counts = np.bincount(cells, minlength=16)
    assert chisquare(counts).pvalue > 0.01


def test_counterexample_n1_uniform_law():
    u = counterexample_rows(1, 20000, seed=SEED)[:, 0]
    ks = kstest(u, lambda t: np.clip((t + math.sqrt(3)) / (2 * math.sqrt(3)), 0, 1))
    assert ks.pvalue > 1e-4


def test_counterexample_isotropy():
    sq = counterexample_rows(16, 10 ** 5, seed=SEED) ** 2
    for j in range(16):
        assert abs(sq[:, j].mean() - 1.0) <= 4 * mc_sigma(sq[:, j])


def test_counterexample_single_axis_rows():
    rows = counterexample_rows(8, 5000, seed=SEED)
    assert np.max(np.count_nonzero(rows, axis=1)) <= 1


def test_counterexample_marginal_stream_matches_rows():
    theta = np.full(8, 1 / math.sqrt(8))
    rows = counterexample_rows(8, 4000, seed=SEED)
    assert np.allclose(counterexample_marginal(8, 4000, theta, seed=SEED), rows @ theta)


def test_estimate_second_moments_matches_analytic():
    body = BodySpec.lp_ball(3, p=1.0)
    est = estimate_second_moments(body, count=2 * 10 ** 5, seed=SEED)
    exact = 2.0 / (4 * 5)
    assert np.allclose(est, exact, rtol=0.05)
    # p = 3 against the Gamma-function closed form
    body = BodySpec.lp_ball(3, p=3.0)
    est = estimate_second_moments(body, count=2 * 10 ** 5, seed=SEED)
    assert np.allclose(est, analytic_second_moments(body), rtol=0.05)


def test_dump_load_round_trip(tmp_path):
    body = isotropic_body("cube", 3)
    s = sample_exact(body, 1234, seed=SEED)
    path = tmp_path / "rows.thsl"
    dump_samples(s, path)
    raw = path.read_bytes()
    assert raw[:4] == b"THSL"
    assert len(raw) == 32 + 1234 * 3 * 8
    loaded = load_samples(path, body=body)
    assert np.array_equal(loaded.data, s.data)
    assert loaded.seed == SEED


def test_load_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.thsl"
    path.write_bytes(b"THSL" + bytes(6))
    with pytest.raises(TruncatedSampleFileError, match="32 bytes, file has 10"):
        load_samples(path, body=isotropic_body("cube", 3))


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "rows.thsl"
    dump_samples(sample_exact(isotropic_body("cube", 3), 100, seed=SEED), path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(TruncatedSampleFileError, match="2400 bytes, file has 2395"):
        load_samples(path, body=isotropic_body("cube", 3))


def test_load_rejects_a_body_of_another_dimension(tmp_path):
    path = tmp_path / "rows.thsl"
    dump_samples(sample_exact(isotropic_body("cube", 3), 100, seed=SEED), path)
    with pytest.raises(ValueError, match="column count must equal body dim"):
        load_samples(path, body=isotropic_body("cube", 2))


def test_sample_matrix_rejects_bad_shapes():
    body = isotropic_body("cube", 2)
    with pytest.raises(ValueError):
        SampleMatrix(np.zeros((4, 3)), body, 0)
    with pytest.raises(ValueError):
        SampleMatrix(np.zeros((0, 2)), body, 0)
