import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import beta, chisquare, kstest

from thinshell import sampler
from thinshell.bodies import BodySpec, analytic_second_moments, contains_rows, isotropic_body
from thinshell.sampler import (
    BLOCK,
    InvalidSeedError,
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
    ("cube", None): "07d4123fbb81d48b9a557f1d5c4cb261301bd74f0626133613d5b17318efeced",
    ("euclidean_ball", None): "b0a8458cc4fdb77937def3bd6099465ddbb51f4b925dc0cddfe86e8e7198f4a8",
    ("lp_ball", 1.0): "1d531fcb69fd73b041a0dc3d2d66cca8bc62d7d7057b3357c6c82bde6797f55c",
    ("lp_ball", 3.0): "2de6be0d3733aa108925c1348c398b036b53af42a7074285465e9ae915ab0ffe",
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


def _row_prints(x):
    """One uint64 per row, the row's float64 bits times odd column weights,
    summed mod 2^64: rows that differ in one value always print differently,
    and the print does not depend on how the rows are grouped."""
    weights = np.random.default_rng(0).integers(0, 2 ** 63, size=x.shape[1],
                                                dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    return (x.view(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


# blocks of 2048 rows (8 chunks of 256 at n = 300 and 1100, one chunk at n = 1
# and 7) keep the seven-block draws small at n = 1100; the row identity of a
# chunk does not depend on the block size, and the cube at n = 300 checks the
# real BLOCK
@pytest.mark.parametrize("kind, p, n, block", [
    (kind, p, n, 2048) for kind, p in GOLDEN_STREAMS for n in (1, 7, 300, 1100)]
    + [("cube", None, 300, BLOCK)])
def test_tiles_visit_the_exact_rows_at_every_thread_count(monkeypatch, kind, p, n, block):
    monkeypatch.setattr(sampler, "BLOCK", block)
    body = isotropic_body(kind, n, p)
    chunk = sampler._chunk_rows(n)
    # six whole blocks, then a whole chunk and 333 rows: where chunks are
    # shorter than blocks, the last block ends in a short chunk
    count = 6 * block + chunk + 333
    want = np.concatenate([_row_prints(x) for x in exact_blocks(body, count, SEED)])
    for threads in (1, 3):
        monkeypatch.setattr(sampler, "_usable_cores", lambda: threads)
        got = np.zeros_like(want)
        visits = []

        def visit(rows, x):
            got[rows] = _row_prints(x)
            visits.append((rows.start, rows.stop))

        for_each_block(body, count, SEED, visit)
        assert np.array_equal(got, want)
        visits.sort()
        assert [v[0] for v in visits] == [0] + [v[1] for v in visits[:-1]]
        assert visits[-1][1] == count
        for start, stop in visits:
            # a whole chunk, or the rest of the visit's block
            block_end = min(count, (start // block + 1) * block)
            assert start % block % chunk == 0 and stop == min(start + chunk, block_end)


@pytest.mark.parametrize("block", [BLOCK, 2048, 768])
def test_chunks_split_blocks(monkeypatch, block):
    # every draw consumes a block's stream chunk by chunk, and its visits start
    # on 256-row boundaries, so chunks are 256 * 2^k rows that split each block
    monkeypatch.setattr(sampler, "BLOCK", block)
    for n in [*range(1, 301), 2048]:
        chunk = sampler._chunk_rows(n)
        assert chunk % 256 == 0 and block % chunk == 0, n
        assert chunk * n <= 2 ** 15 or chunk == 256, n
        assert chunk == block or 2 * chunk * n > 2 ** 15 or block % (2 * chunk), n
    if block == BLOCK:  # the most rows of 256 * 2^k within 2^15 floats, up to BLOCK
        assert [sampler._chunk_rows(n) for n in (1, 2, 4, 5, 64, 128)] == [
            16384, 16384, 8192, 4096, 512, 256]


_WIDE_DRAW = """
import resource
import sys
import numpy as np
from thinshell import sampler
from thinshell.bodies import isotropic_body
sampler._usable_cores = lambda: 2
count = 4 * sampler.BLOCK
sums = np.empty(count)

def visit(rows, chunk):
    sums[rows] = chunk.sum(axis=1)

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sampler.for_each_block(isotropic_body(sys.argv[1], 2048), count, 0, visit)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.parametrize("kind", ["cube", "euclidean_ball"])
def test_a_wide_draw_holds_chunks_not_blocks(tmp_path, kind):
    # one block is 256 MiB at n = 2048; two threads, each with a 256-row chunk
    # and its scratch, hold 16 MiB
    src = str(Path(sampler.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _WIDE_DRAW, kind], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 64.0  # MB of ru_maxrss the draw adds


def test_a_cube_draw_builds_no_scratch(monkeypatch):
    # two drawing threads at n = 2048 each hold a 4 MiB chunk buffer; the
    # scratch of the round bodies, 4 MiB more per thread, is not built for the
    # cube, whose draw never touches it
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    n = 2048
    chunk = sampler._chunk_rows(n)
    buffer, scratch = 8 * chunk * n, 8 * (chunk * n + 2 * chunk)
    threads = []
    _, peak = _traced_peak(for_each_block, isotropic_body("cube", n), 4 * BLOCK, SEED,
                           lambda rows, c: threads.append(threading.get_ident()))
    assert len(set(threads)) == 2
    assert peak < 2 * buffer + scratch


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


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seeds_outside_64_bits_are_rejected(seed):
    # masked to 64 bits, 2^64 drew seed 0's rows and -1 those of 2^64 - 1
    body = isotropic_body("euclidean_ball", 3)
    for draw in (lambda: sample_exact(body, 10, seed),
                 lambda: for_each_block(body, 10, seed, lambda rows, chunk: None),
                 lambda: counterexample_marginal(3, 10, np.ones(3), seed),
                 lambda: substream(seed, 1),
                 lambda: SampleMatrix(np.zeros((1, 3)), body, seed)):
        with pytest.raises(InvalidSeedError, match=r"\[0, 2\^64\)"):
            draw()


def test_the_extreme_seeds_draw():
    body = isotropic_body("euclidean_ball", 3)
    first, last = sample_exact(body, 10, 0).data, sample_exact(body, 10, 2 ** 64 - 1).data
    assert not np.array_equal(first, last)
    assert substream(2 ** 64 - 1, 1).random() != substream(0, 1).random()


def test_substreams_do_not_collide():
    a = substream(SEED, 0).uniform(size=8)
    b = substream(SEED, 1).uniform(size=8)
    assert not np.allclose(a, b)


def test_block_streams_are_not_named_streams():
    # the clt oracle (stream 1) and the transport clouds (7) draw from named
    # Philox streams, which block b of every draw reproduced while blocks were
    # keyed (seed, b)
    named = [substream(SEED, s).random(8) for s in (1, 7)]
    draw_ids = [sampler._draw_id(isotropic_body(kind, n, p))
                for kind, p in [("cube", None), ("euclidean_ball", None),
                                ("lp_ball", 1.0), ("lp_ball", 3.0)] for n in (1, 16, 64)]
    draw_ids += [(sampler._COUNTEREXAMPLE_ID, 0, n) for n in (16, 256)]
    assert len(set(draw_ids)) == len(draw_ids)
    firsts = [rng.random(8) for draw_id in draw_ids
              for _, _, rng in sampler._blocks(16 * BLOCK, SEED, draw_id)]
    assert len(firsts) == 16 * len(draw_ids)
    values = np.concatenate(firsts)
    assert np.unique(values).size == values.size
    assert not np.isin(np.concatenate(named), values).any()


def test_cube_draws_of_two_dimensions_share_no_values():
    # keyed by (seed, block) alone, row 0 of the n = 64 draw was rows 0..3 of
    # the n = 16 draw
    a = sample_exact(isotropic_body("cube", 16), 4096, SEED).data
    b = sample_exact(isotropic_body("cube", 64), 1024, SEED).data
    assert np.intersect1d(a, b).size == 0


def _lp_moment(p, n, qs):
    """E prod_i |X_i|^(q_i) for X uniform on the unit lp ball of R^n (Barthe,
    Guedon, Mendelson and Naor 2005)."""
    qs = np.asarray(qs, dtype=float)
    return math.exp(np.sum(gammaln((qs + 1) / p) - gammaln(1 / p))
                    + gammaln(1 + n / p) - gammaln(1 + (n + qs.sum()) / p))


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, None])
def test_lp_draw_exact_moments(p, n):
    # p = None is the euclidean ball, the lp ball at p = 2
    body = BodySpec.euclidean_ball(n) if p is None else BodySpec.lp_ball(n, p)
    count = 10 ** 6
    x2, x4, x2y2 = np.empty(count), np.empty(count), np.empty(count)
    inside = np.empty(count, dtype=bool)

    def visit(rows, block):
        x2[rows] = block[:, 0] ** 2
        x4[rows] = x2[rows] ** 2
        x2y2[rows] = x2[rows] * block[:, -1] ** 2
        inside[rows] = contains_rows(body, block)

    for_each_block(body, count, SEED, visit)
    assert inside.all()
    cases = [(x2, (2,)), (x4, (4,))] + ([(x2y2, (2, 2))] if n > 1 else [])
    for values, qs in cases:
        z = (values.mean() - _lp_moment(body.exponent, n, qs)) / mc_sigma(values)
        assert abs(z) <= 5.0, (qs, z)


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, None])
def test_lp_draws_are_reflection_invariant(p, n):
    # the even moments above cannot see a biased sign: E X_1, E X_1 |X_2| and
    # P(X_1 > 0) - 1/2 vanish for a law invariant under coordinate reflections
    body = BodySpec.euclidean_ball(n) if p is None else BodySpec.lp_ball(n, p)
    count = 4 * 10 ** 5
    x1, x1y, positive = np.empty(count), np.empty(count), np.empty(count)

    def visit(rows, block):
        x1[rows] = block[:, 0]
        x1y[rows] = block[:, 0] * np.abs(block[:, -1])
        positive[rows] = block[:, 0] > 0

    for_each_block(body, count, SEED, visit)
    positive -= 0.5
    for values in [x1, positive] + ([x1y] if n > 1 else []):
        z = values.mean() / mc_sigma(values)
        assert abs(z) <= 5.0, z


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


@pytest.mark.parametrize("n", [4, 64])
def test_ball_shell_laws(n):
    # |X| = sqrt(n + 2) R for the isotropic ball, with R^n uniform on [0, 1], so
    # E |X|^(2k) = (n + 2)^k n / (n + 2k) and E |X| = sqrt(n + 2) n / (n + 1)
    count = 2 * 10 ** 5
    norms = np.empty(count)

    def visit(rows, block):
        norms[rows] = np.sqrt(np.einsum("ij,ij->i", block, block))

    for_each_block(isotropic_body("euclidean_ball", n), count, SEED, visit)
    y = norms ** 2 / n
    spread = (y - y.mean()) ** 2
    shell = (norms - math.sqrt(n)) ** 2
    for values, law in [(spread, 4.0 / (n * (n + 4.0))),
                        (shell, 2 * n - 2 * math.sqrt(n) * math.sqrt(n + 2.0) * n / (n + 1.0))]:
        z = (values.mean() - law) / mc_sigma(values)
        assert abs(z) <= 5.0, (law, z)


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


@pytest.mark.parametrize("n, count, theta", [
    (8, 10, np.ones(7)), (8, 10, np.ones(9)), (8, 10, np.ones((8, 1))),
    (0, 10, np.ones(0)), (8, 0, np.ones(8)), (8, -1, np.ones(8)),
    (3, 10, np.array([1.0, math.nan, 1.0])), (3, 10, np.array([1.0, 1.0, -math.inf]))])
def test_counterexample_marginal_rejects_bad_inputs(n, count, theta):
    # a short theta raised IndexError, a long one drew from another law,
    # n = 0 and count < 0 reached numpy's own messages, and a NaN or infinite
    # entry gave NaN or infinite draws
    with pytest.raises(ValueError, match="need n >= 1, count >= 1 and theta of shape"):
        counterexample_marginal(n, count, theta, SEED)


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


# sha256 of the THSL file that dump_samples writes for sample_exact(
# isotropic_body("cube", 5), 40000, SEED): the header and the rows of GOLDEN_STREAMS.
GOLDEN_DUMP = "612de853045e4879133df1238d8fc9b830d084d01eb2aa97fc9a6ae68959d9f6"


def test_dump_bytes_are_golden(tmp_path):
    path = tmp_path / "rows.thsl"
    dump_samples(sample_exact(isotropic_body("cube", 5), 40000, SEED), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DUMP


def _traced_peak(func, *args):
    """func(*args) and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_thsl_functions_hold_the_payload_once(tmp_path):
    # a 48.8 MiB payload: a second copy of it, or of a list of its blocks,
    # would double the peak; one or two 16384-row blocks add 0.16 of it
    body = isotropic_body("cube", 32)
    count = 2 * 10 ** 5
    payload = 8 * count * body.dim
    path = tmp_path / "rows.thsl"
    samples, drawn = _traced_peak(sample_exact, body, count, SEED)
    _, dumped = _traced_peak(dump_samples, samples, path)
    loaded, read = _traced_peak(load_samples, path, body)
    assert np.array_equal(loaded.data, samples.data)
    assert drawn <= 1.25 * payload
    assert dumped <= 1.25 * payload
    assert read <= 1.25 * payload


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


@pytest.mark.parametrize("n, count", [(1, 2 ** 40), (2 ** 31, 2 ** 33)])
def test_load_rejects_a_header_larger_than_its_file(tmp_path, n, count):
    # the declared payloads (8 TiB, and 2^67 bytes, past any size numpy takes)
    # are compared with the file before anything is allocated
    path = tmp_path / "rows.thsl"
    path.write_bytes(sampler._HEADER.pack(b"THSL", 1, n, count, SEED) + bytes(64))
    with pytest.raises(TruncatedSampleFileError, match=f"{8 * n * count} bytes, file has 64"):
        load_samples(path, body=isotropic_body("cube", 1))


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
