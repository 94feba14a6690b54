"""Exact samplers for the body families (the cube, and every other body as the
lp ball at p = ``BodySpec.exponent``), with reproducible block streams, and
the THSL binary dump format.

Reproducibility contract: draws are generated in fixed blocks of ``BLOCK``
rows.  Block b of a draw with master seed s comes from its own generator,
``Generator(SFC64(SeedSequence(s, spawn_key=(*draw_id, b))))``, where the
draw id is fixed by what is drawn: (kind, bits of p, n) for a body (p's
float64 bits, 0 for the cube and the ball) and (3, 0, n) for the
counterexample marginal.  So the result is bit-identical for any thread count
and any order in which the blocks are drawn or consumed, and two draws of
different bodies or dimensions share no stream.  SeedSequence hashes each key
to a 128-bit state, so distinct keys give independent streams with
overwhelming probability (a collision of two keys has probability about
2^-128), not by construction as distinct Philox keys do.  Seeds outside
[0, 2^64) raise ``InvalidSeedError`` instead of aliasing a seed modulo 2^64.

A block is drawn in chunks of ``_chunk_rows(n)`` rows, the most of 256 * 2^k
rows that fit in 2^15 floats and divide ``BLOCK`` (256 rows at n > 64).  The
cube fills each chunk's rows in order.  Every other body draws each chunk's
coordinates g, then one standard exponential per row.  The ball's g are
standard normals; the l1 ball's are Laplace, standard exponentials with a sign
from a uniform drawn after them; at any other p, g = V Y^(1/p) with
Y ~ Gamma(1 + 1/p) and V ~ U(-1, 1) drawn after Y.

Named streams, ``substream(seed, stream)``, stay on Philox keyed by
(seed, stream): the suites' non-block draws (the clt oracle's instances at
stream 1, the transport suite's point clouds at 7, the thinshell coefficient
vectors at ``NAMED_STREAM``) keep their values, and the benchmark replays
the clt key to size its workload.  They are Philox and the block streams are
SFC64, so no block stream is a named stream.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bodies import BodySpec

RNG_ID = ("sfc64(SeedSequence(seed,spawn_key=(kind,p,n,block))), ball as lp p=2, "
          "chunks of 2^15 floats, l1 as laplace; named: philox4x64-128(key=(seed,stream))")
BLOCK = 1 << 14  # rows per block stream; part of the determinism contract
NAMED_STREAM = 1 << 32  # the thinshell coefficient vectors' named stream
_SEEDS = 1 << 64  # master seeds are 0 .. 2^64 - 1

MAGIC = b"THSL"
HEADER_VERSION = 1
_HEADER = struct.Struct("<4sHIQQ6x")  # magic, version u16, n u32, N u64, seed u64, pad to 32
assert _HEADER.size == 32


class TruncatedSampleFileError(ValueError):
    """A THSL dump is shorter than its 32-byte header, or than the payload
    its header declares."""


class InvalidSeedError(ValueError):
    """A master seed outside [0, 2^64), which would alias another seed's
    streams modulo 2^64."""


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _SEEDS:
        raise InvalidSeedError(f"seed must be an integer in [0, 2^64), got {seed}")


def substream(seed: int, stream: int) -> np.random.Generator:
    """Named Philox stream (seed, stream); distinct keys never overlap."""
    _check_seed(seed)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleMatrix:
    """N x n draws plus the provenance needed to reproduce them exactly."""

    data: np.ndarray
    body: BodySpec
    seed: int

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ValueError("data must be an N x n array with N >= 1")
        if self.data.shape[1] != self.body.dim:
            raise ValueError("column count must equal body dim")
        _check_seed(self.seed)
        self.data.setflags(write=False)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


# draw ids: the first entry of every block stream's spawn key
_KIND_IDS = {"cube": 0, "euclidean_ball": 1, "lp_ball": 2}
_COUNTEREXAMPLE_ID = 3


def _draw_id(body: BodySpec) -> tuple[int, int, int]:
    """(kind, float64 bits of p or 0, n): the part of a body's block keys that
    names the draw."""
    p_bits = 0 if body.p is None else struct.unpack("<Q", struct.pack("<d", body.p))[0]
    return _KIND_IDS[body.kind], p_bits, body.dim


# every draw runs in chunks of _chunk_rows(n) rows: GROUP_ROWS * 2^k rows, with k the
# largest value that keeps the chunk within _CHUNK_FLOATS floats (256 KiB) and a
# divisor of BLOCK, and never fewer than 256 rows.  The chunk and its scratch
# stay in cache while the draw makes its passes over them, and each numpy call
# gets at least 2^14 floats at any n: with chunks of 256 rows, numpy's per-call
# cost made a coordinate 2 to 4 times dearer at n = 4 than at n = 128.  Chunks,
# and so the visits of ``for_each_block``, start at multiples of 256 rows
# because OpenBLAS gemv can round a row differently with the call's row count
# and the row's offset: B[s:s+k] @ a differed from (B @ a)[s:s+k] only at k in
# {1, 3, 255, 4095} in a scan of 192 (n, k, s) cases, never at k in {1000,
# 1024, 1696}; visits on 256-row boundaries keep the whole block's row groups
# and alignment, so their reductions give the same bits.
# The estimators reduce per-draw values in groups of GROUP_ROWS rows, which
# every visit's slice starts on, so their sums are those of whole blocks too.
_CHUNK_FLOATS = 1 << 15
GROUP_ROWS = 256


def _chunk_rows(dim: int) -> int:
    """Rows per chunk of a draw in ``dim`` dimensions."""
    rows = GROUP_ROWS
    while 2 * rows * dim <= _CHUNK_FLOATS and BLOCK % (2 * rows) == 0:
        rows *= 2
    return rows


def _scratch(body: BodySpec) -> tuple[np.ndarray, np.ndarray] | None:
    """The scratch of a draw from ``body``: a chunk x n array and a 2 x chunk
    array of per-row values, or None for the cube, whose draw needs none."""
    if body.exponent is None:
        return None
    chunk = _chunk_rows(body.dim)
    return np.empty((chunk, body.dim)), np.empty((2, chunk))


def _draw_chunk(body: BodySpec, rng: np.random.Generator, x: np.ndarray,
                scratch: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Fill the m x n array ``x``, m at most ``_chunk_rows(n)``, with m draws
    from ``body`` and return it; every body but the cube overwrites
    ``scratch``, from ``_scratch(body)``."""
    m = x.shape[0]
    scale = body.scale_array
    p = body.exponent
    if p is None:
        rng.random(out=x)
        x *= 2.0 * scale
        x -= scale
        return x
    # the unit lp ball (Schechtman and Zinn 1990; Barthe, Guedon, Mendelson and
    # Naor 2005): if the g_i have density prop. to exp(-|g|^p) and E is standard
    # exponential, x = g / (sum |g_j|^p + E)^(1/p) is uniform on the ball
    v, per_row = scratch
    g, w, power_sum, e = x, v[:m], per_row[0, :m], per_row[1, :m]
    if p == 2.0:
        # g = z / sqrt 2 with z standard normal, so x = z / (sum z_j^2 + 2 E)^(1/2)
        rng.standard_normal(out=g)
        np.einsum("ij,ij->i", g, g, out=power_sum)
    elif p == 1.0:
        # Laplace coordinates: |g_i| standard exponential, then a fair sign
        # from U - 1/2, whose 2^53 values are half negative
        rng.standard_exponential(out=g)
        np.einsum("ij->i", g, out=power_sum)
        rng.random(out=w)
        w -= 0.5
        np.copysign(g, w, out=g)
    else:
        # g_i = V_i Y_i^(1/p), Y_i ~ Gamma(1 + 1/p), V_i ~ U(-1, 1)
        rng.standard_gamma(1.0 + 1.0 / p, out=g)
        rng.random(out=w)
        w *= 2.0
        w -= 1.0
        np.power(g, 1.0 / p, out=g)
        g *= w
        np.abs(g, out=w)
        np.power(w, p, out=w)
        np.einsum("ij->i", w, out=power_sum)
    rng.standard_exponential(out=e)
    if p == 2.0:
        e *= 2.0
    power_sum += e
    np.power(power_sum, -1.0 / p, out=power_sum)
    g *= power_sum[:, None]
    g *= scale
    return x


def _blocks(count: int, seed: int, draw_id: tuple[int, ...]
            ) -> Iterator[tuple[int, int, np.random.Generator]]:
    """(first row, rows, generator) of each block of a count-row draw; block b
    draws from SFC64 seeded by SeedSequence(seed, spawn_key=(*draw_id, b)).
    A seed outside [0, 2^64) raises InvalidSeedError here, not at the first
    block."""
    _check_seed(seed)
    return ((start, min(BLOCK, count - start),
             np.random.Generator(np.random.SFC64(
                 np.random.SeedSequence(seed, spawn_key=(*draw_id, b)))))
            for b, start in enumerate(range(0, count, BLOCK)))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def exact_blocks(body: BodySpec, count: int, seed: int) -> Iterator[np.ndarray]:
    """Yield the exact-sampler rows in their canonical blocks of BLOCK rows."""
    if count < 1:
        raise ValueError("count must be >= 1")
    scratch = _scratch(body)
    chunk = _chunk_rows(body.dim)
    for _, m, rng in _blocks(count, seed, _draw_id(body)):
        block = np.empty((m, body.dim))
        for c in range(0, m, chunk):
            _draw_chunk(body, rng, block[c:c + chunk], scratch)
        yield block


def for_each_block(body: BodySpec, count: int, seed: int,
                   visit: Callable[[slice, np.ndarray], None]) -> None:
    """Draw the rows of ``exact_blocks`` on up to one thread per usable core and
    call ``visit(rows, chunk)`` in the thread that drew each chunk, in no fixed
    order.  ``rows`` is the chunk's slice of the count-row draw: it lies within
    one block and holds ``_chunk_rows(n)`` rows, fewer at the block's end.
    ``chunk`` is a per-thread buffer that the next draw overwrites, so it is
    valid only during the call, and ``visit`` may change it.  ``visit`` runs
    concurrently with itself, so it should write only to its own rows of shared
    arrays."""
    if count < 1:
        raise ValueError("count must be >= 1")
    blocks = _blocks(count, seed, _draw_id(body))
    chunk = _chunk_rows(body.dim)
    lock = threading.Lock()

    def work(buffer: np.ndarray, scratch: tuple[np.ndarray, np.ndarray] | None) -> None:
        while True:
            with lock:
                item = next(blocks, None)
            if item is None:
                return
            start, m, rng = item
            for c in range(start, start + m, chunk):
                k = min(chunk, start + m - c)
                visit(slice(c, c + k), _draw_chunk(body, rng, buffer[:k], scratch))

    # one thread per usable core and at most one per two blocks, so a draw of
    # fewer than 4 * BLOCK rows starts no pool
    threads = min(_usable_cores(), max(1, count // (2 * BLOCK)))
    # allocated in the calling thread, scratch and per-row values too: buffers
    # allocated in the drawing threads come from per-thread malloc arenas,
    # which kept more memory resident (families peak RSS 138-157 MB against 119 MB)
    buffers = [(np.empty((min(chunk, count), body.dim)), _scratch(body))
               for _ in range(threads)]
    if threads == 1:
        work(*buffers[0])
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for done in [pool.submit(work, *b) for b in buffers]:
            done.result()


def sample_exact(body: BodySpec, count: int, seed: int) -> SampleMatrix:
    """N independent uniform draws from a body."""
    rows = np.empty((max(count, 0), body.dim))  # exact_blocks rejects count < 1
    start = 0
    for block in exact_blocks(body, count, seed):  # copied in, so the rows are held once
        rows[start:start + block.shape[0]] = block
        start += block.shape[0]
    return SampleMatrix(rows, body, seed)


def counterexample_marginal(n: int, count: int, theta: np.ndarray, seed: int) -> np.ndarray:
    """Marginal sum(theta_i X_i) of the counterexample X = U e_T: the axis T is
    uniform on 0..n-1 and U is uniform on [-sqrt(3n), sqrt(3n)], so E X_i^2 = 1
    and at most one coordinate of X is nonzero.  Sampled without the n columns."""
    theta = np.asarray(theta, dtype=float)
    if n < 1 or count < 1 or theta.shape != (n,):
        raise ValueError(f"need n >= 1, count >= 1 and theta of shape ({n},), got "
                         f"n = {n}, count = {count} and shape {theta.shape}")
    half = math.sqrt(3.0 * n)
    out = np.empty(count)
    for start, m, rng in _blocks(count, seed, (_COUNTEREXAMPLE_ID, 0, n)):
        t = rng.integers(0, n, size=m)
        out[start:start + m] = rng.uniform(-half, half, size=m) * theta[t]
    return out


def estimate_second_moments(body: BodySpec, count: int = 10 ** 6, seed: int = 0) -> np.ndarray:
    """Monte Carlo per-axis E X_j^2 from the exact sampler.

    Every body kind has closed-form moments (``bodies.analytic_second_moments``),
    which isotropic normalization uses; this pass is kept only as a check of
    those closed forms that shares no code with them.
    """
    acc = np.zeros(body.dim)
    total = 0
    for block in exact_blocks(body, count, seed):
        acc += np.einsum("ij,ij->j", block, block)
        total += block.shape[0]
    return acc / total


# -- binary dump format -------------------------------------------------------

def dump_samples(samples: SampleMatrix, path) -> None:
    """Write little-endian float64 rows behind a 32-byte THSL header."""
    n, count = samples.dim, samples.count
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, HEADER_VERSION, n, count, samples.seed))
        np.ascontiguousarray(samples.data, dtype="<f8").tofile(fh)


def load_samples(path, body: BodySpec) -> SampleMatrix:
    """Read a THSL dump of draws from ``body``; a short header or payload raises
    TruncatedSampleFileError, and a body of another dimension ValueError."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedSampleFileError(
                f"THSL header needs {_HEADER.size} bytes, file has {len(header)}")
        magic, version, n, count, seed = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a THSL sample file")
        if version != HEADER_VERSION:
            raise ValueError(f"unsupported THSL version {version}")
        # checked against the file's size before the payload is allocated
        expected = 8 * n * count
        have = os.fstat(fh.fileno()).st_size - _HEADER.size
        if have < expected:
            raise TruncatedSampleFileError(
                f"THSL payload of {count} x {n} rows needs {expected} bytes, "
                f"file has {have}")
        data = np.fromfile(fh, dtype="<f8", count=n * count).reshape(count, n)
    return SampleMatrix(data, body, seed)
