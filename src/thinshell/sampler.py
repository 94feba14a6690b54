"""Exact samplers for the body families, with reproducible counter-based
substreams, and the THSL binary dump format.

Reproducibility contract: draws are generated in fixed blocks of ``BLOCK``
rows; block b of a run with master seed s comes from an independent Philox
substream keyed by (s, b).  The result is bit-identical for any thread count
and any order in which the blocks are drawn or consumed.
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

RNG_ID = "philox4x64-128(key=(seed,stream))"
BLOCK = 1 << 14  # rows per substream block; part of the determinism contract
NAMED_STREAM = 1 << 32  # first stream id no block index reaches, for non-block draws
_MASK64 = (1 << 64) - 1

MAGIC = b"THSL"
HEADER_VERSION = 1
_HEADER = struct.Struct("<4sHIQQ6x")  # magic, version u16, n u32, N u64, seed u64, pad to 32
assert _HEADER.size == 32


class TruncatedSampleFileError(ValueError):
    """A THSL dump is shorter than its 32-byte header, or than the payload
    its header declares."""


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); distinct keys never overlap."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
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
        self.data.setflags(write=False)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


# rows per chunk of the ball norms and the lp signs, so that no temporary has
# the size of a whole block
_CHUNK = 1024


def _draw_exact_block(body: BodySpec, rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Fill the m x n array ``x`` with m draws from ``body`` and return it."""
    m, n = x.shape
    scale = body.scale_array
    if body.kind == "cube":
        # -1 + 2u, the arithmetic of uniform(-1, 1)
        rng.random(out=x)
        x *= 2.0
        x += -1.0
        x *= scale
        return x
    if body.kind == "euclidean_ball":
        rng.standard_normal(out=x)
        for c in range(0, m, _CHUNK):
            rows = x[c:c + _CHUNK]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        x *= rng.random((m, 1)) ** (1.0 / n)
        x *= scale
        return x
    p = body.p
    # lp_ball: |g_i|^p ~ Gamma(1/p); signed generalized Gaussian coordinates,
    # normalized by (sum |g_j|^p + E)^(1/p) with E standard exponential
    rng.standard_gamma(1.0 / p, out=x)
    gp_sums = x.sum(axis=1, keepdims=True)
    np.power(x, 1.0 / p, out=x)
    # integers(0, 2) reads the stream as choice([-1, 1]) does; 0 is the minus sign
    for c in range(0, m, _CHUNK):
        rows = x[c:c + _CHUNK]
        np.negative(rows, out=rows, where=rng.integers(0, 2, size=rows.shape) == 0)
    x /= (gp_sums + rng.standard_exponential((m, 1))) ** (1.0 / p)
    x *= scale
    return x


def _substream_blocks(count: int, seed: int) -> Iterator[tuple[int, int, np.random.Generator]]:
    """(first row, rows, generator) of each BLOCK-sized chunk of a count-row draw;
    chunk b draws from substream (seed, b)."""
    for stream, start in enumerate(range(0, count, BLOCK)):
        yield start, min(BLOCK, count - start), substream(seed, stream)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def exact_blocks(body: BodySpec, count: int, seed: int) -> Iterator[np.ndarray]:
    """Yield the exact-sampler rows in their canonical BLOCK-sized chunks."""
    if count < 1:
        raise ValueError("count must be >= 1")
    for _, m, rng in _substream_blocks(count, seed):
        yield _draw_exact_block(body, rng, np.empty((m, body.dim)))


def for_each_block(body: BodySpec, count: int, seed: int,
                   visit: Callable[[slice, np.ndarray], None]) -> None:
    """Draw the rows of ``exact_blocks`` on up to one thread per usable core and
    call ``visit(rows, block)`` in the thread that drew each block, in no fixed
    order; ``rows`` is the block's slice of the count-row draw.  ``block`` is a
    per-thread buffer that the next draw overwrites, so it is valid only during
    the call, and ``visit`` may change it.  ``visit`` runs concurrently with
    itself, so it should write only to its own rows of shared arrays."""
    if count < 1:
        raise ValueError("count must be >= 1")
    blocks = _substream_blocks(count, seed)
    lock = threading.Lock()

    def work(buffer: np.ndarray) -> None:
        while True:
            with lock:
                item = next(blocks, None)
            if item is None:
                return
            start, m, rng = item
            visit(slice(start, start + m), _draw_exact_block(body, rng, buffer[:m]))

    # one thread per usable core, but the per-thread buffers never hold more than
    # half the draw's rows, so on any host the draw stays well below the
    # count-row matrix that block-wise reduction avoids; a draw of fewer than
    # 4 * BLOCK rows starts no pool
    threads = min(_usable_cores(), max(1, count // (2 * BLOCK)))
    # allocated in the calling thread: buffers allocated in the drawing threads
    # come from per-thread malloc arenas, which kept more memory resident
    # (families peak RSS 138-157 MB against 119 MB)
    buffers = [np.empty((min(BLOCK, count), body.dim)) for _ in range(threads)]
    if threads == 1:
        work(buffers[0])
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for done in [pool.submit(work, b) for b in buffers]:
            done.result()


def sample_exact(body: BodySpec, count: int, seed: int) -> SampleMatrix:
    """N independent uniform draws from a body."""
    rows = np.concatenate(list(exact_blocks(body, count, seed)), axis=0)
    return SampleMatrix(rows, body, seed)


def counterexample_marginal(n: int, count: int, theta: np.ndarray, seed: int) -> np.ndarray:
    """Marginal sum(theta_i X_i) of the counterexample X = U e_T: the axis T is
    uniform on 0..n-1 and U is uniform on [-sqrt(3n), sqrt(3n)], so E X_i^2 = 1
    and at most one coordinate of X is nonzero.  Sampled without the n columns."""
    theta = np.asarray(theta, dtype=float)
    half = math.sqrt(3.0 * n)
    out = np.empty(count)
    for start, m, rng in _substream_blocks(count, seed):
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
        fh.write(_HEADER.pack(MAGIC, HEADER_VERSION, n, count, samples.seed & _MASK64))
        fh.write(np.ascontiguousarray(samples.data, dtype="<f8").tobytes())


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
        expected = 8 * n * count
        payload = fh.read(expected)
        if len(payload) < expected:
            raise TruncatedSampleFileError(
                f"THSL payload of {count} x {n} rows needs {expected} bytes, "
                f"file has {len(payload)}")
        data = np.frombuffer(payload, dtype="<f8").reshape(count, n).copy()
    return SampleMatrix(data, body, seed)
