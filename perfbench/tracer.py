"""Span tracer for the per-layer run.

The tracer replaces public functions of the thinshell modules at the module
(or class) attribute their callers look up, so a function imported by name
into two modules is wrapped in both.  Each call records one span (name, start,
end, parent); a generator function records one span per item it produces, so
lazy work is timed while it is consumed rather than when the generator is
created.  Spans stay in memory until the run ends.  ``uninstall`` puts every
original attribute back, so untraced runs measure the unpatched program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from collections import Counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def busy_time(spans: list[Span], prefix: str, outside: tuple[str, ...] = ()) -> float:
    """Wall time covered by spans whose name starts with ``prefix``.  A span
    nested inside another such span is not counted a second time, and one
    nested inside a span named in ``outside`` is not counted at all."""
    total = 0.0
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        while p >= 0 and not spans[p].name.startswith(prefix) and spans[p].name not in outside:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


class Wrap(NamedTuple):
    """One function to wrap: ``attr`` may be dotted (``Class.method``)."""

    module: str
    attr: str
    span: str
    hook: Callable | None = None  # hook(tracer, bound_args, result, seconds)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        self._stack.pop()
        span = self.spans[idx]._replace(end=self.clock())
        self.spans[idx] = span
        return span.end - span.start

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[i].name == name for i in self._stack)

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, -math.inf), value)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name: str, original, hook):
        sig = inspect.signature(original)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self._iterate(name, original(*args, **kwargs), hook,
                                     bound(args, kwargs) if hook else None)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                idx = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    seconds = self._close(idx)
                if hook is not None:
                    hook(self, bound(args, kwargs), result, seconds)
                return result
        return wrapper

    def _iterate(self, name, gen, hook, arguments):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                seconds = self._close(idx)
            self.counts[name] += 1
            if hook is not None:
                hook(self, arguments, item, seconds)
            yield item

    def install(self, wraps: list[Wrap]) -> list[Wrap]:
        """Wrap every target that exists; return the wraps whose target is gone,
        so that their metrics read 0 once the program drops the function."""
        missing = []
        for w in wraps:
            try:
                owner, leaf = resolve(w)
                original = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                missing.append(w)
                continue
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(w.span, original, w.hook))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def wrapper_cost() -> float:
    """Seconds a wrapped call with a hook costs more than a plain call: the
    median over five rounds of 10,000 calls each."""
    def plain(x, y=1):
        return x

    calls = 10 ** 4
    costs = []
    for _ in range(5):
        wrapped = Tracer()._wrapper("cost", plain, lambda t, a, result, seconds: None)
        t0 = time.perf_counter()
        for i in range(calls):
            plain(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def resolve(w: Wrap) -> tuple[object, str]:
    """The object holding the attribute a wrap replaces, and the attribute name."""
    owner = importlib.import_module(w.module)
    *path, leaf = w.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


# -- what the traced run wraps ---------------------------------------------------

def _moment_rows(t, a, result, seconds):
    t.counts["bodies.moment_rows"] += a["count"]


def _block_rows(t, a, block, seconds):
    if t.inside(MOMENT_PASS):  # counted as bodies.moment_rows
        return
    kind = a["body"].kind
    t.counts["sampler.rows"] += block.shape[0]
    t.counts[f"sampler.rows.{kind}"] += block.shape[0]
    t.counts[f"sampler.seconds.{kind}"] += seconds


def _materialised(t, a, result, seconds):
    t.counts["sampler.materialised_bytes"] += result.data.nbytes


def _sign_patterns(t, a, result, seconds):
    t.counts["clt.sign_patterns"] += 2 ** len(a["theta"])


def _tail_points(t, a, result, seconds):
    t.counts["clt.tail_points"] += result.n_points


def _cg_iterations(t, a, result, seconds):
    t.counts["transport.cg_iterations"] += result[1]


def _solve_nodes(t, a, result, seconds):
    t.counts["transport.solve_nodes"] += a["mu"].weights.size


def _eigenpairs(t, a, result, seconds):
    t.counts[f"spectral.eigenpairs_seconds.{a['grid'].n_nodes}"] += seconds
    t.peak("spectral.max_residual", max(p.residual for p in result))


def _csv_bytes(t, a, result, seconds):
    t.counts["reporting.csv_bytes"] += len(result.encode("utf-8"))


SUITES = ("thinshell", "clt", "berry_esseen", "transport", "spectral", "identities")

# The Monte Carlo isotropy pass draws its rows through exact_blocks but serves
# body instantiation, so its rows and time belong to the bodies layer only.
MOMENT_PASS = "bodies.moment_pass"

WRAPS: list[Wrap] = [
    Wrap("thinshell.suites", "BodyTemplate.instantiate", "bodies.instantiate"),
    Wrap("thinshell.sampler", "estimate_second_moments", MOMENT_PASS, _moment_rows),
    Wrap("thinshell.sampler", "exact_blocks", "sampler.exact_blocks", _block_rows),
    Wrap("thinshell.sampler", "sample_exact", "sampler.sample_exact", _materialised),
    Wrap("thinshell.sampler", "counterexample_marginal", "sampler.counterexample_marginal"),
    Wrap("thinshell.estimators", "thin_shell_stats", "estimators.thin_shell_stats"),
    Wrap("thinshell.estimators", "weighted_square_variance",
         "estimators.weighted_square_variance"),
    Wrap("thinshell.estimators", "kolmogorov_distance", "estimators.kolmogorov_distance"),
    Wrap("thinshell.estimators", "scaling_fit", "estimators.scaling_fit"),
    Wrap("thinshell.estimators", "verify_identities", "estimators.verify_identities"),
    Wrap("thinshell.clt", "bernoulli_gamma_tail_bruteforce", "clt.bruteforce", _sign_patterns),
    Wrap("thinshell.clt", "bernoulli_gamma_tail_fourier", "clt.fourier_tail"),
    Wrap("thinshell.clt", "quad", "clt.quad"),
    Wrap("thinshell.clt", "lemma700_report", "clt.lemma700", _tail_points),
    Wrap("thinshell.clt", "kernel_moment_by_quadrature", "clt.kernel_quadrature"),
    Wrap("thinshell.transport", "hminus1_norm", "transport.hminus1", _solve_nodes),
    Wrap("thinshell.transport", "_cg", "transport.cg", _cg_iterations),
    Wrap("thinshell.transport", "w2_1d", "transport.w2"),
    Wrap("thinshell.transport", "w2_assignment", "transport.w2"),
    Wrap("thinshell.transport", "verify_variance_bound", "transport.variance_bound"),
    Wrap("thinshell.transport", "graph_laplacian", "lattice.laplacian"),
    Wrap("thinshell.spectral", "graph_laplacian", "lattice.laplacian"),
    Wrap("thinshell.spectral", "rasterize", "spectral.rasterize"),
    Wrap("thinshell.spectral", "lowest_eigenpairs", "spectral.eigenpairs", _eigenpairs),
    Wrap("thinshell.cli", "run", "cli.run"),
    Wrap("thinshell.cli", "render_csv", "reporting.render", _csv_bytes),
    Wrap("thinshell.cli", "render_json", "reporting.render"),
    Wrap("thinshell.reporting", "render_csv", "reporting.render", _csv_bytes),
    Wrap("thinshell.reporting", "render_json", "reporting.render"),
] + [Wrap(module, f"{s}_suite", f"suites.{s}")
     for s in SUITES for module in ("thinshell.cli", "thinshell.suites")]

# Grid sizes (nodes) of the spectral suite's eigsh calls; each gets its own metric.
EIGSH_NODES = (1024, 2112, 3228, 4096, 6536, 7232, 12892, 16384, 51468)

SAMPLER_KINDS = ("cube", "euclidean_ball", "lp_ball")

LAYER_METRICS: dict[str, str] = {
    "bodies.instantiate_s": "s",
    "bodies.moment_passes": "count",
    "bodies.moment_rows": "count",
    "sampler.rows": "count",
    "sampler.busy_s": "s",
    **{f"sampler.rows_per_s.{k}": "1/s" for k in SAMPLER_KINDS},
    "sampler.materialised_mb": "MB",
    "estimators.busy_s": "s",
    "estimators.weighted_square_variance_s": "s",
    "estimators.weighted_square_variance_calls": "count",
    "estimators.thin_shell_stats_s": "s",
    "estimators.kolmogorov_distance_s": "s",
    "clt.bruteforce_s": "s",
    "clt.bruteforce_calls": "count",
    "clt.sign_patterns": "count",
    "clt.fourier_tail_s": "s",
    "clt.fourier_tail_calls": "count",
    "clt.quad_calls": "count",
    "clt.lemma700_s": "s",
    "clt.tail_points": "count",
    "clt.kernel_quadrature_s": "s",
    "transport.hminus1_s": "s",
    "transport.hminus1_calls": "count",
    "transport.cg_iterations": "count",
    "transport.solve_nodes": "count",
    "transport.w2_s": "s",
    "transport.variance_bound_s": "s",
    "lattice.laplacian_builds": "count",
    "lattice.laplacian_s": "s",
    "spectral.rasterize_calls": "count",
    "spectral.rasterize_s": "s",
    "spectral.eigsh_calls": "count",
    "spectral.eigenpairs_s": "s",
    **{f"spectral.eigenpairs_s.{n}": "s" for n in EIGSH_NODES},
    "spectral.max_residual": "1",
    **{f"suites.{s}.self_s": "s" for s in SUITES},
    "cli.self_s": "s",
    "reporting.render_s": "s",
    "reporting.csv_bytes": "bytes",
}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer numbers from a finished traced run, named as in LAYER_METRICS."""
    spans = t.spans
    took: Counter = Counter()
    own: Counter = Counter()
    for s, self_s in zip(spans, self_times(spans)):
        took[s.name] += s.end - s.start
        own[s.name] += self_s
    c = t.counts

    def rate(kind):
        secs = c[f"sampler.seconds.{kind}"]
        return c[f"sampler.rows.{kind}"] / secs if secs > 0 else 0.0

    m = {
        "bodies.instantiate_s": took["bodies.instantiate"],
        "bodies.moment_passes": c[MOMENT_PASS],
        "bodies.moment_rows": c["bodies.moment_rows"],
        "sampler.rows": c["sampler.rows"],
        "sampler.busy_s": busy_time(spans, "sampler.", outside=(MOMENT_PASS,)),
        **{f"sampler.rows_per_s.{k}": rate(k) for k in SAMPLER_KINDS},
        "sampler.materialised_mb": c["sampler.materialised_bytes"] / 2 ** 20,
        "estimators.busy_s": busy_time(spans, "estimators."),
        "estimators.weighted_square_variance_s": took["estimators.weighted_square_variance"],
        "estimators.weighted_square_variance_calls": c["estimators.weighted_square_variance"],
        "estimators.thin_shell_stats_s": took["estimators.thin_shell_stats"],
        "estimators.kolmogorov_distance_s": took["estimators.kolmogorov_distance"],
        "clt.bruteforce_s": took["clt.bruteforce"],
        "clt.bruteforce_calls": c["clt.bruteforce"],
        "clt.sign_patterns": c["clt.sign_patterns"],
        "clt.fourier_tail_s": took["clt.fourier_tail"],
        "clt.fourier_tail_calls": c["clt.fourier_tail"],
        "clt.quad_calls": c["clt.quad"],
        "clt.lemma700_s": took["clt.lemma700"],
        "clt.tail_points": c["clt.tail_points"],
        "clt.kernel_quadrature_s": took["clt.kernel_quadrature"],
        "transport.hminus1_s": took["transport.hminus1"],
        "transport.hminus1_calls": c["transport.hminus1"],
        "transport.cg_iterations": c["transport.cg_iterations"],
        "transport.solve_nodes": c["transport.solve_nodes"],
        "transport.w2_s": took["transport.w2"],
        "transport.variance_bound_s": took["transport.variance_bound"],
        "lattice.laplacian_builds": c["lattice.laplacian"],
        "lattice.laplacian_s": took["lattice.laplacian"],
        "spectral.rasterize_calls": c["spectral.rasterize"],
        "spectral.rasterize_s": took["spectral.rasterize"],
        "spectral.eigsh_calls": c["spectral.eigenpairs"],
        "spectral.eigenpairs_s": took["spectral.eigenpairs"],
        **{f"spectral.eigenpairs_s.{n}": c[f"spectral.eigenpairs_seconds.{n}"]
           for n in EIGSH_NODES},
        "spectral.max_residual": t.maxima.get("spectral.max_residual", 0.0),
        **{f"suites.{s}.self_s": own[f"suites.{s}"] for s in SUITES},
        "cli.self_s": own["cli.run"],
        "reporting.render_s": took["reporting.render"],
        "reporting.csv_bytes": c["reporting.csv_bytes"],
    }
    return {k: float(v) for k, v in m.items()}
