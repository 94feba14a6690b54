"""Report artifacts: deterministic CSV rows, assertion records, JSON metadata.

The CSV is written by the stdlib ``csv`` writer with newline line ends, which
quotes a field that holds a comma, a quote or a line break (RFC 4180).

An assertion is its measured value and the interval [lo, hi] it must lie in;
its verdict and target text are derived here, so the rule that decides a
verdict lives in this module alone."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass(frozen=True)
class CsvRow:
    estimator_id: str
    body: str
    n: int
    N: int
    seed: int
    value: float
    half_width: float = 0.0
    bound: float = float("nan")
    extra: dict = field(default_factory=dict)

    def _cells(self) -> list[str]:
        extra_json = json.dumps(self.extra, sort_keys=True, separators=(",", ":")) if self.extra else ""
        return [self.estimator_id, self.body, str(self.n), str(self.N), str(self.seed),
                repr(float(self.value)), repr(float(self.half_width)), repr(float(self.bound)),
                extra_json]


CSV_HEADER = "estimator_id,body,n,N,seed,value,half_width,bound,extra_json"


def _report_order(rows: list[CsvRow]) -> list[CsvRow]:
    """Rows in report order: by body, then n, then estimator id."""
    return sorted(rows, key=lambda r: (r.body, r.n, r.estimator_id))


def render_csv(rows: list[CsvRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    csv.writer(out, lineterminator="\n").writerows(r._cells() for r in _report_order(rows))
    return out.getvalue()


@dataclass(frozen=True)
class Assertion:
    """One verified claim: ``measured`` must lie in [lo, hi], an edge at infinity
    for a one-sided bound; ``anchor`` names the inequality it instantiates.  The
    verdict and its target text are derived from the interval, and nowhere else:
    a NaN fails, and a strict bound takes ``math.nextafter`` of its edge."""

    name: str
    anchor: str
    measured: float
    lo: float = -math.inf
    hi: float = math.inf

    @property
    def passed(self) -> bool:
        return bool(self.lo <= self.measured <= self.hi)

    @property
    def target(self) -> str:
        lo, hi = float(self.lo), float(self.hi)
        if lo == hi:
            return f"= {lo!r}"
        if lo == -math.inf:
            return f"<= {hi!r}"
        if hi == math.inf:
            return f">= {lo!r}"
        return f"in [{lo!r}, {hi!r}]"


@dataclass
class SuiteResult:
    name: str
    rows: list[CsvRow] = field(default_factory=list)
    assertions: list[Assertion] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # SVG file name -> zero-argument renderer, called only by runs that plot
    figures: dict[str, Callable[[], str]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def render_json(result: SuiteResult, config_echo: dict, timestamp: str, version: str,
                rng_id: str, timings: dict[str, float] | None = None) -> str:
    """JSON report: the CSV rows plus metadata that may vary between runs, such
    as the timestamp and the suite's wall time in ``timings``. Each assertion
    record carries its interval with the target and verdict derived from it.
    Strict JSON: a non-finite float (the ``nan`` bound of a row without one, the
    infinite edge of a one-sided interval) is written as null."""
    payload = {
        "experiment": result.name,
        "version": version,
        "rng": rng_id,
        "timestamp": timestamp,  # confined to the JSON report; CSV stays byte-stable
        "config": config_echo,
        "timings": timings or {},
        "passed": result.passed,
        "assertions": [{**asdict(a), "target": a.target, "passed": a.passed}
                       for a in result.assertions],
        "notes": result.notes,
        "rows": [asdict(r) for r in _report_order(result.rows)],
    }
    return json.dumps(_finite(payload), indent=2, allow_nan=False) + "\n"


def _finite(value):
    """``value`` with every non-finite float, however deeply nested, as None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value
