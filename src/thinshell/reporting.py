"""Report artifacts: deterministic CSV rows, assertion records, JSON metadata."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


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

    def render(self) -> str:
        extra_json = json.dumps(self.extra, sort_keys=True, separators=(",", ":")) if self.extra else ""
        return ",".join(_quote(f) for f in [
            self.estimator_id, self.body, str(self.n), str(self.N), str(self.seed),
            repr(float(self.value)), repr(float(self.half_width)), repr(float(self.bound)),
            extra_json,
        ])


def _quote(field: str) -> str:
    """A CSV field, quoted when it holds a comma or a quote (RFC 4180)."""
    if "," in field or '"' in field:
        return '"' + field.replace('"', '""') + '"'
    return field


CSV_HEADER = "estimator_id,body,n,N,seed,value,half_width,bound,extra_json"


def _report_order(rows: list[CsvRow]) -> list[CsvRow]:
    """Rows in report order: by body, then n, then estimator id."""
    return sorted(rows, key=lambda r: (r.body, r.n, r.estimator_id))


def render_csv(rows: list[CsvRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.render() for r in _report_order(rows)]) + "\n"


@dataclass(frozen=True)
class Assertion:
    """One verified claim: measured value against its target, with the anchor
    string naming the inequality it instantiates."""

    name: str
    anchor: str
    measured: float
    target: str
    passed: bool


@dataclass
class SuiteResult:
    name: str
    rows: list[CsvRow] = field(default_factory=list)
    assertions: list[Assertion] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def merge(self, other: "SuiteResult") -> None:
        self.rows.extend(other.rows)
        self.assertions.extend(other.assertions)
        self.notes.extend(other.notes)


def render_json(result: SuiteResult, config_echo: dict, timestamp: str, version: str,
                rng_id: str, timings: dict[str, float] | None = None) -> str:
    """JSON report: the CSV rows plus metadata that may vary between runs, such
    as the timestamp and the per-suite wall times in ``timings``."""
    payload = {
        "experiment": result.name,
        "version": version,
        "rng": rng_id,
        "timestamp": timestamp,  # confined to the JSON report; CSV stays byte-stable
        "config": config_echo,
        "timings": timings or {},
        "passed": result.passed,
        "assertions": [asdict(a) for a in result.assertions],
        "notes": result.notes,
        "rows": [
            {**{k: v for k, v in asdict(r).items() if k != "extra"}, "extra": r.extra}
            for r in _report_order(result.rows)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
