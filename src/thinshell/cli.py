"""Experiment orchestration: config parsing, suite dispatch, report artifacts.

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 config parse error,
3 I/O error. ``thinshell all`` runs every suite at its default config and exits
with the largest code of its runs.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .bodies import KINDS, label_family
from .clt import TruncationError, cube_marginal_cut
from .estimators import uniform_direction
from .reporting import SuiteResult, render_csv, render_json
from .sampler import RNG_ID, dump_samples, sample_exact
from .suites import (
    CUBE,
    BodyTemplate,
    berry_esseen_suite,
    clt_suite,
    identities_suite,
    spectral_suite,
    thinshell_suite,
    transport_suite,
)

# Each suite called with its config; the lambdas look the suite functions up in
# this module when they run, so patching ``cli.<name>_suite`` reaches them.
SUITES = {
    "thinshell": lambda c: thinshell_suite(c.bodies, c.n_grid, c.samples, c.seed),
    "clt": lambda c: clt_suite(c.seed),
    "berry_esseen": lambda c: berry_esseen_suite(
        c.seed, cube_ns=tuple(c.n_grid), counter_ns=(min(c.n_grid), max(c.n_grid)),
        samples=c.samples),
    "transport": lambda c: transport_suite(c.seed),
    "spectral": lambda c: spectral_suite(c.seed,
                                         plot_dir=Path(c.output_dir) if c.plot else None),
    "identities": lambda c: identities_suite(),
}
EXPERIMENTS = tuple(SUITES)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    n_grid: list[int]
    samples: int
    bodies: list[BodyTemplate] = field(default_factory=lambda: [CUBE])
    seed: int = 20250810
    output_dir: str = "reports"
    plot: bool = False
    dump_samples: str | None = None

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ConfigError(f"n_grid must be a nonempty list of positive integers, "
                              f"got {self.n_grid}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed}")
        if self.samples < 100:
            raise ConfigError("samples must be >= 100")
        if self.experiment == "berry_esseen":
            if self.samples < 10 ** 4:
                raise ConfigError("berry_esseen needs samples >= 10000")
            for n in self.n_grid:
                try:
                    cube_marginal_cut(uniform_direction(n))
                except TruncationError as exc:
                    raise ConfigError(f"berry_esseen cannot reach n = {n}: {exc}") from exc
        for body in self.bodies:
            _check_body(body)

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "bodies": [{"kind": b.kind, **({"p": b.p} if b.p is not None else {})}
                       for b in self.bodies],
            "n_grid": self.n_grid,
            "samples": self.samples,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "plot": self.plot,
        }


_DEFAULTS = {"thinshell": ([4, 8, 16, 32, 64, 128, 256], 10 ** 5),
             "berry_esseen": ([16, 64, 256], 10 ** 5)}

_EXPERIMENT_KEYS = {"name", "n_grid", "samples", "seed", "output_dir", "plot"}
_BODY_KEYS = {"kind", "p"}


def _check_body(body: BodyTemplate) -> None:
    if body.kind not in KINDS:
        raise ConfigError(f"body kind {body.kind!r} is not one of {', '.join(KINDS)}")
    if body.kind == "lp_ball" and body.p is None:
        raise ConfigError("body kind 'lp_ball' needs key 'p'")
    if body.kind != "lp_ball" and body.p is not None:
        raise ConfigError(f"key 'p' does not apply to body kind {body.kind!r}")
    try:
        body.instantiate(1)
    except ValueError as exc:
        raise ConfigError(f"bad body {body.kind!r}: {exc}") from exc


def default_config(experiment: str) -> ExperimentConfig:
    n_grid, samples = _DEFAULTS.get(experiment, ([16, 64], 10 ** 5))
    return ExperimentConfig(experiment, list(n_grid), samples)


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Flat key = value blocks: one [experiment] section plus [body.*] sections."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    sec = parser["experiment"]
    for key in sec:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key {key!r} in [experiment]")
    name = (experiment or sec.get("name") or "").replace("-", "_")
    if not name:
        raise ConfigError("missing key 'name' in [experiment]")
    named = sec.get("name", name).replace("-", "_")
    if named != name:
        raise ConfigError(f"config file names suite {named!r}, not {name!r}")
    cfg = default_config(name)
    try:
        if "n_grid" in sec:
            cfg.n_grid = [int(t) for t in sec["n_grid"].split()]
        if "samples" in sec:
            cfg.samples = int(sec["samples"])
        if "seed" in sec:
            cfg.seed = int(sec["seed"])
        if "output_dir" in sec:
            cfg.output_dir = sec["output_dir"]
        if "plot" in sec:
            cfg.plot = sec.getboolean("plot")
    except ValueError as exc:
        raise ConfigError(f"bad value in [experiment]: {exc}") from exc

    bodies = []
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("body"):
            raise ConfigError(f"unknown section [{section}]")
        block = parser[section]
        for key in block:
            if key not in _BODY_KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
        kind = block.get("kind")
        if kind is None:
            raise ConfigError(f"missing key 'kind' in [{section}]")
        try:
            p = float(block["p"]) if "p" in block else None
        except ValueError as exc:
            raise ConfigError(f"bad value in [{section}]: {exc}") from exc
        bodies.append(BodyTemplate(kind, p))
    if bodies:
        cfg.bodies = bodies
    cfg.validate()
    return cfg


def run(config: ExperimentConfig) -> int:
    """Execute the configured suite and write report.csv / report.json / SVGs.

    The suite's wall time goes to report.json and stdout only, so report.csv
    stays byte-stable.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"I/O error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 3

    if config.dump_samples is not None and config.experiment == "thinshell":
        body = config.bodies[0].instantiate(min(config.n_grid))
        try:
            dump_samples(sample_exact(body, min(config.samples, 10 ** 4), config.seed),
                         config.dump_samples)
        except OSError as exc:
            print(f"I/O error: cannot write samples to {config.dump_samples}: {exc}",
                  file=sys.stderr)
            return 3
    t0 = time.perf_counter()
    result = SUITES[config.experiment](config)
    seconds = time.perf_counter() - t0

    try:
        (out_dir / "report.csv").write_text(render_csv(result.rows))
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        (out_dir / "report.json").write_text(
            render_json(result, config.echo(), timestamp, __version__, RNG_ID,
                        {f"{config.experiment}_s": seconds}))
        if config.plot:
            _write_plots(result, out_dir)
    except OSError as exc:
        print(f"I/O error while writing reports: {exc}", file=sys.stderr)
        return 3

    for a in result.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"[{status}] {a.name} ({a.anchor}): measured {a.measured:.6g}, {a.target}")
    for note in result.notes:
        print(f"[note] {note}")
    print(f"[time] {config.experiment} {seconds:.2f} s")
    print(f"report.csv / report.json written to {out_dir}")
    return 0 if result.passed else 1


def _write_plots(result: SuiteResult, out_dir: Path) -> None:
    from .svgplot import line_plot

    shell = {}
    for row in result.rows:
        if row.estimator_id == "thin_shell.var_ratio" and row.n > 0:
            shell.setdefault(label_family(row.body), []).append((row.n, row.value))
    if shell:
        line_plot(out_dir / "thinshell_loglog.svg",
                  {k: sorted(v) for k, v in shell.items()},
                  "n", "Var(|X|^2/n)", "thin-shell variance vs dimension")
    kol = [(row.n, row.value) for row in result.rows
           if row.estimator_id == "berry_esseen.kolmogorov"]
    if kol:
        line_plot(out_dir / "kolmogorov_vs_n.svg", {"cube marginal": sorted(kol)},
                  "n", "Kolmogorov distance", "marginal distance to normal")


def version_info() -> str:
    import numpy
    import scipy

    return (f"thinshell {__version__} | rng {RNG_ID} | "
            f"python {sys.version_info.major}.{sys.version_info.minor}."
            f"{sys.version_info.micro} numpy {numpy.__version__} scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thinshell",
        description="desk-scale verification suites for unconditional convex bodies")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--plot", action="store_true", help="write SVG plots")
    common.add_argument("--dump-samples", type=str, default=None,
                        help="dump the first sample matrix to this path (THSL binary)")
    for name in (e.replace("_", "-") for e in EXPERIMENTS):
        p = sub.add_parser(name, parents=[common], help=f"run the {name} suite")
        p.add_argument("--config", type=str, default=None, help="config file path")
    sub.add_parser("all", parents=[common],
                   help="run every suite at its defaults, each into OUT/<suite>")
    sub.add_parser("version", help="print version and RNG identifiers")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(version_info())
        return 0

    try:
        if args.command == "all":
            configs = [default_config(name) for name in EXPERIMENTS]
        elif args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                print(f"I/O error: cannot read config {args.config}: {exc}",
                      file=sys.stderr)
                return 3
            configs = [parse_config(text, experiment=args.command)]
        else:
            configs = [default_config(args.command.replace("-", "_"))]
        for config in configs:
            if args.seed is not None:
                config.seed = args.seed
            if args.out is not None:
                config.output_dir = args.out
            if args.command == "all":
                config.output_dir = str(Path(config.output_dir) / config.experiment)
            if args.plot:
                config.plot = True
            if args.dump_samples is not None:
                config.dump_samples = args.dump_samples
            config.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return max(run(config) for config in configs)


if __name__ == "__main__":
    sys.exit(main())
