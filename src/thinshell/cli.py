"""Experiment orchestration: config parsing, suite dispatch, report artifacts.

A config holds only the inputs its suite reads (``INPUTS``), the seed, output
directory and plot switch; ``run`` writes the suite's figures when it plots.

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 config parse error,
3 I/O error. ``thinshell all`` runs every suite at its default config and exits
with the largest code of its runs.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import datetime
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .bodies import KINDS
from .clt import TruncationError, cube_marginal_cut
from .estimators import uniform_direction
from .reporting import render_csv, render_json
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
    "spectral": lambda c: spectral_suite(c.seed),
    "identities": lambda c: identities_suite(),
}
EXPERIMENTS = tuple(SUITES)

# The inputs each suite reads, at their defaults (None: optional); the suites
# not listed read none.  The seed, output_dir and plot go with every suite.
INPUTS = {
    "thinshell": {"bodies": [CUBE], "n_grid": [4, 8, 16, 32, 64, 128, 256],
                  "samples": 10 ** 5, "dump_samples": None},
    "berry_esseen": {"n_grid": [16, 64, 256], "samples": 10 ** 5},
}
_GIVEN_AS = {"bodies": "[body.*] sections", "dump_samples": "--dump-samples"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    n_grid: list[int] | None
    samples: int | None
    bodies: list[BodyTemplate] | None = None
    seed: int = 20250810
    output_dir: str = "reports"
    plot: bool = False
    dump_samples: str | None = None

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        reads = INPUTS.get(self.experiment, {})
        for key in ("bodies", "n_grid", "samples", "dump_samples"):
            if getattr(self, key) is None and reads.get(key) is not None:
                raise ConfigError(f"suite {self.experiment!r} needs {key!r}")
            if getattr(self, key) is not None and key not in reads:
                raise ConfigError(f"suite {self.experiment!r} does not read "
                                  f"{_GIVEN_AS.get(key, repr(key))}")
        if self.n_grid is not None and (not self.n_grid or any(n < 1 for n in self.n_grid)):
            raise ConfigError(f"n_grid must be a nonempty list of positive integers, "
                              f"got {self.n_grid}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed}")
        if self.samples is not None and self.samples < 100:
            raise ConfigError("samples must be >= 100")
        if self.experiment == "berry_esseen":
            if self.samples < 10 ** 4:
                raise ConfigError("berry_esseen needs samples >= 10000")
            for n in self.n_grid:
                try:
                    cube_marginal_cut(uniform_direction(n))
                except TruncationError as exc:
                    raise ConfigError(f"berry_esseen cannot reach n = {n}: {exc}") from exc
        for body in self.bodies or ():
            _check_body(body)

    def echo(self) -> dict:
        """The fields that are set, as report.json records them."""
        bodies = self.bodies and [{"kind": b.kind, **({"p": b.p} if b.p is not None else {})}
                                  for b in self.bodies]
        return {k: v for k, v in {**vars(self), "bodies": bodies}.items() if v is not None}


# [experiment] keys besides name, each with the getter of its section that reads it
_EXPERIMENT_KEYS = {"n_grid": "getints", "samples": "getint", "seed": "getint",
                    "output_dir": "get", "plot": "getboolean"}
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
    inputs = copy.deepcopy(INPUTS.get(experiment, {}))
    return ExperimentConfig(experiment, **{"n_grid": None, "samples": None, **inputs})


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Flat key = value blocks: one [experiment] section plus [body.*] sections."""
    parser = configparser.ConfigParser(converters={"ints": lambda v: [int(t) for t in v.split()]})
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    sec = parser["experiment"]
    for key in sec:
        if key not in _EXPERIMENT_KEYS and key != "name":
            raise ConfigError(f"unknown key {key!r} in [experiment]")
    name = (experiment or sec.get("name") or "").replace("-", "_")
    if not name:
        raise ConfigError("missing key 'name' in [experiment]")
    named = sec.get("name", name).replace("-", "_")
    if named != name:
        raise ConfigError(f"config file names suite {named!r}, not {name!r}")
    cfg = default_config(name)
    try:
        for key in sec:
            if key != "name":
                setattr(cfg, key, getattr(sec, _EXPERIMENT_KEYS[key])(key))
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

    The suite's wall time and the process's peak RSS after it go to
    report.json and stdout only, so report.csv stays byte-stable.
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

    if config.dump_samples is not None:
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
    peak_mb = _peak_rss_mb()

    try:
        (out_dir / "report.csv").write_text(render_csv(result.rows))
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        (out_dir / "report.json").write_text(
            render_json(result, config.echo(), timestamp, __version__, RNG_ID,
                        {f"{config.experiment}_s": seconds}, peak_mb))
        if config.plot:
            for name, render in result.figures.items():
                (out_dir / name).write_text(render())
    except OSError as exc:
        print(f"I/O error while writing reports: {exc}", file=sys.stderr)
        return 3

    for a in result.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"[{status}] {a.name} ({a.anchor}): measured {a.measured:.6g}, {a.target}")
    for note in result.notes:
        print(f"[note] {note}")
    print(f"[time] {config.experiment} {seconds:.2f} s")
    if peak_mb is not None:
        print(f"[time] {config.experiment} peak RSS {peak_mb:.1f} MB")
    print(f"report.csv / report.json written to {out_dir}")
    return 0 if result.passed else 1


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far in MB of 2^20 bytes, or None
    where the ``resource`` module is missing (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)  # bytes on macOS, else KiB


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
    common.add_argument("--plot", action="store_true", help="write the suite's SVG figures")
    common.add_argument("--dump-samples", type=str, default=None,
                        help="dump thinshell's first sample matrix to this path (THSL binary)")
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
            if args.dump_samples is not None and (
                    args.command != "all" or "dump_samples" in INPUTS.get(config.experiment, {})):
                config.dump_samples = args.dump_samples
            config.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return max(run(config) for config in configs)


if __name__ == "__main__":
    sys.exit(main())
