#!/usr/bin/env python3
"""Benchmark command for the thinshell lab.

    python3 perfbench/run.py --workload acceptance --seed 20250810 --seconds 10 --trace 0

Run from anywhere; it benchmarks the sources in the ``src/`` directory next to
``perfbench/`` and writes only under ``.perfbench/`` there.

--trace 0 repeats the workload at the seed until ``--seconds`` have passed
(at least once; an iteration is never cut) and reports the end-to-end metrics:
the median wall time of an iteration, the median set-up time of seven fresh
processes, and the process's peak RSS after the first iteration.  --trace 1
alternates untraced iterations with traced ones (up to three pairs) and
reports the per-layer metrics of the first traced iteration, the untraced
per-suite times and the tracing overhead.

Correctness: every assertion the suites evaluate is an operation, and so is
every report written.  An assertion failure beyond the workload's known reds
fails one operation; so does a report.csv whose bytes differ from another run
of the same sources and seed (earlier iterations of this run, or earlier runs
recorded in ``.perfbench/report_sha256.json``).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2: no thinshell sources found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS thread per process: on a 2-core machine, OpenBLAS's default of one
# thread per core was measured to slow the spectral and transport suites by
# 20-35% (see NOTES.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is sampled in fresh processes, half before and half after the timed
# iterations, so that a slow spell of the machine does not decide the median.
SETUP_PROBES = 7

# The traced run makes up to TRACE_PAIRS pairs of an untraced and a traced
# iteration; a further pair starts only if it should end within TRACE_BUDGET_S
# of the first, which keeps families (about 85 s a pair) to one pair and every
# traced run well inside the 180 s a benchmark run may take.
TRACE_PAIRS = 3
TRACE_BUDGET_S = 90.0
_SETUP_PROBE = ("import time\nt0 = time.perf_counter()\nimport thinshell.cli, thinshell.clt\n"
                "thinshell.clt.build_kernel()\nprint(time.perf_counter() - t0)")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUITE_TIMES = {f"{s}_s": "s" for s in ("thinshell", "clt", "berry_esseen", "transport", "spectral")}
TRACE_EXTRAS = {
    **SUITE_TIMES,
    "assertions_failed": "count",
    "assertions_total": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.wrapper_cost_s": "s",
}


def per_layer_units() -> dict[str, str]:
    from perfbench.tracer import LAYER_METRICS

    return {**LAYER_METRICS, **TRACE_EXTRAS}


def _setup_samples(count: int) -> list[float]:
    """Seconds each of ``count`` fresh processes takes to import thinshell and
    build the smoothing kernel."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(count):
        r = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(r.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']}-{info['version']}"

    return {
        "cores": os.cpu_count(),
        **{v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def report_digest(outcome) -> str:
    h = hashlib.sha256()
    for name, data in outcome.reports.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def source_digest() -> str:
    """Hash of the program and the workload definitions."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "thinshell").rglob("*.py"), ROOT / "perfbench" / "workloads.py"]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check(workload: str, seed: int, outcomes: list) -> tuple[int, int]:
    """(attempted, failed) operations over every iteration of this run."""
    from perfbench.workloads import EXPECTED_RED

    expected = EXPECTED_RED[workload]
    first = report_digest(outcomes[0])
    attempted = failed = 0
    for o in outcomes:
        fails = Counter(c.name for c in o.assertions if not c.accepted)
        attempted += len(o.assertions) + 1
        failed += sum(max(0, k - expected.get(name, 0)) for name, k in fails.items())
        failed += report_digest(o) != first
    ledger_path = WORK / "report_sha256.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{workload} {seed} {source_digest()}"
    failed += ledger.get(key, first) != first
    ledger[key] = first
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return attempted, failed


def _iteration(run, seed: int):
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    return run(seed, out)


def _traced(run, seed: int, workload: str, env: dict):
    from perfbench import tracer as tr

    untraced, traced, tracers = [], [], []
    t0 = time.perf_counter()
    while not tracers or (len(tracers) < TRACE_PAIRS and (time.perf_counter() - t0)
                          * (len(tracers) + 1) / len(tracers) < TRACE_BUDGET_S):
        untraced.append(_iteration(run, seed))
        tracer = tr.Tracer()
        for w in tracer.install(tr.WRAPS):
            if not tracers:
                print(f"perfbench: {w.module}.{w.attr} no longer exists; {w.span} reads 0",
                      file=sys.stderr)
        try:
            traced.append(_iteration(run, seed))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    tracer = tracers[0]
    (WORK / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "environment": env,
         "span_fields": ["name", "start", "end", "parent"], "spans": tracer.to_json()}))
    metrics = tr.layer_metrics(tracer)
    metrics.update({k: statistics.median(o.suite_s.get(k[:-2], 0.0) for o in untraced)
                    for k in SUITE_TIMES})
    traced_s = statistics.median(o.wall_s for o in traced)
    metrics.update({
        "assertions_failed": sum(not c.passed for c in untraced[0].assertions),
        "assertions_total": len(untraced[0].assertions),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - statistics.median(o.wall_s for o in untraced),
        "trace.spans": len(tracer.spans),
        "trace.wrapper_cost_s": len(tracer.spans) * tr.wrapper_cost(),
    })
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("acceptance", "families", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or not 0 <= args.seed < 2 ** 64:
        parser.error("--seconds must be >= 1 and --seed a u64")
    if not (SRC / "thinshell" / "__init__.py").is_file():
        print(f"perfbench: no thinshell sources under {SRC}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:  # before numpy is imported, here or in a probe
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import thinshell.cli
    import thinshell.clt
    from perfbench.workloads import EXPECTED_RED, WORKLOADS

    if not Path(thinshell.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported thinshell from {thinshell.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    thinshell.clt.build_kernel()
    WORK.mkdir(exist_ok=True)
    env = environment()
    run = WORKLOADS[args.workload]

    if args.trace:
        outcomes, metrics = _traced(run, args.seed, args.workload, env)
        units = per_layer_units()
    else:
        setup = _setup_samples(SETUP_PROBES // 2)
        t0 = time.perf_counter()
        outcomes = [_iteration(run, args.seed)]
        # after one iteration, so the figure does not depend on how many fit
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while time.perf_counter() - t0 < args.seconds:
            outcomes.append(_iteration(run, args.seed))
        setup += _setup_samples(SETUP_PROBES - len(setup))
        metrics = {
            "wall_s": statistics.median(o.wall_s for o in outcomes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
    shutil.rmtree(WORK / "out", ignore_errors=True)
    attempted, failed = check(args.workload, args.seed, outcomes)

    first = outcomes[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(outcomes)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("iteration_wall_s " + " ".join(f"{o.wall_s:.4f}" for o in outcomes))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not args.trace:
        for suite in first.suite_s:
            if f"{suite}_s" in SUITE_TIMES:
                t = statistics.median(o.suite_s[suite] for o in outcomes)
                print(f"{suite}_s {t:.6g} s")
    failing = [c.name for c in first.assertions if not c.passed]
    print(f"assertions_failed {len(failing)} / assertions_total {len(first.assertions)} "
          f"(failing: {', '.join(failing) or 'none'}; "
          f"known red: {', '.join(EXPECTED_RED[args.workload]) or 'none'})")
    print(f"report_sha256 {report_digest(first)} "
          + " ".join(f"{k}={hashlib.sha256(v).hexdigest()[:16]}"
                     for k, v in first.reports.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
