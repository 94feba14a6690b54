#!/usr/bin/env python3
"""Record the benchmark's baseline in perfbench/baseline.json.

    python3 perfbench/collect.py

For every workload in BENCHMARK.json it runs seeds 1..10 twice, in two sets
that alternate which goes first, at the file's ``run_seconds``.  For each set
and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median next
to the metric's bound, and how far the second set's median lies from the
first's.  Then it makes one traced run per workload at seed 20250810.  Every
run, traced ones included, goes into perfbench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2
TRACE_SEED = 20250810


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[] for _ in range(SETS)]
        for i, seed in enumerate(SEEDS):
            for k in range(SETS) if i % 2 == 0 else reversed(range(SETS)):
                res, _ = bench(workload, seed, spec["run_seconds"], 0)
                sets[k].append({"seed": seed, **res})
                print(f"{workload} set={k} seed={seed} correct={res['correct']} "
                      f"failed={res['failed']} "
                      + " ".join(f"{n}={v['value']:.4g}" for n, v in res["metrics"].items()),
                      flush=True)
        entry = {"sets": []}
        for k, runs in enumerate(sets):
            summary = {}
            for name, bound in bounds.items():
                s = summarise([r["metrics"][name]["value"] for r in runs])
                summary[name] = {**s, "bound": bound}
                flag = "" if s["spread"] < bound / 3 else "  <-- wide"
                drift = (f" vs set 0 {s['median'] / entry['sets'][0]['end_to_end'][name]['median'] - 1:+.3f}"
                         if k else "")
                print(f"  {workload} set={k} {name}: median {s['median']:.4g} q1 {s['q1']:.4g} "
                      f"q3 {s['q3']:.4g} spread {s['spread']:.3f}{drift} bound {bound}{flag}",
                      flush=True)
            entry["sets"].append({"runs": runs, "end_to_end": summary})
        res, lines = bench(workload, TRACE_SEED, spec["run_seconds"], 1)
        entry["traced"] = {"seed": TRACE_SEED, "correct": res["correct"],
                           "failed": res["failed"], "attempted": res["attempted"],
                           "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                           "log": lines}
        print("\n".join(lines), flush=True)
        result["workloads"][workload] = entry
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
