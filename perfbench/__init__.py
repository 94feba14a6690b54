"""Benchmark of the thinshell lab: three workloads, untraced end-to-end
metrics and a traced per-layer run.  Entry point: ``python3 perfbench/run.py``."""
