#!/usr/bin/env python3
"""Regenerate the golden reports in tests/golden: the report.csv of each suite
in GOLDEN at its CLI defaults (seed 20250810), and the transport report at the
lattice benchmark's raster spacing h = 1/128 (transport_h128.csv), which
test_acceptance.py compares against the current code.

Run it when a change moves report rows by design, and list the moved rows with
their old and new values in CHANGES.md."""

import sys
from pathlib import Path

from thinshell.cli import SUITES, default_config
from thinshell.reporting import render_csv
from thinshell.suites import transport_suite

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"
# each suite here is written to tests/golden/<suite>.csv
GOLDEN = ("identities", "thinshell", "clt", "berry_esseen", "transport", "spectral")


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    reports = {suite: SUITES[suite](default_config(suite)) for suite in GOLDEN}
    reports["transport_h128"] = transport_suite(default_config("transport").seed,
                                                raster_h=1 / 128)
    for name, result in reports.items():
        path = GOLDEN_DIR / f"{name}.csv"
        path.write_text(render_csv(result.rows))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
