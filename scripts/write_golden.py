#!/usr/bin/env python3
"""Regenerate the golden reports in tests/golden: the report.csv of each suite
in GOLDEN at its CLI defaults (seed 20250810), which test_acceptance.py
compares against the current code.

Run it when a change moves report rows by design, and list the moved rows with
their old and new values in CHANGES.md."""

import sys
from pathlib import Path

from thinshell.cli import SUITES, default_config
from thinshell.reporting import render_csv

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"
# each suite here is written to tests/golden/<suite>.csv
GOLDEN = ("identities", "thinshell", "clt", "berry_esseen", "transport", "spectral")


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for suite in GOLDEN:
        path = GOLDEN_DIR / f"{suite}.csv"
        path.write_text(render_csv(SUITES[suite](default_config(suite)).rows))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
