#!/usr/bin/env python3
"""Regenerate tests/golden/spectral.csv: the spectral suite's report.csv at
seed 20250810, which test_acceptance.py compares against the current code.

Run it when a change moves report rows by design, and list the moved rows with
their old and new values in CHANGES.md."""

import sys
from pathlib import Path

from thinshell.reporting import render_csv
from thinshell.suites import spectral_suite

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "spectral.csv"


def main() -> int:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_csv(spectral_suite(20250810).rows))
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
