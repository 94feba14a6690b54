#!/usr/bin/env python3
"""Run every suite with the default (acceptance-scale) parameters: the same as
``thinshell all --plot``.

Writes reports/<suite>/report.{csv,json} plus SVG plots; exits nonzero if any
assertion fails."""

import sys

from thinshell import cli


def main() -> int:
    return cli.main(["all", "--plot"])


if __name__ == "__main__":
    sys.exit(main())
