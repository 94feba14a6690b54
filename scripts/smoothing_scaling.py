#!/usr/bin/env python3
"""Sup-error of the smoothed Bernoulli tail against the normal tail, as a
function of n for several smoothing strengths sigma = c/sqrt(n).

Shows why the 1/n law needs the smoothing variance E(sigma G)^2 ~ 22.25 c^2/n
to be small: large c saturates the error at desk-scale n, small c approaches
slope -1 (c must stay above 1 for uniform directions, or the small-coefficient
hypothesis fails)."""

import math
import sys
from pathlib import Path

import numpy as np

from thinshell.clt import lemma700_report
from thinshell.estimators import scaling_fit
from thinshell.svgplot import line_plot


def main() -> int:
    ns = [8, 16, 32, 64, 128, 256]
    series = {}
    for c in (2.0, 1.5, 1.05):
        pts = []
        for n in ns:
            theta = np.full(n, 1.0 / math.sqrt(n))
            rep = lemma700_report(theta, sigma=c / math.sqrt(n))
            pts.append((n, rep.sup_error))
        fit = scaling_fit(pts)
        series[f"sigma = {c:g}/sqrt(n)"] = pts
        print(f"c = {c:>4}: slope {fit.slope:+.3f}   " +
              "  ".join(f"n={n}: {e:.4f}" for n, e in pts))
    out = Path("reports/smoothing_sup_error.svg")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(line_plot(series, "n", "sup error", "smoothed Bernoulli tail: sup |P - Phi|"))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
