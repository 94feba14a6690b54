"""Minimal self-contained SVG writers (polyline charts and raster heatmaps),
so reports carry plots without a plotting dependency."""

from __future__ import annotations

import math

import numpy as np

_W, _H, _PAD = 640, 440, 60
_TICKS = 5
_GUIDE_SLOPE = -1.0  # the 1/n law every chart is read against


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return [(v - lo) / (hi - lo) * (out_hi - out_lo) + out_lo for v in vals]


def _axis_ticks(lo, hi):
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def line_plot(path, series: dict, xlabel: str, ylabel: str, title: str) -> None:
    """Log-log polyline chart with a dashed slope -1 guide; series maps
    label -> list of (x, y)."""
    xs = [math.log10(x) for pts in series.values() for x, _ in pts]
    ys = [math.log10(y) for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    # axes
    parts.append(f'<line x1="{_PAD}" y1="{_H-_PAD}" x2="{_W-_PAD}" y2="{_H-_PAD}" stroke="black"/>')
    parts.append(f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H-_PAD}" stroke="black"/>')
    for t in _axis_ticks(x_lo, x_hi):
        px = _scale([t], x_lo, x_hi, _PAD, _W - _PAD)[0]
        parts.append(f'<text x="{px}" y="{_H-_PAD+18}" text-anchor="middle">{10**t:.3g}</text>')
    for t in _axis_ticks(y_lo, y_hi):
        py = _scale([t], y_lo, y_hi, _H - _PAD, _PAD)[0]
        parts.append(f'<text x="{_PAD-6}" y="{py+4}" text-anchor="end">{10**t:.3g}</text>')
    parts.append(f'<text x="{_W/2}" y="{_H-14}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H/2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H/2})">{ylabel}</text>')
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    gx = [x_lo, x_hi]
    mid_y = (y_lo + y_hi) / 2
    gy = [mid_y + _GUIDE_SLOPE * (x - (x_lo + x_hi) / 2) for x in gx]
    px = _scale(gx, x_lo, x_hi, _PAD, _W - _PAD)
    py = _scale(gy, y_lo, y_hi, _H - _PAD, _PAD)
    parts.append(f'<line x1="{px[0]:.2f}" y1="{py[0]:.2f}" x2="{px[1]:.2f}" y2="{py[1]:.2f}" '
                 f'stroke="#999" stroke-dasharray="6 4"/>')
    parts.append(f'<text x="{px[1]-4:.2f}" y="{py[1]-6:.2f}" text-anchor="end" '
                 f'fill="#666">slope {_GUIDE_SLOPE:g}</text>')
    for ci, (label, pts) in enumerate(sorted(series.items())):
        col = colors[ci % len(colors)]
        px = _scale([math.log10(x) for x, _ in pts], x_lo, x_hi, _PAD, _W - _PAD)
        py = _scale([math.log10(y) for _, y in pts], y_lo, y_hi, _H - _PAD, _PAD)
        coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{col}" stroke-width="1.5"/>')
        for a, b in zip(px, py):
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="{col}"/>')
        parts.append(f'<text x="{_W-_PAD}" y="{_PAD + 16*ci}" text-anchor="end" '
                     f'fill="{col}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def heatmap(path, mask: np.ndarray, values: np.ndarray, title: str) -> None:
    """Cellwise diverging heatmap of the image ``values`` on the cells of ``mask``
    (indexed (y, x), as ``spectral.GridDomain.image`` lays it out)."""
    ny, nx = mask.shape
    cell = max(2, int(480 / max(nx, ny)))
    w, h = nx * cell, ny * cell + 30
    vmax = float(np.max(np.abs(values[mask]))) or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}" font-family="monospace" font-size="12">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w/2}" y="16" text-anchor="middle">{title}</text>']
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix]:
                continue
            v = values[iy, ix] / vmax
            if v >= 0:
                r, g, b = 255, int(255 * (1 - v)), int(255 * (1 - v))
            else:
                r, g, b = int(255 * (1 + v)), int(255 * (1 + v)), 255
            y = (ny - 1 - iy) * cell + 24
            parts.append(f'<rect x="{ix*cell}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="rgb({r},{g},{b})"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
