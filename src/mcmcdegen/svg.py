"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: figures must be reproducible byte-for-byte from
their inputs, so no plotting library (whose output embeds versions, ids, or
timestamps) is used. Only what the trajectory figures need: stacked panels,
solid/dashed polylines, an optional horizontal reference line, ticks and
labels.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

PALETTE = ("#000000", "#b22222", "#1f4e8c", "#2e7d32")
WIDTH, PANEL_HEIGHT = 840, 250  # pixels: the figure's width, one panel's height


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


@dataclasses.dataclass(frozen=True)
class Series:
    name: str
    x: tuple
    y: tuple
    dashed: bool = False
    color: str | None = None


@dataclasses.dataclass(frozen=True)
class Panel:
    title: str
    series: tuple
    hline: float | None = None
    ylabel: str = ""
    xlabel: str = "step"


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _panel_svg(panel: Panel, top: int, width: int, height: int) -> list[str]:
    ml, mr, mt, mb = 64, 16, 28, 40
    px, py = ml, top + mt
    pw, ph = width - ml - mr, height - mt - mb

    xs = [v for s in panel.series for v in s.x]
    ys = [v for s in panel.series for v in s.y]
    if panel.hline is not None:
        ys.append(panel.hline)
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(v):
        return px + pw * (v - xlo) / (xhi - xlo) if xhi > xlo else px

    def sy(v):
        return py + ph * (1.0 - (v - ylo) / (yhi - ylo))

    out = [
        f'<text x="{_fmt(px)}" y="{_fmt(top + 18)}" font-size="14" '
        f'font-family="monospace">{panel.title}</text>',
        f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
        f'height="{_fmt(ph)}" fill="none" stroke="#888888"/>',
    ]
    for tv in _ticks(xlo, xhi):
        tx = sx(tv)
        out.append(
            f'<line x1="{_fmt(tx)}" y1="{_fmt(py + ph)}" x2="{_fmt(tx)}" '
            f'y2="{_fmt(py + ph + 4)}" stroke="#888888"/>'
        )
        out.append(
            f'<text x="{_fmt(tx)}" y="{_fmt(py + ph + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{_fmt(tv)}</text>'
        )
    for tv in _ticks(ylo, yhi, 4):
        ty = sy(tv)
        out.append(
            f'<line x1="{_fmt(px - 4)}" y1="{_fmt(ty)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(ty)}" stroke="#888888"/>'
        )
        out.append(
            f'<text x="{_fmt(px - 8)}" y="{_fmt(ty + 4)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{_fmt(tv)}</text>'
        )
    if panel.ylabel:
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py - 6)}" font-size="11" '
            f'font-family="monospace">{panel.ylabel}</text>'
        )
    out.append(
        f'<text x="{_fmt(px + pw / 2)}" y="{_fmt(py + ph + 34)}" font-size="11" '
        f'text-anchor="middle" font-family="monospace">{panel.xlabel}</text>'
    )
    if panel.hline is not None and ylo <= panel.hline <= yhi:
        hy = sy(panel.hline)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(hy)}" x2="{_fmt(px + pw)}" '
            f'y2="{_fmt(hy)}" stroke="#999999" stroke-dasharray="2,3"/>'
        )
    legend_x = px + 8
    for i, series in enumerate(panel.series):
        color = series.color or PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6,4"' if series.dashed else ""
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(series.x, series.y))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2"{dash} '
            f'points="{pts}"/>'
        )
        ly = py + 14 + 14 * i
        out.append(
            f'<line x1="{_fmt(legend_x)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(legend_x + 22)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}"{dash}/>'
        )
        out.append(
            f'<text x="{_fmt(legend_x + 28)}" y="{_fmt(ly)}" font-size="11" '
            f'font-family="monospace">{series.name}</text>'
        )
    return out


def line_plot(panels, path) -> bytes:
    """Render stacked panels to an SVG file; returns the exact bytes."""
    panels = tuple(panels)
    height = PANEL_HEIGHT * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, i * PANEL_HEIGHT, WIDTH, PANEL_HEIGHT))
    parts.append("</svg>")
    data = ("\n".join(parts) + "\n").encode("utf-8")
    if path is not None:
        Path(path).write_bytes(data)
    return data
