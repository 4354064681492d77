"""Tiny self-contained SVG line charts (no plotting dependency).

Good enough for BLER-vs-SNR curves: linear x, optionally log y, markers,
and a legend. Points that cannot be drawn on a log axis (y <= 0, e.g. a
zero-error BLER estimate) are skipped; a chart left with none still draws
its frame, axes and legend.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48


def _nice_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(round(v, 10))
        v += step
    return ticks or [lo]


def line_chart(
    path: str,
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_y: bool = False,
    width: int = 720,
    height: int = 480,
) -> None:
    """Write a line chart. series is a list of (label, xs, ys). With no
    drawable y the chart has no curve and its y axis spans 0.1 to 1 (log)
    or 0 to 1 (linear); with no x at all, the x axis spans 0 to 1."""
    if not series:
        raise ValueError("need at least one series")
    xs_all, ys_all = [], []
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series x and y lengths differ")
        xs_all.extend(float(v) for v in xs)
        ys_all.extend(float(v) for v in ys if (v > 0 or not log_y))

    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if not ys_all:
        y_lo, y_hi = (-1, 0) if log_y else (0.0, 1.0)
    elif log_y:
        y_lo = math.floor(math.log10(min(ys_all)))
        y_hi = math.ceil(math.log10(max(ys_all)))
        if y_hi == y_lo:
            y_hi += 1
    else:
        y_lo, y_hi = min(ys_all), max(ys_all)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        v = math.log10(y) if log_y else y
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{escape(title)}</text>'
        )

    for tick in _nice_ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{_MARGIN_T}" x2="{tx:.1f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{tx:.1f}" y="{_MARGIN_T + plot_h + 16}" '
            f'text-anchor="middle">{tick:g}</text>'
        )
    y_ticks = (
        [10.0**e for e in range(int(y_lo), int(y_hi) + 1)]
        if log_y
        else _nice_ticks(y_lo, y_hi)
    )
    for tick in y_ticks:
        ty = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{ty:.1f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{ty:.1f}" stroke="#ddd"/>'
        )
        label = f"1e{int(math.log10(tick))}" if log_y else f"{tick:g}"
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{ty + 4:.1f}" '
            f'text-anchor="end">{label}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{height - 10}" '
            f'text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.1f})">{escape(ylabel)}</text>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = [
            (px(float(x)), py(float(y)))
            for x, y in zip(xs, ys)
            if (float(y) > 0 or not log_y)
        ]
        if pts:
            poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{poly}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            for x, y in pts:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                             f'fill="{color}"/>')
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
