"""The BLER chart of ``--svg``: standalone SVG text, no plotting dependency.

One labelled BLER-vs-Eb/N0 curve with markers on a log y axis, 720x480.
Points that cannot be drawn on a log axis (BLER <= 0, a zero-error
estimate) are skipped; a chart left with none still draws its frame, axes
and legend.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 480
_LEFT, _TOP = 64, 36
_PLOT_W, _PLOT_H = WIDTH - _LEFT - 16, HEIGHT - _TOP - 48
_COLOR = "#1f77b4"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About six round values from lo to hi (lo < hi)."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    ticks = []
    v = math.ceil(lo / step) * step
    while v <= hi + 1e-9 * step:
        ticks.append(round(v, 10))
        v += step
    return ticks


def bler_chart(label: str, ebn0_db: list[float], bler: list[float]) -> str:
    """The chart's SVG text, one BLER per Eb/N0. The x axis spans every
    Eb/N0 given (0 to 1 with none, 1 dB either side of a single one); the
    y axis spans the decades of the drawable BLERs, 0.1 to 1 with none."""
    xs = [float(x) for x in ebn0_db]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    drawable = [(x, float(y)) for x, y in zip(xs, bler) if y > 0]
    ys = [y for _, y in drawable]
    y_lo, y_hi = -1, 0
    if ys:
        y_lo, y_hi = math.floor(math.log10(min(ys))), math.ceil(math.log10(max(ys)))
        if y_hi == y_lo:
            y_hi += 1

    def px(x: float) -> float:
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    def py(y: float) -> float:
        return _TOP + (y_hi - math.log10(y)) / (y_hi - y_lo) * _PLOT_H

    bottom, mid_y = _TOP + _PLOT_H, _TOP + _PLOT_H / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#333"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">Block error rate</text>',
    ]
    for tick in _nice_ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{_TOP}" x2="{x:.1f}" y2="{bottom}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{x:.1f}" y="{bottom + 16}" '
                     f'text-anchor="middle">{tick:g}</text>')
    for e in range(y_lo, y_hi + 1):
        y = py(10.0**e)
        parts.append(f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_LEFT + _PLOT_W}" '
                     f'y2="{y:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_LEFT - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end">1e{e}</text>')
    parts.append(f'<text x="{_LEFT + _PLOT_W / 2:.1f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle">Eb/N0 (dB)</text>')
    parts.append(f'<text x="16" y="{mid_y:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {mid_y:.1f})">BLER</text>')

    pts = [(px(x), py(y)) for x, y in drawable]
    if pts:
        poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(f'<polyline points="{poly}" fill="none" stroke="{_COLOR}" '
                     f'stroke-width="1.5"/>')
        parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{_COLOR}"/>'
                  for x, y in pts]
    lx, ly = _LEFT + _PLOT_W - 150, _TOP + 14
    parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                 f'stroke="{_COLOR}" stroke-width="1.5"/>')
    # not xml.sax.saxutils.escape, whose import pulls in http.client
    legend = label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    parts.append(f'<text x="{lx + 28}" y="{ly}">{legend}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
