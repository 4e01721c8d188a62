"""Deterministic SVG line and bar charts from string templates.

Fixed 800x450 canvas; axes drawn as <line> elements so the structural
budget stays simple: one <polyline> per line series, one <rect> per bar.
All numbers render through one fixed-precision formatter, so identical
input yields byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..dataset import open_text
from ..errors import EmptyInputError

WIDTH = 800
HEIGHT = 450
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 30
_MARGIN_TOP = 50
_MARGIN_BOTTOM = 60
_PLOT_W = WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

_PALETTE = ("#1f6fb4", "#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e")

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
    f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff" '
    'stroke="none"/>\n')


def escape(text: str) -> str:
    """`text` with &, < and > replaced by XML entities, as
    xml.sax.saxutils.escape does; that module loads urllib.request, whose
    import costs every stage process about 30 ms."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _axes(title: str, x_label: str, y_label: str) -> list[str]:
    x0, y0 = _MARGIN_LEFT, HEIGHT - _MARGIN_BOTTOM
    x1, y1 = WIDTH - _MARGIN_RIGHT, _MARGIN_TOP
    return [
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333333" '
        'stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333333" '
        'stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>',
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {HEIGHT // 2})">{escape(y_label)}</text>',
    ]


def _value_span(values: Sequence[float]) -> tuple[float, float]:
    low, high = min(values), max(values)
    if low == high:
        low, high = low - 1.0, high + 1.0
    return low, high


def _y_ticks(low: float, high: float) -> list[str]:
    parts = []
    for i in range(5):
        frac = i / 4
        value = low + (high - low) * frac
        y = HEIGHT - _MARGIN_BOTTOM - frac * _PLOT_H
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 4}" y1="{_fmt(y)}" x2="{_MARGIN_LEFT}" '
            f'y2="{_fmt(y)}" stroke="#333333" stroke-width="1"/>')
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>')
    return parts


def line_chart_svg(series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
                   title: str, x_label: str, y_label: str) -> str:
    """One <polyline> per named series over a shared numeric x axis."""
    if not series or any(len(points) == 0 for _, points in series):
        raise EmptyInputError("line chart needs at least one nonempty series")
    xs = [x for _, points in series for x, _ in points]
    ys = [y for _, points in series for _, y in points]
    x_low, x_high = _value_span(xs)
    y_low, y_high = _value_span(ys)

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_low) / (x_high - x_low) * _PLOT_W

    def sy(y: float) -> float:
        return HEIGHT - _MARGIN_BOTTOM - (y - y_low) / (y_high - y_low) * _PLOT_H

    parts = _axes(title, x_label, y_label) + _y_ticks(y_low, y_high)
    for i, (name, points) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{coords}"/>')
        legend_y = _MARGIN_TOP + 16 * i
        parts.append(f'<line x1="{WIDTH - 190}" y1="{legend_y}" '
                     f'x2="{WIDTH - 170}" y2="{legend_y}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 164}" y="{legend_y + 4}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{escape(name)}</text>')
    return _HEADER + "\n".join(parts) + "\n</svg>\n"


def bar_chart_svg(bars: Sequence[tuple[str, float]], title: str,
                  x_label: str, y_label: str) -> str:
    """One <rect> per labelled bar; bars rise from a zero baseline."""
    if not bars:
        raise EmptyInputError("bar chart needs at least one bar")
    values = [v for _, v in bars]
    y_low = min(0.0, min(values))
    y_high = max(values)
    if y_low == y_high:
        y_high = y_low + 1.0

    def sy(y: float) -> float:
        return HEIGHT - _MARGIN_BOTTOM - (y - y_low) / (y_high - y_low) * _PLOT_H

    parts = _axes(title, x_label, y_label) + _y_ticks(y_low, y_high)
    slot = _PLOT_W / len(bars)
    bar_w = slot * 0.7
    for i, (label, value) in enumerate(bars):
        x = _MARGIN_LEFT + slot * i + slot * 0.15
        top = sy(max(value, 0.0))
        height = abs(sy(value) - sy(0.0))
        color = _PALETTE[0]
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(top)}" '
                     f'width="{_fmt(bar_w)}" height="{_fmt(height)}" '
                     f'fill="{color}" stroke="none"/>')
        label_x = x + bar_w / 2
        parts.append(f'<text x="{_fmt(label_x)}" y="{HEIGHT - _MARGIN_BOTTOM + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{escape(str(label))}</text>')
    return _HEADER + "\n".join(parts) + "\n</svg>\n"


def write_svg(path: str | Path, svg_text: str) -> None:
    with open_text(path, "w") as fh:
        fh.write(svg_text)
