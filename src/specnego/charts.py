"""Self-contained SVG line and grouped-bar charts for metrics tables.

No plotting dependency: charts are assembled as SVG strings with fixed
geometry and a fixed palette, so identical inputs give byte-identical
files. Axis labels come from the table's column names.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .experiments import MetricsTable

__all__ = ["render_chart"]

PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#9d755d")

WIDTH, HEIGHT = 760, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 170, 40, 70
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _collect_series(table: MetricsTable, x: str, y: str, series: str | None):
    for name in (x, y) + ((series,) if series else ()):
        if name not in table.columns:
            raise ValueError(f"table {table.experiment_id!r} has no column {name!r}")
    xi, yi = table.columns.index(x), table.columns.index(y)
    si = table.columns.index(series) if series else None
    grouped: dict[str, list[tuple[float, float]]] = {}
    for row in table.rows:
        key = str(row[si]) if si is not None else y
        grouped.setdefault(key, []).append((float(row[xi]), float(row[yi])))
    return grouped


def _y_ticks(y_max: float) -> list[float]:
    return [y_max * i / 5 for i in range(6)]


def _header(title: str, x_label: str, y_label: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_LEFT}" y="22" font-size="15">{escape(title)}</text>',
        f'<text x="{MARGIN_LEFT + PLOT_W / 2:.2f}" y="{HEIGHT - 14}" '
        f'text-anchor="middle">{escape(x_label)}</text>',
        f'<text x="20" y="{MARGIN_TOP + PLOT_H / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {MARGIN_TOP + PLOT_H / 2:.2f})">{escape(y_label)}</text>',
    ]


def _axes_and_y_grid(y_max: float) -> list[str]:
    parts = [
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + PLOT_H}" x2="{MARGIN_LEFT + PLOT_W}" '
        f'y2="{MARGIN_TOP + PLOT_H}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + PLOT_H}" stroke="black"/>',
    ]
    for tick in _y_ticks(y_max):
        py = MARGIN_TOP + PLOT_H - (tick / y_max) * PLOT_H if y_max else MARGIN_TOP + PLOT_H
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py)}" x2="{MARGIN_LEFT + PLOT_W}" '
            f'y2="{_fmt(py)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(py + 4)}" '
            f'text-anchor="end">{tick:g}</text>'
        )
    return parts


def _legend(names: list[str]) -> list[str]:
    parts = []
    for k, name in enumerate(names):
        color = PALETTE[k % len(PALETTE)]
        ly = MARGIN_TOP + 18 * k
        parts.append(
            f'<rect x="{MARGIN_LEFT + PLOT_W + 16}" y="{ly}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT + PLOT_W + 34}" y="{ly + 10}">{escape(name)}</text>'
        )
    return parts


def render_chart(
    table: MetricsTable, kind: str, x: str, y: str, series: str | None = None
) -> str:
    """Render a ``line`` or ``bar`` chart of ``y`` against ``x`` as an SVG string."""
    if not table.rows:
        raise ValueError("cannot plot an empty metrics table")
    if kind not in ("line", "bar"):
        raise ValueError(f"unknown chart kind {kind!r}")
    grouped = _collect_series(table, x, y, series)

    all_points = [p for pts in grouped.values() for p in pts]
    y_max = max((py for _, py in all_points), default=0.0)
    if y_max <= 0.0:
        y_max = 1.0
    y_max *= 1.05

    title = f"{table.experiment_id}: {y} by {x}"
    parts = _header(title, x, y) + _axes_and_y_grid(y_max)

    def py_of(value: float) -> float:
        return MARGIN_TOP + PLOT_H - (value / y_max) * PLOT_H

    if kind == "line":
        x_values = [px for px, _ in all_points]
        x_min, x_max = min(x_values), max(x_values)
        span = x_max - x_min if x_max > x_min else 1.0

        def px_of(value: float) -> float:
            return MARGIN_LEFT + ((value - x_min) / span) * PLOT_W

        for tick in sorted(set(x_values)):
            parts.append(
                f'<text x="{_fmt(px_of(tick))}" y="{MARGIN_TOP + PLOT_H + 18}" '
                f'text-anchor="middle">{tick:g}</text>'
            )
        for k, (name, points) in enumerate(grouped.items()):
            color = PALETTE[k % len(PALETTE)]
            ordered = sorted(points)
            coords = " ".join(f"{_fmt(px_of(px))},{_fmt(py_of(py))}" for px, py in ordered)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            for px, py in ordered:
                parts.append(
                    f'<circle cx="{_fmt(px_of(px))}" cy="{_fmt(py_of(py))}" r="3.5" '
                    f'fill="{color}"/>'
                )
    else:
        categories: list[float] = []
        for px, _ in all_points:
            if px not in categories:
                categories.append(px)
        n_cat, n_series = len(categories), len(grouped)
        slot = PLOT_W / n_cat
        group_w = slot * 0.8
        bar_w = group_w / n_series
        for c, cat in enumerate(categories):
            center = MARGIN_LEFT + slot * (c + 0.5)
            parts.append(
                f'<text x="{_fmt(center)}" y="{MARGIN_TOP + PLOT_H + 18}" '
                f'text-anchor="middle">{cat:g}</text>'
            )
        for k, (name, points) in enumerate(grouped.items()):
            color = PALETTE[k % len(PALETTE)]
            values = dict(points)
            for c, cat in enumerate(categories):
                if cat not in values:
                    continue
                value = values[cat]
                left = MARGIN_LEFT + slot * (c + 0.5) - group_w / 2 + bar_w * k
                top = py_of(value)
                parts.append(
                    f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(bar_w)}" '
                    f'height="{_fmt(MARGIN_TOP + PLOT_H - top)}" fill="{color}"/>'
                )

    parts += _legend(list(grouped))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

