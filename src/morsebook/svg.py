"""Deterministic SVG rendering of diagrams, fronts and resolutions.

Charts are drawn side by side, one square per binding torus, with
trace pairs colour-matched, fronts in black, and optional overlays for
interval multiplicities and resolution curves.  Output is byte-stable:
elements are emitted in a fixed order and rationals are printed at a
fixed precision.
"""

from __future__ import annotations

from fractions import Fraction

CHART = 400
MARGIN = 40
PAIR_COLORS = [
    "#c0392b",
    "#2471a3",
    "#1e8449",
    "#b7950b",
    "#884ea0",
    "#17a589",
    "#a04000",
    "#5d6d7e",
]


def _fmt(value):
    return "%.6f" % (float(value),)


class _Chart:
    def __init__(self, torus):
        self.ox = MARGIN + torus * (CHART + MARGIN)
        self.oy = MARGIN

    def to_xy(self, x, t):
        return (
            self.ox + float(x % 1) * CHART,
            self.oy + (1 - float(t % 1)) * CHART,
        )


def _polyline_chunks(points):
    """Split a lifted polyline at chart wraps so every chunk stays inside."""
    chunks = [[]]
    prev = None
    for p in points:
        if prev is not None:
            steps = _wrap_splits(prev, p)
            for q in steps:
                chunks[-1].append(q)
                chunks.append([q])
        chunks[-1].append(p)
        prev = p
    return [c for c in chunks if len(c) >= 2]


def _wrap_splits(a, b):
    """Points where the segment crosses integer x or t lines."""
    import math

    cuts = []
    for axis in (0, 1):
        lo, hi = sorted((a[axis], b[axis]))
        n0 = math.floor(lo) + 1
        while n0 <= math.ceil(hi) - 1:
            if lo < n0 < hi:
                s = Fraction(n0 - a[axis], b[axis] - a[axis])
                cuts.append((s, (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))))
            n0 += 1
    cuts.sort(key=lambda c: c[0])
    return [p for _, p in cuts]


def _path(chart, points, color, width, dash=None):
    out = []
    for chunk in _polyline_chunks(points):
        coords = " ".join(
            "%s,%s" % (_fmt(px), _fmt(py))
            for px, py in (chart.to_xy(x, t) for x, t in chunk)
        )
        dash_attr = ' stroke-dasharray="%s"' % dash if dash else ""
        out.append(
            '<polyline fill="none" stroke="%s" stroke-width="%s"%s points="%s"/>'
            % (color, width, dash_attr, coords)
        )
    return out


def render_svg(d, fronts=(), resolution=None, multiplicities=None):
    """Draw the diagram with optional fronts and overlays, byte-stable."""
    width = MARGIN + d.binding_count * (CHART + MARGIN)
    height = CHART + 2 * MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]
    charts = [_Chart(i) for i in range(d.binding_count)]
    for i, chart in enumerate(charts):
        parts.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
            'stroke="#999999" stroke-width="1"/>' % (chart.ox, chart.oy, CHART, CHART)
        )
        parts.append(
            '<text x="%d" y="%d" font-size="14" fill="#333333">torus %d</text>'
            % (chart.ox, chart.oy - 8, i)
        )

    for pi, pair in enumerate(d.trace_pairs):
        color = PAIR_COLORS[pi % len(PAIR_COLORS)]
        for side, curve, dash in ((1, pair.plus, None), (-1, pair.minus, "6,3")):
            chart = charts[curve.torus]
            for strand in curve.strands:
                parts.extend(_path(chart, strand, color, 2, dash))

    for f in fronts:
        for comp in f.components:
            chart = charts[comp.torus]
            runs = []
            run = []
            for v in comp.vertices:
                run.append(v.point)
                if v.kind == "teleport" and v.role == "exit":
                    runs.append(run)
                    run = []
            if run:
                runs.append(run + [comp.lifted(len(comp))])
            for r in runs:
                if len(r) >= 2:
                    parts.extend(_path(chart, r, "#111111", 2))
            for v in comp.vertices:
                if v.kind == "cusp":
                    cx, cy = chart.to_xy(v.x, v.t)
                    parts.append(
                        '<circle cx="%s" cy="%s" r="3" fill="#111111"/>'
                        % (_fmt(cx), _fmt(cy))
                    )

    if multiplicities is not None:
        for (pid, side), spans in sorted(multiplicities.coalesced().items()):
            pair = d.trace_pairs[d.pair_index(pid)]
            curve = pair.curve(side)
            chart = charts[curve.torus]
            for t0, t1, m in spans:
                if m == 0:
                    continue
                tm = (t0 + t1) / 2
                x = curve.x_at(tm)
                px, py = chart.to_xy(x, tm)
                parts.append(
                    '<text x="%s" y="%s" font-size="12" fill="#000000">%+d</text>'
                    % (_fmt(px + 5), _fmt(py), m)
                )

    if resolution is not None:
        for curve in resolution.curves:
            color = "#e67e22" if curve.kind == "horizontal" else "#27ae60"
            chart = charts[curve.torus]
            parts.extend(_path(chart, curve.points, color, 1))

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
