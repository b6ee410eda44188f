"""Deterministic SVG scatterplots of 2D embeddings.

One circle per point, fill color keyed by class id from a fixed palette,
unlabeled points black. Output bytes depend only on the inputs.
"""

from __future__ import annotations

from .dataset import UNLABELED, EplError, check_labels, check_matrix, write_file

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)
UNLABELED_COLOR = "#000000"
# Fixed geometry: a square canvas, the margin kept free around the points,
# and the circle radius, all in SVG user units.
SIZE = 640.0
MARGIN = 24.0
RADIUS = 3.0


def class_color(label: int) -> str:
    if label == UNLABELED:
        return UNLABELED_COLOR
    return PALETTE[label % len(PALETTE)]


def emit_scatter(coordinates, labels, path) -> None:
    """Write an SVG scatterplot of finite n x 2 coordinates, n >= 1, to
    ``path``, one label per point: a class id >= 0 or UNLABELED.

    Coordinates are mapped into the drawing area with a uniform scale so
    the geometry is preserved; a degenerate (single-point) extent lands in
    the center.
    """
    coords = check_matrix(coordinates, EplError, cols=2)
    if coords.shape[0] == 0:
        raise EplError("a scatterplot needs at least one point")
    labels = check_labels(labels, coords.shape[0], EplError, unlabeled=True)

    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    scale = (SIZE - 2.0 * MARGIN) / span if span > 0 else 0.0
    center = (lo + hi) / 2.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE:g}" height="{SIZE:g}" '
        f'viewBox="0 0 {SIZE:g} {SIZE:g}">',
        f'<rect width="{SIZE:g}" height="{SIZE:g}" fill="#ffffff"/>',
    ]
    for i in range(coords.shape[0]):
        # SVG y grows downward; flip so the plot reads like a chart.
        cx = SIZE / 2.0 + (coords[i, 0] - center[0]) * scale
        cy = SIZE / 2.0 - (coords[i, 1] - center[1]) * scale
        lines.append(
            f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{RADIUS:g}" '
            f'fill="{class_color(int(labels[i]))}"/>'
        )
    lines.append("</svg>")
    write_file(path, "\n".join(lines) + "\n", EplError)
