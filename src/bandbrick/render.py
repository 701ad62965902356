"""Deterministic SVG pictures of the Dyck-path model.

The drawing shows a light grid, the labeled Dyck path of a g-vector, and
one horizontal chord per matched up/down pair at height nesting depth
plus one half, in a distinct color per multislalom component.  Output is
byte-identical for equal input and options.  Each distinct coordinate is
formatted once, per column, half column and height level, and the strings
are shared by the grid, the path, the labels and the chords.
"""

from __future__ import annotations

import colorsys
import math
import random
from typing import Sequence

from .dyck import reconstruct_multislalom
from .errors import DrawingTooLarge


def _palette(count: int, seed: int) -> list[str]:
    # well-spaced hues; the seed only rotates the starting point
    rng = random.Random(seed)
    hue = rng.random()
    colors = []
    for _ in range(count):
        r, g, b = colorsys.hsv_to_rgb(hue, 0.70, 0.72)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
        hue = (hue + 0.618033988749895) % 1.0
    return colors


def render_dyck(
    g: Sequence[int],
    *,
    unit: float = 40.0,
    width: float | None = None,
    palette_seed: int = 0,
) -> str:
    """Standalone SVG document for the Dyck diagram and multislalom of g."""
    ms = reconstruct_multislalom(g)
    steps = ms.diagram.steps
    heights = ms.diagram.heights
    count = len(steps)
    top = max(heights)
    if width is not None:
        unit = width / (count + 2)
    margin = unit
    w = margin * 2 + count * unit
    h = margin * 2 + (top + 1) * unit
    if not (math.isfinite(w) and math.isfinite(h)):
        raise DrawingTooLarge(f"a drawing of {count} steps at unit {unit} overflows a float")

    # every coordinate is formatted once: x of each column and half column,
    # y of each level, of each chord level (half a level up) and of each
    # label baseline (0.45 below the middle of the step it names)
    xs = [f"{margin + k * unit:.2f}" for k in range(count + 1)]
    half_xs = [f"{margin + (k + 0.5) * unit:.2f}" for k in range(count)]
    ys = [f"{h - margin - level * unit:.2f}" for level in range(top + 1)]
    chord_ys = [f"{h - margin - (level + 0.5) * unit:.2f}" for level in range(top)]
    label_ys = [
        f"{h - margin - ((2 * level + 1) / 2 - 0.45) * unit:.2f}" for level in range(top)
    ]

    chord_color: dict[int, str] = {}
    for comp, color in zip(ms.components, _palette(len(ms.components), palette_seed)):
        for up in comp.chords:
            chord_color[up] = color

    w_text, h_text = f"{w:.2f}", f"{h:.2f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_text}" '
        f'height="{h_text}" viewBox="0 0 {w_text} {h_text}">',
        f'<rect width="{w_text}" height="{h_text}" fill="#ffffff"/>',
        '<g stroke="#dddddd" stroke-width="1">',
    ]
    bottom, ceiling = ys[0], ys[top]
    parts += [f'<line x1="{x}" y1="{bottom}" x2="{x}" y2="{ceiling}"/>' for x in xs]
    left, right = xs[0], xs[count]
    parts += [f'<line x1="{left}" y1="{y}" x2="{right}" y2="{y}"/>' for y in ys]
    parts.append("</g>")

    points = " ".join([f"{x},{ys[hh]}" for x, hh in zip(xs, heights)])
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#222222" '
        'stroke-width="2"/>'
    )

    parts.append(
        f'<g font-family="monospace" font-size="{unit * 0.35:.2f}" '
        'fill="#222222" text-anchor="middle">'
    )
    lows = map(min, heights, heights[1:])
    parts += [
        f'<text x="{x}" y="{label_ys[low]}">{label}</text>'
        for x, low, (_, label) in zip(half_xs, lows, steps)
    ]
    parts.append("</g>")

    parts.append('<g stroke-width="2.5" fill="none">')
    parts += [
        f'<line x1="{half_xs[up]}" y1="{chord_ys[heights[up]]}" '
        f'x2="{half_xs[down]}" y2="{chord_ys[heights[up]]}" stroke="{chord_color[up]}"/>'
        for up, down in ms.matching
    ]
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
