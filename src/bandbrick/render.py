"""Deterministic SVG pictures of the Dyck-path model.

The drawing shows a light grid, the labeled Dyck path of a g-vector, and
one horizontal chord per matched up/down pair at height nesting depth
plus one half, in a distinct color per multislalom component.  Output is
byte-identical for equal input and options.

The chords come from the curves of dyck.reconstruct_multislalom, and
the rest is read off the entries of g one label run at a time:
a run climbs or falls one level a step, so the path heights, the label
baselines and the chord levels of a run are one forward or reversed slice
of the per-level strings.  Each coordinate list is formatted by one
string operation over the whole list, and the strings are shared by the
grid, the path, the labels and the chords.  With a whole unit and a
drawing narrower than 2**40, as at the default unit of 40, every
coordinate is a whole number of cents, so three lists (columns, half
columns, label baselines) are int progressions printed with a fixed
two-digit tail, the digits "%.2f" of the float would print, and the
levels and chord levels are the columns and half columns read
backwards.  Otherwise each of the five lists is "%.2f" of its floats,
as the two readings of a coordinate need not round alike.  Each list of
grid lines, each run of labels or chords and the path's points are then
built by one join over one list, into which every column and every fixed
text between the fields is slice-assigned at its own stride, so no
string is built per element.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import Sequence

from .dyck import _bounded, reconstruct_multislalom
from .errors import DrawingTooLarge, DrawingTooSmall

# coordinates print with two decimals, so a smaller unit merges half
# columns with whole ones; at 0.02 the font size still prints as 0.01
_MIN_UNIT = 0.02

# colorsys.hsv_to_rgb(hue, _S, _V) returns, in an order set by its hue
# sector, the value v, p = v * (1 - s) and one more channel: q in the odd
# sectors, t in the even ones.  v and p are fixed, so each sector is one
# "#rrggbb" pattern with a slot for the third channel
_S, _V = 0.70, 0.72
_v, _p = f"{int(_V * 255):02x}", f"{int(_V * (1.0 - _S) * 255):02x}"
_SECTORS = (
    f"#{_v}%s{_p}", f"#%s{_v}{_p}", f"#{_p}{_v}%s", f"#{_p}%s{_v}", f"#%s{_p}{_v}", f"#{_v}{_p}%s"
)


# the fixed text of a chord, around its x1, y1, x2, y2 and stroke fields
_CHORD = ('<line x1="', '" y1="', '" x2="', '" y2="', '" stroke="', '"/>')


def _palette(count: int, seed: int) -> list[str]:
    # well-spaced hues; the seed only rotates the starting point.  The
    # float operations are colorsys.hsv_to_rgb's, so the colors are too
    rng = random.Random(seed)
    hue = rng.random()
    colors = []
    for _ in range(count):
        sector = int(hue * 6.0)
        f = hue * 6.0 - sector
        sector %= 6
        if sector % 2:
            channel = _V * (1.0 - _S * f)
        else:
            channel = _V * (1.0 - _S * (1.0 - f))
        colors.append(_SECTORS[sector] % f"{int(channel * 255):02x}")
        hue = (hue + 0.618033988749895) % 1.0
    return colors


def _formatted(values: list[float]) -> list[str]:
    # "%.2f" of every value, as one string operation over the list
    return ("%.2f " * len(values) % tuple(values)).split()


def _progression(first: int, step: int, count: int, cents: int) -> list[str]:
    # first + k * step with the tail .cents, for k < count, as one string
    # operation over the list
    return (f"%d.{cents:02d} " * count % tuple(range(first, first + count * step, step))).split()


def _rows(texts: Sequence[str], *columns: list[str], sep: str = "\n") -> str:
    # texts[0] + field 0 + texts[1] + ... + field k - 1 + texts[k] for each
    # row of the k columns, the rows joined by sep, as one join.  Every slot
    # of the list starts as the text between two rows; each column and each
    # inner text fills its own stride by slice assignment, so no string is
    # built per row
    stride = 2 * len(columns)
    rows = len(columns[0])
    out = [texts[-1] + sep + texts[0]] * (stride * rows + 1)
    out[0], out[-1] = texts[0], texts[-1]
    for k, column in enumerate(columns):
        out[2 * k + 1 :: stride] = column
    for k in range(1, len(columns)):
        out[2 * k :: stride] = [texts[k]] * rows
    return "".join(out)


def _smallest_width(count: int) -> str:
    # the least width of two decimals whose unit width / (count + 2) is
    # at least _MIN_UNIT; 2 * (count + 2) cents falls short for some counts
    cents = 2 * (count + 2)
    while cents / 100 / (count + 2) < _MIN_UNIT:
        cents += 1
    return f"{cents / 100:.2f}"


def _chord_strokes(entries: tuple[int, ...], palette_seed: int) -> tuple[list[int], list[str]]:
    # the partner and the chord color of each up-step, read off the chord
    # ends of the curves: one palette color per curve.  The components die
    # here, before any element string is built
    components = reconstruct_multislalom(entries)
    partner = [0] * sum(map(abs, entries))
    stroke = [""] * len(partner)
    for comp, color in zip(components, _palette(len(components), palette_seed)):
        ends = iter(comp.chords)
        for up, down in zip(ends, ends):
            partner[up] = down
            stroke[up] = color
    return partner, stroke


def render_dyck(
    g: Sequence[int],
    *,
    unit: float = 40.0,
    width: float | None = None,
    palette_seed: int = 0,
) -> str:
    """Standalone SVG document for the Dyck diagram and multislalom of g."""
    entries = _bounded(g)
    count = sum(map(abs, entries))
    if width is not None:
        unit = width / (count + 2)
    if not unit >= _MIN_UNIT:  # a NaN unit too, which no comparison holds for
        raise DrawingTooSmall(
            f"a unit of {unit:.3g} sets {count} steps in columns under {_MIN_UNIT} apart, "
            f"whose half columns two decimals merge; use --unit {_MIN_UNIT} or --width "
            f"{_smallest_width(count)} or more"
        )
    # the path's heights peak at the end of a run
    top = max(itertools.accumulate(entries, operator.sub, initial=0))
    margin = unit
    w = margin * 2 + count * unit
    h = margin * 2 + (top + 1) * unit
    if not (math.isfinite(w) and math.isfinite(h)):
        raise DrawingTooLarge(f"a drawing of {count} steps at unit {unit} overflows a float")

    # x of each column and half column, y of each level, of each chord
    # level (half a level up) and of each label baseline (0.45 below the
    # middle of the step it names)
    if float(unit).is_integer() and w < 2**40:
        # a whole unit u puts every value at a whole number of cents, so each
        # list is an int progression with one two-digit tail.  h <= w, as
        # top + 1 <= count, so every value is below 2**40.  Columns and half
        # columns are multiples of u / 2, exact floats there, whose digits
        # "%.2f" prints.  Level l sits at u (top + 2 - l), column top + 1 - l,
        # and chord level l at half column top - l, so both are the columns
        # read backwards; the slices fit, as top + 1 <= count.  A label
        # baseline u (top + 2 - level) - 0.05 u is off by at most about
        # 3 w 2**-53 < 4e-4 in floats, so "%.2f" rounds it to that multiple
        # of 0.01: whole part minus ceil(5 u / 100), tail (-5 u) mod 100 cents
        u = int(unit)
        xs = _progression(u, u, count + 1, 0)
        half_xs = _progression(u + u // 2, u, count, 50 * (u & 1))
        ys = xs[top + 1 : 0 : -1]
        chord_ys = half_xs[top:0:-1]
        label_ys = _progression(u * (top + 2) + -5 * u // 100, -u, top, -5 * u % 100)
    else:
        xs = _formatted([margin + k * unit for k in range(count + 1)])
        half_xs = _formatted([margin + (k + 0.5) * unit for k in range(count)])
        ys = _formatted([h - margin - level * unit for level in range(top + 1)])
        chord_ys = _formatted([h - margin - (level + 0.5) * unit for level in range(top)])
        label_ys = _formatted(
            [h - margin - ((2 * level + 1) / 2 - 0.45) * unit for level in range(top)]
        )

    partner, stroke = _chord_strokes(entries, palette_seed)

    # one pass over the label runs: a run of a < 0 climbs from level
    # height, a run of a > 0 falls from it; a label names its step at the
    # lower of the step's two levels, and a chord sits at its up-step's.
    # The elements of a run, like the grid columns below, are joined into
    # one string at once, and no per-element string is built (the peak RSS
    # of render -- -75000,75000, the pin at the bound, is in README's
    # bounds table)
    path_ys: list[str] = []
    texts: list[str] = []
    chords: list[str] = []
    start = height = 0
    for label, a in enumerate(entries, start=1):
        if not a:
            continue
        end = start + abs(a)
        run_xs = half_xs[start:end]
        if a < 0:
            path_ys += ys[height : height - a]
            lows = label_ys[height : height - a]
            run_ys = chord_ys[height : height - a]
            downs = list(map(half_xs.__getitem__, partner[start:end]))
            chords.append(_rows(_CHORD, run_xs, run_ys, downs, run_ys, stroke[start:end]))
        else:
            path_ys += ys[height - a + 1 : height + 1][::-1]
            lows = label_ys[height - a : height][::-1]
        texts.append(_rows(('<text x="', '" y="', f'">{label}</text>'), run_xs, lows))
        start, height = end, height - a
    path_ys.append(ys[0])

    w_text, h_text = f"{w:.2f}", f"{h:.2f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_text}" '
        f'height="{h_text}" viewBox="0 0 {w_text} {h_text}">',
        f'<rect width="{w_text}" height="{h_text}" fill="#ffffff"/>',
        '<g stroke="#dddddd" stroke-width="1">',
    ]
    bottom, ceiling = ys[0], ys[top]
    parts.append(_rows(('<line x1="', f'" y1="{bottom}" x2="', f'" y2="{ceiling}"/>'), xs, xs))
    left, right = xs[0], xs[count]
    parts.append(_rows((f'<line x1="{left}" y1="', f'" x2="{right}" y2="', '"/>'), ys, ys))
    parts.append("</g>")

    points = _rows(("", ",", ""), xs, path_ys, sep=" ")
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#222222" '
        'stroke-width="2"/>'
    )

    parts.append(
        f'<g font-family="monospace" font-size="{unit * 0.35:.2f}" '
        'fill="#222222" text-anchor="middle">'
    )
    parts += texts
    parts.append("</g>")

    parts.append('<g stroke-width="2.5" fill="none">')
    parts += chords
    parts.append("</g>")
    parts.append("</svg>\n")  # the newline ends the document without a copy of it
    return "\n".join(parts)
