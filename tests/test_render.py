"""SVG rendering of the Dyck path model."""

import colorsys
import hashlib
import itertools
import random
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandbrick import dyck, render
from bandbrick.errors import DrawingTooLarge, DrawingTooSmall, InvalidGVector

from _helpers import _long_words_gvectors, _small_valid_gvectors


def chord_elements(svg):
    root = ET.fromstring(svg)
    return [
        el
        for el in root.iter()
        if el.tag.endswith("}line") and el.get("stroke") is not None
    ]


class TestRender:
    def test_well_formed(self):
        svg = render.render_dyck((-3, -1, 3, -2, 3))
        root = ET.fromstring(svg)
        assert root.tag.endswith("}svg")

    def test_chords_and_colors(self):
        svg = render.render_dyck((-3, -1, 3, -2, 3))
        chords = chord_elements(svg)
        assert len(chords) == 6  # one chord per up-step
        assert len({el.get("stroke") for el in chords}) == 2  # one color per component

    def test_minimal_single_chord(self):
        svg = render.render_dyck((-1, 1))
        assert len(chord_elements(svg)) == 1

    def test_labels_match_path(self):
        svg = render.render_dyck((-3, -1, 3, -2, 3))
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter() if el.tag.endswith("}text")]
        assert texts == ["1", "1", "1", "2", "3", "3", "3", "4", "4", "5", "5", "5"]

    def test_deterministic(self):
        g = (-8, 2, 2, 4)
        assert render.render_dyck(g) == render.render_dyck(g)

    def test_palette_seed_changes_colors(self):
        g = (-3, -1, 3, -2, 3)
        assert render.render_dyck(g) != render.render_dyck(g, palette_seed=3)

    def test_width_option(self):
        svg = render.render_dyck((-1, -1, 2), width=480.0)
        root = ET.fromstring(svg)
        assert root.get("width") == "480.00"

    def test_invalid_input(self):
        with pytest.raises(InvalidGVector):
            render.render_dyck((1, -1))

    @pytest.mark.parametrize(
        "g, unit", [((-1, 1), 5e307), ((-1000, 1000), 1e305), ((-1, 1), 1.7e308)]
    )
    def test_overflowing_size_refused(self, g, unit):
        # width is (steps + 2) units, so the step count takes part
        with pytest.raises(DrawingTooLarge):
            render.render_dyck(g, unit=unit)

    @pytest.mark.parametrize("g, unit", [((-1, 1), 4e307), ((-1000, 1000), 8e304)])
    def test_largest_sizes_format_finite(self, g, unit):
        svg = render.render_dyck(g, unit=unit)
        assert "inf" not in svg and "nan" not in svg
        ET.fromstring(svg)

    @pytest.mark.parametrize(
        "g, options",
        [((-1, 1), {"unit": 0.001}), ((-1, 1), {"width": 1e-300}),
         ((-75000, 75000), {"width": 480.0}), ((-1, 1), {"unit": 0.0099}),
         ((-1, 1), {"unit": float("nan")}), ((-1, 1), {"width": float("nan")})],
    )
    def test_too_small_unit_refused(self, g, options):
        # two decimals would print every column at one x; a NaN scale is
        # refused here too, not as an overflow
        with pytest.raises(DrawingTooSmall, match=r"use --unit 0\.02 or --width [0-9.]+ or more$"):
            render.render_dyck(g, **options)

    def test_smallest_unit_admitted(self):
        root = ET.fromstring(render.render_dyck((-1, 1), unit=0.02))
        assert (root.get("width"), root.get("height")) == ("0.08", "0.08")

    def test_floor_keeps_half_columns_apart(self):
        # labels sit on half columns, grid lines on whole ones
        root = ET.fromstring(render.render_dyck((-1, 1), unit=render._MIN_UNIT))
        ns = "{http://www.w3.org/2000/svg}"
        grid = {line.get("x1") for line in root.iter(f"{ns}line") if line.get("x1") == line.get("x2")}
        labels = {text.get("x") for text in root.iter(f"{ns}text")}
        assert len(grid) == 3 and len(labels) == 2 and not grid & labels
        assert [g.get("font-size") for g in root.iter(f"{ns}g") if g.get("font-size")] == ["0.01"]

    def test_named_width_is_the_smallest(self):
        # the width the message names is admitted and 0.01 less is not
        for count in [*range(2, 400), 75000, 150_000]:
            named = render._smallest_width(count)
            assert float(named) / (count + 2) >= render._MIN_UNIT, count
            one_less = float(f"{float(named) - 0.01:.2f}")
            assert one_less / (count + 2) < render._MIN_UNIT, count
        with pytest.raises(DrawingTooSmall, match=r"--width 3000\.04 or more$"):
            render.render_dyck((-75000, 75000), width=480.0)

    def test_chord_count_is_up_steps(self):
        for g in [(-1, 1), (-1, -1, 2), (-3, -1, 3, -2, 3), (-8, 2, 2, 4)]:
            ups = sum(-a for a in g if a < 0)
            assert len(chord_elements(render.render_dyck(g))) == ups


def _long_gvector(seed: int = 1000) -> tuple[int, ...]:
    # letter counts of a seeded 1000-letter word over {1..5}: (-s, a_2, ..., a_5)
    rng = random.Random(seed)
    w = [rng.randint(1, 5) for _ in range(1000)]
    counts = [w.count(letter) for letter in range(2, 6)]
    return (-sum(counts),) + tuple(counts)


def _fmt(x):
    return f"{x:.2f}"


def _reference_palette(count, seed):
    # the palette as it was before it inlined colorsys: one hsv_to_rgb
    # call per component
    rng = random.Random(seed)
    hue = rng.random()
    colors = []
    for _ in range(count):
        r, g, b = colorsys.hsv_to_rgb(hue, 0.70, 0.72)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
        hue = (hue + 0.618033988749895) % 1.0
    return colors


def _reference_diagram(g):
    # one ('u'|'d', label) pair per step, the path heights before each step
    # plus the final one, and the nested matching in up-step order
    steps = [("u" if a < 0 else "d", label) for label, a in enumerate(g, 1) for _ in range(abs(a))]
    heights = list(itertools.accumulate((1 if d == "u" else -1 for d, _ in steps), initial=0))
    opened, matching = [], []
    for pos, (direction, _) in enumerate(steps):
        if direction == "u":
            opened.append(pos)
        else:
            matching.append((opened.pop(), pos))
    return steps, heights, sorted(matching)


def _reference_render_dyck(g, *, unit=40.0, width=None, palette_seed=0):
    # the renderer as it was before it formatted coordinates inline: one
    # _fmt call per coordinate, and w, h and the grid ends looked up anew
    components = dyck.reconstruct_multislalom(g)  # validates and bounds g
    steps, heights, matching = _reference_diagram(g)
    count = len(steps)
    top = max(heights)
    if width is not None:
        unit = width / (count + 2)
    margin = unit
    w = margin * 2 + count * unit
    h = margin * 2 + (top + 1) * unit
    xs = [_fmt(margin + k * unit) for k in range(count + 1)]
    half_xs = [_fmt(margin + (k + 0.5) * unit) for k in range(count)]
    ys = [_fmt(h - margin - level * unit) for level in range(top + 1)]
    chord_ys = [_fmt(h - margin - (level + 0.5) * unit) for level in range(top)]
    label_ys = [_fmt(h - margin - ((2 * level + 1) / 2 - 0.45) * unit) for level in range(top)]
    chord_color = {}
    for comp, color in zip(components, _reference_palette(len(components), palette_seed)):
        for entry, exit_ in zip(comp.chords[::2], comp.chords[1::2]):
            chord_color[min(entry, exit_)] = color  # keyed by the chord's up-step
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff"/>',
        '<g stroke="#dddddd" stroke-width="1">',
    ]
    parts += [f'<line x1="{x}" y1="{ys[0]}" x2="{x}" y2="{ys[top]}"/>' for x in xs]
    parts += [f'<line x1="{xs[0]}" y1="{y}" x2="{xs[count]}" y2="{y}"/>' for y in ys]
    parts.append("</g>")
    points = " ".join(f"{x},{ys[hh]}" for x, hh in zip(xs, heights))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#222222" '
        'stroke-width="2"/>'
    )
    parts.append(
        f'<g font-family="monospace" font-size="{_fmt(unit * 0.35)}" '
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
        for up, down in matching
    ]
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _assert_same_svg(got, want, context):
    # a mismatch reports the two lengths and the first line that differs,
    # not a diff of two documents of up to about 100 kB, which pytest's
    # assertion rewriting takes minutes to build
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    line = next(
        (k for k, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
        min(len(got_lines), len(want_lines)),
    )
    pytest.fail(
        f"{context}: {len(got)} bytes against {len(want)}; first difference at line "
        f"{line + 1}: {got_lines[line:line + 1]!r} against {want_lines[line:line + 1]!r}",
        pytrace=False,
    )


# whole units take the int path: label baselines end in .00 at 40.0 and
# 20, .95 at 1 and 41.0, .85 at 3.0 and .65 at 7; half columns end in .50
# at odd units.  A fractional unit and most widths take the float path
RENDER_OPTIONS = (
    {},
    {"width": 480.0},
    {"width": 777.3},
    {"unit": 7},
    {"unit": 7.3, "palette_seed": 3},
    {"unit": 1},
    {"unit": 3.0},
    {"unit": 20},
    {"unit": 41.0},
)


class TestAgainstReference:
    """Inline formatting writes the bytes the one-call-per-coordinate
    renderer wrote."""

    @pytest.mark.parametrize("options", RENDER_OPTIONS, ids=repr)
    def test_every_small_gvector(self, options):
        checked = 0
        for g in _small_valid_gvectors():
            _assert_same_svg(render.render_dyck(g, **options), _reference_render_dyck(g, **options), g)
            checked += 1
        assert checked == 498

    @pytest.mark.parametrize("options", RENDER_OPTIONS, ids=repr)
    def test_long_words_gvectors(self, options):
        for g in _long_words_gvectors():
            _assert_same_svg(render.render_dyck(g, **options), _reference_render_dyck(g, **options), g)


@st.composite
def _valid_gvectors(draw):
    # each proper prefix sum kept <= 0 by capping its entry; the last entry
    # closes the sum
    entries, total = [], 0
    for a in draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5)):
        a = min(a, -total)
        entries.append(a)
        total += a
    g = (*entries, -total)
    if not any(g):
        g = (-1, *g[1:-1], 1)
    return g


class TestIntPath:
    """A whole unit formats each coordinate list as an int progression."""

    @pytest.mark.parametrize("g", [(-1, 1), _long_words_gvectors()[3]], ids=["single", "long"])
    @pytest.mark.parametrize("kind", [int, float])
    def test_switch_at_2_40(self, g, kind):
        # three progressions (columns, half columns, label baselines; the
        # levels are the columns read backwards) at the largest whole unit
        # whose width, steps + 2 units, is below 2**40, and none at the next
        under = (2**40 - 1) // (sum(map(abs, g)) + 2)
        for u, lists in ((under, 3), (under + 1, 0)):
            unit = kind(u)
            with mock.patch.object(render, "_progression", wraps=render._progression) as spy:
                svg = render.render_dyck(g, unit=unit)
            _assert_same_svg(svg, _reference_render_dyck(g, unit=unit), u)
            assert spy.call_count == lists, u

    @settings(max_examples=300, deadline=None)
    @given(
        _valid_gvectors(),
        st.one_of(
            st.integers(1, 2**42),
            st.integers(1, 2**42).map(float),
            st.floats(render._MIN_UNIT, 2.0**42),
        ),
    )
    def test_against_reference(self, g, unit):
        svg = render.render_dyck(g, unit=unit)
        _assert_same_svg(svg, _reference_render_dyck(g, unit=unit), (g, unit))


class TestPalette:
    @pytest.mark.parametrize("seed", range(10))
    def test_against_colorsys(self, seed):
        assert render._palette(5000, seed) == _reference_palette(5000, seed)

    def test_seeds_cover_every_hue_sector(self):
        # hsv_to_rgb orders the channels by the sector int(6 * hue) % 6
        sectors = set()
        for seed in range(10):
            hue = random.Random(seed).random()
            for _ in range(5000):
                sectors.add(int(hue * 6.0) % 6)
                hue = (hue + 0.618033988749895) % 1.0
        assert sectors == set(range(6))


class TestGoldenBytes:
    """SHA-256 of the SVG document, pinned before the renderer was rewritten."""

    @pytest.mark.parametrize(
        "g, options, digest",
        [
            ((-3, -1, 3, -2, 3), {},
             "9313ee2589f99338f72aea43db26b717267c0ce8787964d6d6a0f26d05858b81"),
            ((-8, 2, 2, 4), {"width": 480.0},
             "81415d0285492b8fe578f1723dcdc7d422b327c0f70a9bfe88da8f48fa6c0bf6"),
            ((-8, 2, 2, 4), {"unit": 7, "palette_seed": 3},
             "205776d49f873e64c1a0ec711fea7d378681e90ca1c70516c617ec75bc8a4bad"),
            (_long_gvector(), {},
             "ae08305e49dda5647b569b0f5960c069519573afbf9555ed13670158ecf52484"),
        ],
        ids=["two-components", "width", "unit-palette", "long-word"],
    )
    def test_sha256(self, g, options, digest):
        svg = render.render_dyck(g, **options)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest
