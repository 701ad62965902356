"""SVG rendering of the Dyck path model."""

import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

from bandbrick import dyck, render
from bandbrick.errors import InvalidGVector


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

    def test_chord_count_is_up_steps(self):
        for g in [(-1, 1), (-1, -1, 2), (-3, -1, 3, -2, 3), (-8, 2, 2, 4)]:
            ups = dyck.to_dyck_diagram(g).word.count("u")
            assert len(chord_elements(render.render_dyck(g))) == ups


def _long_gvector(seed: int = 1000) -> tuple[int, ...]:
    # letter counts of a seeded 1000-letter word over {1..5}: (-s, a_2, ..., a_5)
    rng = random.Random(seed)
    w = [rng.randint(1, 5) for _ in range(1000)]
    counts = [w.count(letter) for letter in range(2, 6)]
    return (-sum(counts),) + tuple(counts)


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
