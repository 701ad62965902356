"""Dyck-path model: validation, matching, components, circular words."""

import contextlib
import io
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandbrick import dyck, gentle, words
from bandbrick.cli import main
from bandbrick.errors import (
    BadDimension, GVectorTooLarge, InternalInconsistency, InvalidComponent, InvalidGVector
)

from _helpers import _long_words_gvectors, _small_valid_gvectors


def _safe_valid(g):
    try:
        return dyck.validate_gvector(g)
    except BadDimension:
        return False


valid_gvectors = (
    st.lists(st.integers(-5, 5), min_size=1, max_size=4)
    .map(lambda h: tuple(h) + (-sum(h),))
    .filter(_safe_valid)
)


class TestValidate:
    def test_examples(self):
        assert dyck.validate_gvector((-1, 1))
        assert dyck.validate_gvector((-3, -1, 3, -2, 3))
        assert not dyck.validate_gvector((1, -1))
        assert not dyck.validate_gvector((-1, 2))
        assert not dyck.validate_gvector((0, 0))

    def test_too_short(self):
        with pytest.raises(BadDimension):
            dyck.validate_gvector((0,))

    def test_invalid_rejected_downstream(self):
        with pytest.raises(InvalidGVector):
            dyck.reconstruct_multislalom((1, -1))


def _gvec_dyck(g):
    # the labeled Dyck path as `gvec dyck --json` prints it
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gvec", "dyck", "--json", "--", ",".join(map(str, g))])
    assert code == 0
    data = json.loads(out.getvalue())
    return data["steps"], data["labels"]


class TestDiagram:
    def test_path_golden(self):
        steps, labels = _gvec_dyck((-3, -1, 3, -2, 3))
        assert steps == "uuuuddduuddd"
        assert labels == [1, 1, 1, 2, 3, 3, 3, 4, 4, 5, 5, 5]

    def test_minimal(self):
        assert _gvec_dyck((-1, 1)) == ("ud", [1, 2])

    @given(valid_gvectors)
    @settings(max_examples=60, deadline=None)
    def test_balanced_and_nonnegative(self, g):
        steps, _ = _gvec_dyck(g)
        h = 0
        for c in steps:
            h += 1 if c == "u" else -1
            assert h >= 0
        assert h == 0

    @given(valid_gvectors)
    @settings(max_examples=60, deadline=None)
    def test_label_counts(self, g):
        _, labels = _gvec_dyck(g)
        assert Counter(labels) == {i + 1: abs(a) for i, a in enumerate(g) if a}


class TestCircularWords:
    def test_two_components(self):
        assert dyck.circular_words((-3, -1, 3, -2, 3)) == (
            (1, 3, 1, 5, 4, 5, 4, 5),
            (1, 3, 2, 3),
        )

    def test_repeated_component(self):
        assert dyck.circular_words((-8, 2, 2, 4)) == (
            (1, 2, 1, 4, 1, 3, 1, 4),
            (1, 2, 1, 4, 1, 3, 1, 4),
        )

    def test_minimal(self):
        assert dyck.circular_words((-1, 1)) == ((1, 2),)

    def test_single_component(self):
        assert dyck.circular_words((-1, -1, 2)) == ((1, 3, 2, 3),)

    @given(valid_gvectors)
    @settings(max_examples=60, deadline=None)
    def test_letter_counts_match_entries(self, g):
        ms = dyck.circular_words(g)
        letters = Counter(v for w in ms for v in w)
        assert letters == {i + 1: abs(a) for i, a in enumerate(g) if a}


class TestEraseOnes:
    def test_golden(self):
        erased = dyck.erase_ones(dyck.circular_words((-8, 2, 2, 4)))
        assert erased == words.phi((4, 4, 4, 4, 3, 3, 2, 2))

    def test_all_ones_vanish(self):
        assert dyck.erase_ones(((1, 1, 1),)) == ((),)

    def test_recanonicalizes(self):
        assert dyck.erase_ones(((2, 1, 3),)) == ((2, 3),)

    def test_list_entries(self):
        assert dyck.erase_ones([[3, 1, 2], (1, 1), [1, 2, 3, 1]]) == ((), (2, 3), (2, 3))

    def test_repeated_entries(self):
        # equal words, and distinct words with one erased necklace
        ms = ((1, 2, 1, 4, 1, 3, 1, 4),) * 3 + ((1, 3, 4, 2),) + ((1, 1),) * 2
        assert dyck.erase_ones(ms) == ((), (), (2, 3, 4), (2, 4, 3, 4), (2, 4, 3, 4), (2, 4, 3, 4))
        assert dyck.erase_ones(list(ms)) == dyck.erase_ones(ms)


class TestComponents:
    def test_decompose_golden(self):
        assert dyck.component_gvectors((-3, -1, 3, -2, 3)) == (
            (-2, 0, 1, -2, 3),
            (-1, -1, 2, 0, 0),
        )

    def test_single(self):
        assert dyck.component_gvectors((-1, -1, 2)) == ((-1, -1, 2),)

    @given(valid_gvectors)
    @settings(max_examples=60, deadline=None)
    def test_components_sum_to_g(self, g):
        comps = dyck.component_gvectors(g)
        assert comps
        assert tuple(sum(col) for col in zip(*comps)) == g

    @given(valid_gvectors)
    @settings(max_examples=40, deadline=None)
    def test_each_component_is_valid(self, g):
        for c in dyck.component_gvectors(g):
            assert dyck.validate_gvector(c)

    @given(valid_gvectors)
    @settings(max_examples=40, deadline=None)
    def test_component_count_matches_words(self, g):
        assert len(dyck.reconstruct_multislalom(g)) == len(dyck.circular_words(g))


# The tuple-keyed trace the int-coded layer replaced, kept as the reference:
# steps keyed by position, a partner dict and a visited set of (copy, step).


def _steps(g):
    # one ('u'|'d', label) pair per step: |a_i| steps labeled i, up when
    # a_i < 0, else down
    return [("u" if a < 0 else "d", label) for label, a in enumerate(g, 1) for _ in range(abs(a))]


def _nested_matching(steps):
    # stack matching: each down-step closes the most recent open up-step
    stack = []
    pairs = []
    for pos, (direction, _) in enumerate(steps):
        if direction == "u":
            stack.append(pos)
        else:
            pairs.append((stack.pop(), pos))
    if stack:
        raise InternalInconsistency(f"{len(stack)} up-steps left unmatched")
    return sorted(pairs)


def _cross_copy_map(labels):
    # the k-th step of a label block on one copy is glued to the
    # (block size + 1 - k)-th step of the same block on the other copy
    ident = [0] * len(labels)
    start = 0
    while start < len(labels):
        end = start
        while end + 1 < len(labels) and labels[end + 1] == labels[start]:
            end += 1
        for pos in range(start, end + 1):
            ident[pos] = start + end - pos
        start = end + 1
    return ident


def _trace_components(steps, matching, signs):
    # each component with the facts the parent Component also stored: its
    # signed label counts and its (copy, from_label, to_label) segments
    partner = {}
    for up, down in matching:
        partner[up] = down
        partner[down] = up
    labels = [label for _, label in steps]
    ident = _cross_copy_map(labels)
    visited = set()
    traces = []
    for start in sorted(partner):
        if steps[start][0] != "u" or (1, start) in visited:
            continue
        word, segments, chords = [], [], []
        copy, pos = 1, start
        while True:
            visited.add((copy, pos))
            exit_pos = partner[pos]
            if copy == 1:
                chords += (pos, exit_pos)
            segments.append((copy, labels[pos], labels[exit_pos]))
            word.append(labels[exit_pos])
            copy, pos = 3 - copy, ident[exit_pos]
            if (copy, pos) == (1, start):
                break
        gvec = [0] * len(signs)
        for label in word:
            gvec[label - 1] += signs[label - 1]
        component = dyck.Component(word=tuple(word), chords=tuple(chords))
        traces.append((component, tuple(gvec), tuple(segments)))
    return traces


def _reference_traces(g):
    steps = _steps(g)
    signs = [-1 if a < 0 else 1 for a in g]
    return _trace_components(steps, _nested_matching(steps), signs)


def _reference_band_walk(segments):
    # the segment loop slalom_to_band_walk ran over a stored segments tuple
    trav = []
    for copy, start, end in segments:
        if copy == 1:
            if start >= end:
                raise InvalidComponent(f"copy-1 segment must ascend, got {start} -> {end}")
            trav.extend(k << 2 | 3 for k in range(start, end))
        else:
            if start <= end:
                raise InvalidComponent(f"copy-2 segment must descend, got {start} -> {end}")
            trav.extend(k << 2 for k in range(start - 1, end - 1, -1))
    walk = tuple(reversed(trav))
    if not gentle.validate_band_walk(walk):
        raise InvalidComponent("segments do not close into a band walk")
    return walk


def _long_gvectors(seed, count, min_steps=2000):
    # prefix sums P_1..P_{n-1} <= 0 with P_1 <= -1000, so the path reaches
    # depth 1000 and back: at least 2000 steps; equal sums give zero entries
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 8)
        sums = [-rng.randint(1000, 2000)]
        for _ in range(n - 2):
            sums.append(sums[-1] if rng.random() < 0.15 else -rng.randint(0, 2000))
        sums.append(0)
        g = tuple(b - a for a, b in zip([0] + sums, sums))
        if sum(map(abs, g)) >= min_steps:
            out.append(g)
    return out


class TestAgainstTupleTrace:
    # the components against the reference trace, and the int diagram's
    # labels, partners and glued steps against the stack matching and the
    # block map

    @staticmethod
    def _check(g):
        expected = tuple(component for component, _, _ in _reference_traces(g))
        assert dyck.reconstruct_multislalom(g) == expected, g
        steps = _steps(g)
        labels, partner, glued = dyck._int_diagram(g)
        assert labels == [label for _, label in steps], g
        matching = [(up, down) for up, down in enumerate(partner) if up < down]
        assert matching == _nested_matching(steps), g
        assert all(partner[partner[pos]] == pos for pos in range(len(partner))), g
        assert glued == _cross_copy_map(labels), g

    def test_every_small_gvector(self):
        assert sum(1 for g in _small_valid_gvectors() if self._check(g) is None) == 498

    def test_seeded_long_gvectors(self):
        gs = _long_gvectors(seed=12, count=20)
        assert all(sum(map(abs, g)) >= 2000 for g in gs)
        for g in gs:
            self._check(g)

    def test_shapes(self):
        # 500 one-round curves; empty label blocks at both ends and inside;
        # two climbing blocks closed by three falling ones
        for g in ((-500, 500), (0, -300, 0, 300, 0), (-3, -3, 2, 2, 2)):
            self._check(g)
        assert len(dyck.reconstruct_multislalom((-500, 500))) == 500


class TestChordEnds:
    # Component.chords holds the copy-1 entry and exit of each round, which
    # render reads as the chord partners: together the curves cover every
    # step once, each (entry, exit) pair is an (up, down) pair of the
    # matching, and one curve means single_component finds it

    @staticmethod
    def _check(g):
        components = dyck.reconstruct_multislalom(g)
        steps = _steps(g)
        ends = [pos for component in components for pos in component.chords]
        assert sorted(ends) == list(range(len(steps))), g
        matching = set(_nested_matching(steps))
        for component in components:
            pairs = set(zip(component.chords[::2], component.chords[1::2]))
            assert pairs <= matching, g
        assert (dyck.single_component(g) is not None) == (len(components) == 1), g

    def test_every_small_gvector(self):
        assert sum(1 for g in _small_valid_gvectors() if self._check(g) is None) == 498

    def test_seeded_long_gvectors(self):
        for g in _long_gvectors(seed=12, count=20):
            self._check(g)


class TestReadOffTheWord:
    # Component equality covers the word and the chords only, so the facts
    # read off the word are held to the reference trace directly

    @staticmethod
    def _check(g):
        traces = _reference_traces(g)
        assert dyck.component_gvectors(g) == tuple(gvec for _, gvec, _ in traces), g
        necklaces = sorted(words.necklace(component.word) for component, _, _ in traces)
        assert dyck.circular_words(g) == tuple(necklaces), g
        for component, _, segments in traces:
            walk = gentle.slalom_to_band_walk(component)
            assert walk == _reference_band_walk(segments), g

    def test_every_small_gvector(self):
        assert sum(1 for g in _small_valid_gvectors() if self._check(g) is None) == 498

    def test_seeded_long_gvectors(self):
        for g in _long_gvectors(seed=12, count=20):
            self._check(g)

    def test_invalid_components_keep_their_errors(self):
        for word, message in (
            ((1, 2), "copy-1 segment must ascend, got 2 -> 1"),
            ((2, 3, 1), "copy-2 segment must descend, got 2 -> 3"),
            ((), "segments do not close into a band walk"),
        ):
            with pytest.raises(InvalidComponent, match=message):
                gentle.slalom_to_band_walk(dyck.Component(word=word, chords=()))


def _reference_erase_ones(ms):
    # every word erased and canonicalized on its own
    erased = []
    for word in ms:
        kept = tuple(letter for letter in word if letter != 1)
        erased.append(words.necklace(kept) if kept else ())
    return tuple(sorted(erased))


class TestCanonicalizedOnce:
    # circular_words and erase_ones canonicalize each distinct word once;
    # the reference takes one necklace per component of the tuple trace

    @staticmethod
    def _check(g):
        traces = _reference_traces(g)
        expected = tuple(sorted(words.necklace(component.word) for component, _, _ in traces))
        got = dyck.circular_words(g)
        assert got == expected, g
        assert dyck.erase_ones(got) == _reference_erase_ones(expected), g
        return len(traces) > len(set(expected))  # some word repeats

    def test_every_small_gvector(self):
        repeats = [self._check(g) for g in _small_valid_gvectors()]
        assert len(repeats) == 498 and any(repeats)

    def test_long_words_gvectors(self):
        repeats = [self._check(g) for g in _long_words_gvectors()]
        assert len(repeats) == 20 and any(repeats)

    def test_fibonacci_gvector(self):
        self._check((-6765, 2584, 4181))


class TestComponentContract:
    # a Component is a named tuple: keyword-constructible, hashable,
    # immutable, and printed with its field names

    def test_keywords_hash_and_repr(self):
        component = dyck.Component(word=(1, 3, 2, 3), chords=(0, 3))
        assert component.word == (1, 3, 2, 3) and component.chords == (0, 3)
        assert hash(component) == hash(dyck.Component((1, 3, 2, 3), (0, 3)))
        assert len({component, dyck.Component(word=(1, 3, 2, 3), chords=(0, 3))}) == 1
        assert repr(component) == "Component(word=(1, 3, 2, 3), chords=(0, 3))"

    def test_traced_curves_are_components(self):
        # the traces build their curves with tuple.__new__, which must still
        # give exactly a Component
        g = (-3, -1, 3, -2, 3)
        for component in (*dyck.reconstruct_multislalom(g), dyck.single_component((-1, -1, 2))):
            assert type(component) is dyck.Component
            assert component._fields == ("word", "chords")
            assert component._asdict() == {"word": component.word, "chords": component.chords}

    def test_immutable(self):
        component = dyck.reconstruct_multislalom((-1, -1, 2))[0]
        with pytest.raises(AttributeError):
            component.word = ()
        with pytest.raises(AttributeError):
            component.chords = ()


class TestSingleComponent:
    # single_component traces only the curve through step 0

    @staticmethod
    def _check(g):
        components = dyck.reconstruct_multislalom(g)
        got = dyck.single_component(g)
        if len(components) == 1:
            assert got == components[0], g
        else:
            assert got is None, g
        return len(components) == 1

    def test_every_small_gvector(self):
        single = split = 0
        for g in _small_valid_gvectors():
            if self._check(g):
                single += 1
            else:
                split += 1
        assert single + split == 498
        assert single and split

    def test_seeded_long_gvectors(self):
        for g in _long_gvectors(seed=13, count=20):
            self._check(g)

    def test_invalid_rejected(self):
        for g in [(1, -1), (-1, 2), (0, 0), (-1, 1, 1, -1)]:
            with pytest.raises(InvalidGVector):
                dyck.single_component(g)
        with pytest.raises(BadDimension):
            dyck.single_component((0,))


class TestThreeVertexCurves:
    # the multislalom of a valid (-a-b, a, b) has gcd(a, b) curves, so a
    # brick g-vector at n = 3 has coprime (a, b)

    def test_gcd_many_curves(self):
        grid = [(-a - b, a, b) for a in range(-40, 41) for b in range(41)]
        valid = [g for g in grid if dyck.validate_gvector(g)]
        assert len(valid) == 2500
        for g in valid:
            assert len(dyck.reconstruct_multislalom(g)) == math.gcd(g[1], g[2]), g


class TestStepBound:
    def test_bound_admits_the_largest_suite_input(self):
        assert sum(map(abs, (-6765, 2584, 4181))) <= dyck.MAX_STEPS

    def test_at_the_bound(self):
        half = dyck.MAX_STEPS // 2
        steps, labels = _gvec_dyck((-half, half))
        assert steps == "u" * half + "d" * half
        assert labels == [1] * half + [2] * half

    @pytest.mark.parametrize(
        # _bounded is the check `gvec dyck` runs before printing any step
        "build", [dyck._bounded, dyck.reconstruct_multislalom, dyck.circular_words,
                  dyck.component_gvectors, dyck.single_component],
    )
    def test_past_the_bound(self, build):
        half = dyck.MAX_STEPS // 2 + 1
        with pytest.raises(GVectorTooLarge):
            build((-half, half))

    def test_validation_stays_unbounded(self):
        assert dyck.validate_gvector((-10**12, 10**12))
        with pytest.raises(InvalidGVector):
            dyck.reconstruct_multislalom((10**12, -10**12))
