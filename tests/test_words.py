"""Word transforms: Burrows-Wheeler, clustering tests, necklace bijection."""

import collections
import itertools
import math
import random
import time
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandbrick import gentle, words
from bandbrick.errors import (
    EmptyWord, InternalInconsistency, MultipleCycles, NonPrimitive, NonPrimitiveNecklace
)

from _reference import perfectly_clustering_word


def alpha(s):
    return tuple(ord(c) - ord("a") + 1 for c in s)


words_st = st.lists(st.integers(1, 4), min_size=1, max_size=9).map(tuple)
primitive_st = words_st.filter(words.is_primitive)


# Quadratic references written from the definitions: every rotation is
# copied, and necklace rows are sorted by comparing their infinite powers.
def ref_rotations(w):
    return [w[k:] + w[:k] for k in range(len(w))]


def ref_is_primitive(w):
    return all(rot != w for rot in ref_rotations(w)[1:])


def ref_least_rotation(w):
    rots = ref_rotations(w)
    return min(range(len(w)), key=rots.__getitem__)


def ref_bw_transform(w):
    return tuple(rot[-1] for rot in sorted(ref_rotations(w)))


def ref_by_factors(w):
    # the circular-factor criterion by definition: every circular factor of
    # every length grouped by its middle, cubic in |w|
    r = len(w)
    doubled = w + w
    for length in range(2, r + 1):
        by_middle = {}
        for p in range(r):
            factor = doubled[p : p + length]
            by_middle.setdefault(factor[1:-1], []).append((factor[0], factor[-1]))
        for ends in by_middle.values():
            for a, b in ends:
                if any(a < a2 and b < b2 for a2, b2 in ends):
                    return False
    return True


def _ref_power_cmp(u, v):
    bound = len(u) + len(v)
    uu = (u * (bound // len(u) + 1))[:bound]
    vv = (v * (bound // len(v) + 1))[:bound]
    return (uu > vv) - (uu < vv)


def ref_phi_inverse(ms):
    rows = [rot for u in ms for rot in ref_rotations(tuple(u))]
    rows.sort(key=cmp_to_key(_ref_power_cmp))
    return tuple(row[-1] for row in rows)


# The two-pass cycle reading phi and bw_inverse used before both read the
# letter order directly: ranks from a (letter, position) sort, then the
# cycles of the inverted ranks.
def ref_standard_permutation(w):
    order = sorted(range(len(w)), key=lambda p: (w[p], p))
    st = [0] * len(w)
    for rank, p in enumerate(order, start=1):
        st[p] = rank
    return tuple(st)


def ref_inverse_cycles(st):
    # cycles of the inverse permutation, 0-based positions, each cycle
    # starting at its smallest element, cycles sorted by first element
    r = len(st)
    tau = [0] * r  # tau[rank-1] = position
    for pos, rank in enumerate(st):
        tau[rank - 1] = pos
    seen = [False] * r
    cycles = []
    for start in range(r):
        if seen[start]:
            continue
        cyc = []
        p = start
        while not seen[p]:
            seen[p] = True
            cyc.append(p)
            p = tau[p]
        cycles.append(cyc)
    return cycles


def ref_cycle_words(w):
    return [tuple(w[p] for p in cyc) for cyc in ref_inverse_cycles(ref_standard_permutation(w))]


def check_cycle_reading(w, canonical):
    # standard_permutation, phi and bw_inverse against the two-pass reading
    assert words.standard_permutation(w) == ref_standard_permutation(w), w
    cycle_words = ref_cycle_words(w)
    assert words.phi(w) == tuple(sorted(map(canonical, cycle_words))), w
    if len(cycle_words) == 1:
        assert words.bw_inverse(w) == canonical(cycle_words[0]), w
    else:
        message = f"inverse standard permutation has {len(cycle_words)} cycles"
        with pytest.raises(MultipleCycles, match=f"^{message}$"):
            words.bw_inverse(w)
    return len(cycle_words)


# The prefix doubling _rotation_order used before it packed its keys:
# every round sorts the distinct rank pairs and re-ranks them densely.
def _reranked_rotation_order(letters, succ, bound):
    n = len(letters)
    alphabet = {a: i for i, a in enumerate(sorted(set(letters)))}
    rank = [alphabet[a] for a in letters]
    distinct = len(alphabet)
    jump = list(succ)
    span = 1
    while span < bound and distinct < n:
        keys = [a * n + b for a, b in zip(rank, map(rank.__getitem__, jump))]
        levels = {key: i for i, key in enumerate(sorted(set(keys)))}
        rank = list(map(levels.__getitem__, keys))
        distinct = len(levels)
        jump = list(map(jump.__getitem__, jump))
        span *= 2
    return sorted(range(n), key=rank.__getitem__)


def necklace_layout(ms):
    # every entry laid end to end, repeats included, with the successor of
    # each position along its own entry
    letters, succ = [], []
    for u in ms:
        start = len(letters)
        letters += u
        succ += range(start + 1, start + len(u))
        succ.append(start)
    return letters, succ


def fibonacci_word(length):
    a, b = (1,), (1, 2)
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


def christoffel_word(p, q):
    # lower Christoffel word of slope q/p: p ones and q twos
    return tuple(2 if (k + 1) * q // (p + q) > k * q // (p + q) else 1 for k in range(p + q))


def all_short_words(longest_binary=8):
    # every word of up to longest_binary letters over {1,2} and up to 8
    # over {1,2,3}
    for alphabet, longest in (((1, 2), longest_binary), ((1, 2, 3), 8)):
        for length in range(1, longest + 1):
            yield from itertools.product(alphabet, repeat=length)


def check_crossing(w):
    # the sorted-rotation witness against the cubic reference; a witness
    # must be a real crossing of two circular factors
    crossing = words._crossing(w)
    assert (crossing is None) == ref_by_factors(w), w
    if crossing is not None:
        a, u, b, a2, b2 = crossing
        assert a < a2 and b < b2, (w, crossing)
        assert len(u) <= len(w) - 2, (w, crossing)
        doubled = w + w
        factors = {doubled[p : p + len(u) + 2] for p in range(len(w))}
        assert (a, *u, b) in factors and (a2, *u, b2) in factors, (w, crossing)
    return crossing is None


# The definition the transform test is held to: primitive, with a weakly
# decreasing transform read off the rotation sort.
def _weakly_decreasing(w):
    return [*w] == sorted(w, reverse=True)


def ref_is_perfectly_clustering(w):
    return words.is_primitive(w) and _weakly_decreasing(words.bw_transform(w))


def check_transform_test(w):
    expected = ref_is_perfectly_clustering(w)
    assert words.is_perfectly_clustering(w) == expected, w
    return expected


def check_bw_inverse(w):
    # bw_inverse is phi's one-cycle case; any other word is refused with
    # phi's cycle count.  The transform test's walk reads one of phi's
    # necklaces, all of w when there is one cycle
    ms = words.phi(w)
    assert words._cycle_through_zero(w) in ms, w
    if len(ms) == 1:
        assert words.bw_inverse(w) == ms[0], w
    else:
        message = f"inverse standard permutation has {len(ms)} cycles"
        with pytest.raises(MultipleCycles, match=f"^{message}$"):
            words.bw_inverse(w)
    return len(ms)


necklace_st = primitive_st.map(words.necklace)
repeated_multiset_st = st.lists(
    st.tuples(necklace_st, st.integers(1, 3)), min_size=1, max_size=5
).map(lambda pairs: tuple(sorted(u for u, k in pairs for _ in range(k))))


class TestBWTransform:
    def test_acab(self):
        assert words.bw_transform(alpha("acab")) == alpha("cbaa")

    def test_acba(self):
        assert words.bw_transform(alpha("acba")) == alpha("baca")

    def test_long_example(self):
        assert words.bw_transform(alpha("acacacbbbc")) == alpha("ccccbbbaaa")

    def test_single_letter(self):
        assert words.bw_transform((7,)) == (7,)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWord):
            words.bw_transform(())

    @given(words_st)
    @settings(max_examples=60, deadline=None)
    def test_permutes_letters(self, w):
        assert sorted(words.bw_transform(w)) == sorted(w)

    @given(primitive_st, st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_rotation_invariant(self, w, k):
        rot = w[k % len(w):] + w[:k % len(w)]
        assert words.bw_transform(rot) == words.bw_transform(w)


class TestPerfectlyClustering:
    def test_golden(self):
        assert words.is_perfectly_clustering(alpha("acacacbbbc"))

    def test_two_letter_descent(self):
        assert words.is_perfectly_clustering((2, 1))

    def test_non_clustering(self):
        # BW(321) = 231, which is not weakly decreasing
        assert not words.is_perfectly_clustering((3, 2, 1))
        assert not words.is_perfectly_clustering(alpha("abab"))

    @given(primitive_st)
    @settings(max_examples=80, deadline=None)
    def test_methods_agree(self, w):
        assert words.is_perfectly_clustering(w) == words.is_perfectly_clustering_by_factors(w)

    @given(primitive_st, st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_powers_never_cluster(self, w, k):
        assert not words.is_perfectly_clustering(w * k)

    def test_factors_method_requires_primitive(self):
        with pytest.raises(NonPrimitive):
            words.is_perfectly_clustering_by_factors((1, 2, 1, 2))


class TestTransformTestByOneCycle:
    """The one-cycle walk decides what the weakly decreasing transform does."""

    def test_exhaustive_short_words(self):
        # powers and rotations off the necklace included
        verdicts = list(map(check_transform_test, all_short_words(12)))
        assert len(verdicts) == 8190 + 9840 and 0 < sum(verdicts) < len(verdicts)

    def test_seeded_primitive_words(self):
        rng = random.Random(4200)
        clustering = 0
        for _ in range(400):
            w = tuple(rng.randint(1, rng.randint(2, 5)) for _ in range(rng.randint(2, 60)))
            if words.is_primitive(w):
                clustering += check_transform_test(w)
            # a perfectly clustering word, rotated off its necklace
            u = perfectly_clustering_word(rng, rng.randint(8, 60))
            k = rng.randrange(len(u))
            assert check_transform_test(u[k:] + u[:k])
        assert clustering < 400

    def test_long_words(self):
        # 10**3 to 10**4 letters; half perfectly clustering by construction,
        # rotated, half random, and a power of a clustering word
        rng = random.Random(4201)
        for length in (1000, 3000, 10000):
            w = tuple(rng.randint(1, 4) for _ in range(length))
            assert words.is_primitive(w) and not check_transform_test(w)
            u = perfectly_clustering_word(rng, length)
            k = rng.randrange(length)
            assert check_transform_test(u[k:] + u[:k])
            assert not check_transform_test(u * 2)
        assert check_transform_test(fibonacci_word(4181))

    def test_construction_refuses_five_letters(self):
        # no one-cycle word of 5 letters uses each of 5, 4, 3, 2, so the
        # construction raises instead of drawing forever
        with pytest.raises(ValueError, match="^a perfectly clustering word here needs 6 letters"):
            perfectly_clustering_word(random.Random(0), 5)

    def test_engines_are_independent(self, monkeypatch):
        # the transform test and the factor test are independent engines:
        # one walks a cycle, the other reads the rotation sort.  The walk's
        # comparison also decides primitivity, so the transform test runs
        # no primitivity pass, and proper powers, of clustering words too,
        # come out False
        def refuse(*args):
            raise AssertionError("called")

        clustering = perfectly_clustering_word(random.Random(4202), 200)
        cases = [clustering, clustering[1:] + clustering[:1], (3, 2, 1), alpha("aabbab")]
        powers = [clustering * 2, (2, 1) * 3, (1,) * 4, (1, 1, 2) * 2, alpha("ba") * 5, (3, 2, 1) * 2]
        with monkeypatch.context() as patch:
            patch.setattr(words, "_rotation_order", refuse)
            patch.setattr(words, "is_primitive", refuse)
            verdicts = [words.is_perfectly_clustering(w) for w in cases]
            assert not any(words.is_perfectly_clustering(w) for w in powers)
        assert verdicts == [True, True, False, False]
        assert not any(map(words.is_primitive, powers))
        with monkeypatch.context() as patch:
            patch.setattr(words, "_cycle_through_zero", refuse)
            assert [words.is_perfectly_clustering_by_factors(w) for w in cases] == verdicts


class TestBWInverseIsPhi:
    """bw_inverse is phi's single cycle, or phi's refusal."""

    def test_exhaustive_short_words(self):
        counts = collections.Counter(map(check_bw_inverse, all_short_words(12)))
        assert counts[1] > 0 and len(counts) > 2

    def test_long_words(self):
        # transforms of long primitive words are one cycle and random words
        # are not; a weakly decreasing word is one cycle exactly when its
        # letters make a perfectly clustering word
        rng = random.Random(4203)
        for length in (1000, 5000):
            w = tuple(rng.randint(1, 4) for _ in range(length))
            assert check_bw_inverse(w) > 1
            assert check_bw_inverse(words.bw_transform(w)) == 1
            check_bw_inverse(sorted(w, reverse=True))
            u = perfectly_clustering_word(rng, length)
            assert check_bw_inverse(sorted(u, reverse=True)) == 1


class TestCrossing:
    """The first ascent of the sorted rotations is the factor test."""

    def test_golden(self):
        # aabbab: the circular factors abaa and bbab cross on the middle ba
        assert words._crossing(alpha("aabbab")) == (1, alpha("ba"), 1, 2, 2)
        assert words._crossing((3, 2, 1)) == (2, (), 1, 3, 2)
        assert words._crossing(alpha("acacacbbbc")) is None
        assert words._crossing((7,)) is None

    def test_exhaustive_short_words(self):
        # every primitive word of length <= 8 on {1,2} and {1,2,3}, and of
        # length <= 6 on {1..4}
        short = itertools.chain(
            all_short_words(),
            (w for length in range(1, 7) for w in itertools.product((1, 2, 3, 4), repeat=length)),
        )
        primitive = [w for w in short if words.is_primitive(w)]
        clustering = sum(map(check_crossing, primitive))
        assert len(primitive) == 15533 and 0 < clustering < len(primitive)

    def test_seeded_words(self):
        # 2 to 60 letters, and as many perfectly clustering words of 8 to 60
        # letters by construction
        rng = random.Random(1800)
        clustering = 0
        for _ in range(150):
            length = rng.randint(2, 60)
            w = tuple(rng.randint(1, 4) for _ in range(length))
            if words.is_primitive(w):
                clustering += check_crossing(w)
            assert check_crossing(perfectly_clustering_word(rng, max(length, 8)))
        assert clustering < 150

    def test_long_clustering_word(self):
        w = perfectly_clustering_word(random.Random(10000), 10000)
        start = time.perf_counter()
        assert words.is_perfectly_clustering_by_factors(w)
        assert time.perf_counter() - start < 1

    def test_unsorted_rows_are_caught(self, monkeypatch):
        # rows that are not in rotation order fail the self-check
        monkeypatch.setattr(
            words, "_rotation_order", lambda cycles: list(range(len(cycles[0])))[::-1]
        )
        with pytest.raises(InternalInconsistency):
            words._crossing((1, 2, 1, 2, 2))


class TestStandardPermutation:
    def test_golden(self):
        assert words.standard_permutation(alpha("baaacaba")) == (6, 1, 2, 3, 8, 4, 7, 5)

    @given(words_st)
    @settings(max_examples=60, deadline=None)
    def test_is_permutation(self, w):
        assert sorted(words.standard_permutation(w)) == list(range(1, len(w) + 1))

    @given(words_st)
    @settings(max_examples=60, deadline=None)
    def test_sorts_word(self, w):
        # reading letters in rank order recovers the sorted word
        st_w = words.standard_permutation(w)
        by_rank = sorted(range(len(w)), key=lambda p: st_w[p])
        assert [w[p] for p in by_rank] == sorted(w)


class TestPhi:
    def test_golden(self):
        ms = words.phi(alpha("baacbcab"))
        assert ms == (alpha("aaacb"), alpha("b"), alpha("bc"))

    def test_golden_inverse(self):
        ms = (alpha("aaacb"), alpha("b"), alpha("bc"))
        assert words.phi_inverse(ms) == alpha("baacbcab")

    def test_sorted_word_repeats_one_necklace(self):
        assert words.phi((4, 4, 4, 4, 3, 3, 2, 2)) == ((2, 4, 3, 4), (2, 4, 3, 4))

    def test_inverse_rejects_non_primitive(self):
        with pytest.raises(NonPrimitiveNecklace):
            words.phi_inverse(((1, 2, 1, 2),))

    def test_inverse_rejects_empty(self):
        with pytest.raises(EmptyWord):
            words.phi_inverse(())

    @given(words_st)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, w):
        assert words.phi_inverse(words.phi(w)) == w

    @given(words_st)
    @settings(max_examples=60, deadline=None)
    def test_preserves_letters(self, w):
        ms = words.phi(w)
        letters = [v for piece in ms for v in piece]
        assert sorted(letters) == sorted(w)


class TestBWInverse:
    def test_golden(self):
        w = alpha("acacacbbbc")
        assert words.bw_inverse(alpha("ccccbbbaaa")) == words.necklace(w)

    def test_non_image_word_rejected(self):
        # cba is not in the image of the transform; the standard
        # permutation splits into two cycles
        with pytest.raises(MultipleCycles, match="^inverse standard permutation has 2 cycles$"):
            words.bw_inverse(alpha("cba"))
        with pytest.raises(MultipleCycles, match="^inverse standard permutation has 2 cycles$"):
            words.bw_inverse(alpha("aa"))

    @given(primitive_st)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, w):
        assert words.bw_inverse(words.bw_transform(w)) == words.necklace(w)


class TestNecklace:
    def test_min_rotation(self):
        assert words.necklace((3, 1, 2)) == (1, 2, 3)

    def test_rotations_order(self):
        assert words.rotations((1, 2, 3)) == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]

    @given(words_st, st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_rotation_invariant(self, w, k):
        rot = w[k % len(w):] + w[:k % len(w)]
        assert words.necklace(rot) == words.necklace(w)

    def test_primitivity(self):
        assert words.is_primitive((1, 2, 2))
        assert not words.is_primitive((1, 2, 1, 2))
        assert words.is_primitive((5,))


class TestAgainstDefinitions:
    """The linear word layer equals the rotation-copy definitions."""

    def test_exhaustive_short_words(self):
        # every word of length <= 8 on {1,2} and {1,2,3}, powers included
        for w in all_short_words():
            assert words.is_primitive(w) == ref_is_primitive(w), w
            assert words.least_rotation(w) == ref_least_rotation(w), w
            assert words.necklace(w) == min(ref_rotations(w)), w
            assert words.bw_transform(w) == ref_bw_transform(w), w
            ms = words.phi(w)
            assert words.phi_inverse(ms) == ref_phi_inverse(ms) == w, w

    def test_cycle_reading_on_short_words(self):
        # every word of length <= 8 on {1,2} and {1,2,3}, both sides of
        # bw_inverse's one-cycle case
        counts = [
            check_cycle_reading(w, lambda u: min(ref_rotations(u))) for w in all_short_words()
        ]
        assert 1 in counts and max(counts) > 1

    def test_cycle_reading_on_long_words(self):
        rng = random.Random(1000)
        for _ in range(10):
            w = tuple(rng.randint(1, 4) for _ in range(1000))
            assert check_cycle_reading(w, words.necklace) > 1
            if words.is_primitive(w):
                assert check_cycle_reading(words.bw_transform(w), words.necklace) == 1

    def test_cycle_reading_on_2000_letter_words(self):
        # phi reads each necklace off its cycle, so long cycles of many
        # letters are held to the least rotation found by its own scan
        rng = random.Random(2000)
        for k in (2, 3, 6):
            for _ in range(3):
                w = tuple(rng.randint(1, k) for _ in range(2000))
                assert check_cycle_reading(w, words.necklace) > 1
                if words.is_primitive(w):
                    assert check_cycle_reading(words.bw_transform(w), words.necklace) == 1
        clustering = perfectly_clustering_word(rng, 2000)
        assert check_cycle_reading(words.bw_transform(clustering), words.necklace) == 1

    def test_least_rotation_of_tuples(self):
        keys = [("b", 1, 0), ("a", 2, 1), ("a", 1, 0), ("a", 2, 1), ("a", 1, 0)]
        assert words.least_rotation(keys) == 2

    def test_least_rotation_rejects_empty(self):
        with pytest.raises(EmptyWord):
            words.least_rotation(())

    def test_repeated_single_letter(self):
        ms = words.phi((1, 1, 1))
        assert ms == ((1,), (1,), (1,))
        assert words.phi_inverse(ms) == (1, 1, 1)

    @given(repeated_multiset_st)
    @settings(max_examples=80, deadline=None)
    def test_phi_inverse_repeated_necklaces(self, ms):
        out = words.phi_inverse(ms)
        assert out == ref_phi_inverse(ms)
        assert words.phi(out) == ms

    @given(repeated_multiset_st)
    @settings(max_examples=40, deadline=None)
    def test_phi_inverse_with_repeated_one(self, ms):
        ms = tuple(sorted(ms + ((1,),) * 3))
        assert words.phi_inverse(ms) == ref_phi_inverse(ms)

    def test_phi_inverse_on_1000_letter_multisets(self):
        # both emission branches at scale: the distinct necklaces of a
        # 1000-letter word, none repeated, and the necklaces of a 500-letter
        # word each taken twice
        rng = random.Random(1001)
        for k in (2, 3, 5):
            distinct = tuple(sorted(set(words.phi(tuple(rng.choices(range(1, k + 1), k=1000))))))
            doubled = tuple(sorted(words.phi(tuple(rng.choices(range(1, k + 1), k=500))) * 2))
            assert sum(map(len, distinct)) > 900 and sum(map(len, doubled)) == 1000
            for ms in (distinct, doubled):
                out = words.phi_inverse(ms)
                assert out == ref_phi_inverse(ms)
                assert words.phi(out) == ms

    def test_long_round_trip(self):
        rng = random.Random(20000)
        w = tuple(rng.randint(1, 4) for _ in range(20000))
        assert words.phi_inverse(words.phi(w)) == w
        assert words.is_primitive(w)
        assert words.bw_inverse(words.bw_transform(w)) == words.necklace(w)


class TestRotationOrder:
    """Byte keys order rotations exactly as the re-ranking rounds did, at
    the bound the sort derives: the two longest cycle lengths summed."""

    @staticmethod
    def check(cycles):
        letters, succ = necklace_layout(cycles)
        bound = sum(sorted(map(len, cycles))[-2:])
        order = words._rotation_order(cycles)
        assert order == _reranked_rotation_order(letters, succ, bound), cycles
        if len(letters) * bound <= 20000:
            # and on short inputs the first bound letters around each cycle
            readings = [
                tuple(itertools.islice(itertools.cycle(u[k:] + u[:k]), bound))
                for u in cycles
                for k in range(len(u))
            ]
            assert order == sorted(range(len(letters)), key=readings.__getitem__), cycles

    def check_word(self, w):
        self.check([w])

    def check_layout(self, ms):
        self.check(list(ms))

    @staticmethod
    def longest_repeat_passes_the_span(w):
        doubled = w + w
        span = words._SEED_SPAN
        return len({doubled[p : p + span] for p in range(len(w))}) < len(w)

    def test_short_words_and_their_layouts(self):
        for w in all_short_words():
            self.check_word(w)
            self.check_layout(words.phi(w))

    def test_one_letter_alphabet(self):
        self.check_word((2, 2, 2))
        self.check_layout(((2,), (2,), (2,)))

    def test_long_words(self):
        rng = random.Random(1500)
        for length, k in ((1000, 2), (3000, 4), (10000, 2), (10000, 6)):
            w = tuple(rng.randint(1, k) for _ in range(length))
            self.check_word(w)
            self.check_layout(words.phi(w))
        self.check_word((1, 2) * 2000 + (2,))

    def test_span_reaches_the_length(self):
        # every rotation shares a prefix of 128 letters with another, so the
        # binary keys pass base 2**128 and are re-ranked before they differ
        for w in (fibonacci_word(4181), christoffel_word(600, 401)):
            doubled = w + w
            assert len({doubled[p : p + 128] for p in range(len(w))}) < len(w)
            self.check_word(w)
            self.check_layout(words.phi(w))

    def test_repeats_longer_than_the_span(self):
        # two rotations tie on the byte keys, so the doubling rounds run
        cases = [
            fibonacci_word(987),
            (1,) * 300 + (2,),
            perfectly_clustering_word(random.Random(1501), 600),
        ]
        for w in cases:
            assert self.longest_repeat_passes_the_span(w), w
            self.check_word(w)
            self.check_layout(words.phi(w))

    def test_two_byte_codes(self):
        # more than 256 distinct letters; a little-endian code would put
        # rank 256 (bytes 00 01) before rank 1 (bytes 01 00)
        rng = random.Random(1502)
        w = tuple(rng.randint(1, 1000) for _ in range(3000))
        assert len(set(w)) > 256
        self.check_word(w)
        self.check_layout(words.phi(w))
        u = tuple(range(300, 0, -1))
        self.check_word(u + u + (1,))
        self.check_layout([u, u[1:], (257, 2), (2, 257), (1,)])

    def test_one_letter_and_short_cycles(self):
        # cycles shorter than the span repeat themselves into their keys;
        # copies of one necklace tie forever, one-letter cycles jump to
        # themselves
        long = fibonacci_word(200)
        self.check_layout([(1,)] * 5 + [(2,)] * 3 + [(1, 2)] * 4 + [(1, 1, 2)])
        self.check_layout([(1,)] * 5 + [(2,)] * 3 + [(1, 2)] * 4 + [long, long])
        rng = random.Random(1503)
        for _ in range(50):
            ms = [tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 40))) for _ in range(8)]
            self.check_layout(ms)

    def test_one_longest_cycle(self):
        # the bound falls below twice the longest cycle: a 200-letter
        # Fibonacci necklace with short ones, and two standard Sturmian
        # words of 144 and 89 letters whose powers share 231 letters
        fib = words.necklace(fibonacci_word(200))
        assert self.longest_repeat_passes_the_span(fib)
        short = [(1,), (2,), (1, 2), (1, 2), (1, 1, 2), (1, 2, 2)]
        sturmian = [fibonacci_word(144), fibonacci_word(89)]
        assert fibonacci_word(233)[:231] == (sturmian[0] * 2)[:231] == (sturmian[1] * 3)[:231]
        # (1, 2, 1)^42 1 2 and (1, 2, 1) read equal for 129 letters, one
        # more than the 128 a bound of the longest length alone would read
        periodic = [(1, 2, 1) * 42 + (1, 2), (1, 2, 1)]
        first, second = (periodic[0] * 2)[:130], (periodic[1] * 44)[:130]
        assert first[:129] == second[:129] and first != second
        for ms in ([fib] + short, short + [fib], sturmian + short[:3], periodic):
            self.check_layout(ms)
            assert words.phi_inverse(ms) == ref_phi_inverse(ms), ms

    def test_no_cycles(self):
        assert words._rotation_order([]) == []
        assert gentle.hom_orthogonal([]) == []


class TestPhiInverseCopies:
    """One row per distinct entry gives the word every copy's rows gave."""

    def test_error_precedence_follows_input_order(self):
        with pytest.raises(NonPrimitiveNecklace):
            words.phi_inverse([(1, 1), ()])
        with pytest.raises(EmptyWord, match="^word must be non-empty$"):
            words.phi_inverse([(), (1, 1)])

    def test_repeated_non_canonical_rotations(self):
        for ms in ([(1, 2), (2, 1)], [(2, 1), (1, 2), (2, 1)], [(1, 3, 2), (2, 1, 3), (1, 3, 2)]):
            assert words.phi_inverse(ms) == ref_phi_inverse(ms)

    def test_repeated_one_letter_necklace(self):
        assert words.phi_inverse(((1,),) * 3) == (1, 1, 1)
        assert words.phi_inverse(((2,),) * 4 + ((1, 2),)) == ref_phi_inverse(
            ((2,),) * 4 + ((1, 2),)
        )

    def test_many_copies_of_one_necklace(self):
        ms = [(1, 2)] * 500 + [(1,)] * 3 + [(1, 1, 2)]
        assert words.phi_inverse(ms) == ref_phi_inverse(ms)


def ref_prime_factors(r):
    # the prime divisors of r, each found by trial division
    divisors = {d for k in range(1, math.isqrt(r) + 1) if r % k == 0 for d in (k, r // k)}
    return sorted(p for p in divisors if p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1)))


def ref_divisor_scan_primitive(w):
    r = len(w)
    return all(w[d:] + w[:d] != w for d in range(1, r) if r % d == 0)


class TestPrimeFactorsOfLengths:
    def test_tuple_against_trial_division(self):
        for r in range(1, 5001):
            got = words._prime_factors(r)
            assert type(got) is tuple
            assert list(got) == ref_prime_factors(r), r

    def test_is_primitive_twice_per_word(self):
        # each length is met twice, the second time from the factor cache
        rng = random.Random(19)
        for length in range(1, 301):
            cases = [tuple(rng.choice((1, 2)) for _ in range(length))]
            for d in (d for d in range(1, length) if length % d == 0):
                base = tuple(rng.choice((1, 2, 3)) for _ in range(d))
                power = base * (length // d)
                # a power, and the power with its last letter changed
                cases += [power, power[:-1] + (power[-1] % 3 + 1,)]
            for w in cases:
                expected = ref_divisor_scan_primitive(w)
                assert words.is_primitive(w) == expected, w
                assert words.is_primitive(w) == expected, w
