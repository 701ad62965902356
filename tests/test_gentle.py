"""Band walks and band modules: validity, matrices, Hom spaces, g-vectors."""

import collections
import itertools
import math
import operator
import random
import time
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandbrick import dyck, forms, gentle, words
from bandbrick.forms import euler_form
from bandbrick.errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidComponent,
    InvalidWalk,
    LetterOutOfRange,
    NonPrimitive,
    QuiverTooLarge,
    WalkTooLarge,
    ZeroLambda,
)

from _helpers import _sigma
from _reference import _scan_graph_maps, _scan_hom_dim, dense_matrices, perfectly_clustering_word


primitive_words = (
    st.lists(st.integers(2, 5), min_size=1, max_size=7)
    .map(tuple)
    .filter(words.is_primitive)
)


# The references that decode a step code, index << 2 | (kind b) << 1 |
# (inverse), into its kind, index and exponent.
def _step(c):
    return "ab"[c >> 1 & 1], c >> 2, -1 if c & 1 else 1


# traversal endpoints: the arrow runs index+1 -> index, its inverse the
# other way
def step_from(c):
    _, index, exp = _step(c)
    return index + 1 if exp > 0 else index


def step_to(c):
    _, index, exp = _step(c)
    return index if exp > 0 else index + 1


def _walk_key(walk):
    # the canonical order of steps: a before b, then the index, then the
    # arrow before its inverse
    return [(kind, index, 0 if exp > 0 else 1) for kind, index, exp in map(_step, walk)]


def _inverse(walk):
    return tuple(c ^ 1 for c in reversed(walk))


def _has_inverse_a_step(walk):
    return any(kind == "a" and exp < 0 for kind, _, exp in map(_step, walk))


def _quiver(*walks):
    # the smallest quiver holding the walks
    return 1 + max(index for walk in walks for _, index, _ in map(_step, walk))


class TestWalks:
    def test_letter_cycle_display(self):
        assert gentle.walk_to_str(gentle.letter_cycle(2)) == "a1 b1-"
        assert gentle.walk_to_str(gentle.letter_cycle(3)) == "a1 a2 b2- b1-"

    def test_letter_cycle_range(self):
        with pytest.raises(LetterOutOfRange):
            gentle.letter_cycle(1)

    def test_psi_golden(self):
        assert (
            gentle.walk_to_str(gentle.psi((2, 3, 2, 2, 3)))
            == "a1 b1- a1 a2 b2- b1- a1 b1- a1 b1- a1 a2 b2- b1-"
        )

    def test_psi_rejects_powers(self):
        with pytest.raises(NonPrimitive):
            gentle.psi((2, 3, 2, 3))

    def test_psi_rejects_small_n(self):
        with pytest.raises(LetterOutOfRange):
            gentle.psi((2, 3), n=2)

    def test_psi_step_bound(self):
        # sum 2 (w_i - 1) steps: (75000, 2) sits at the bound, (75001, 2) past it
        assert 2 * (75000 - 1) + 2 == gentle.MAX_WALK_STEPS
        assert len(gentle.psi((75000, 2))) == gentle.MAX_WALK_STEPS
        with pytest.raises(WalkTooLarge):
            gentle.psi((75001, 2))

    def test_psi_bound_admits_long_words(self):
        # 10^4-letter words over 2..5 stay inside the bound
        word = (2,) + (5,) * 9999
        assert len(gentle.psi(word)) == 2 * (sum(word) - len(word))

    def test_psi_refuses_before_building(self):
        # one huge letter (2 * 10^12 steps would not fit in memory) or many
        # letters: refused before any step is built
        for word in [(10**12, 2), (5,) * 20000 + (2,)]:
            with pytest.raises(WalkTooLarge):
                gentle.psi(word)

    def test_round_trip_serialization(self):
        text = "a1 b1- a1 a2 b2- b1-"
        assert gentle.walk_to_str(gentle.walk_from_str(text)) == text

    def test_index_digits_bounded_before_parsing(self):
        # leading zeros are read as before; a longer index than any module
        # may have is refused before int() sees it
        assert gentle.walk_from_str("a" + "0" * 5000 + "1 b01-") == gentle.walk_from_str("a1 b1-")
        top = gentle.MAX_VERTICES
        assert gentle.walk_from_str(f"a{top}") == (top << 2,)
        for index in (f"1{top}", "1" * 5000):
            with pytest.raises(QuiverTooLarge):
                gentle.walk_from_str(f"a1 b{index}-")

    def test_index_digits_are_ascii(self):
        # Arabic-Indic one: int() would read it as 1
        with pytest.raises(InvalidWalk):
            gentle.walk_from_str("a\u0661 b\u0661-")

    def test_validate_accepts_psi(self):
        assert gentle.validate_band_walk(gentle.psi((2, 3, 2, 2, 3)))

    def test_validate_rejects_backtrack(self):
        assert not gentle.validate_band_walk(gentle.walk_from_str("a1 a1-"))

    def test_validate_rejects_power(self):
        assert not gentle.validate_band_walk(gentle.walk_from_str("a1 b1- a1 b1-"))

    def test_validate_rejects_relation(self):
        # b1 a2 written consecutively is a zero relation
        assert not gentle.validate_band_walk(gentle.walk_from_str("b1 a2 b2- a1-"))

    def test_validate_rejects_non_composable(self):
        assert not gentle.validate_band_walk(gentle.walk_from_str("a1 a2"))

    def test_canonical_rotation_invariant(self):
        walk = gentle.psi((2, 3, 2, 2, 3))
        canon = gentle.canonical_walk(walk)
        for k in range(len(walk)):
            assert gentle.canonical_walk(walk[k:] + walk[:k]) == canon

    @given(primitive_words, st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_canonical_is_least_key_rotation(self, w, k):
        walk = gentle.psi(w)
        k %= len(walk)
        rot = walk[k:] + walk[:k]
        rots = [rot[j:] + rot[:j] for j in range(len(rot))]
        least = min(rots, key=_walk_key)
        assert gentle.canonical_walk(rot) == least
        assert gentle.validate_band_walk(rot)
        assert not gentle.validate_band_walk(rot * 2)

    @given(primitive_words)
    @settings(max_examples=60, deadline=None)
    def test_psi_always_valid(self, w):
        assert gentle.validate_band_walk(gentle.psi(w))

    def test_walks_are_step_codes(self):
        assert gentle.psi((2, 3)) == gentle.walk_from_str("a1 b1- a1 a2 b2- b1-")
        assert [_step(c) for c in gentle.walk_from_str("a1 b2- a3-")] == [
            ("a", 1, 1), ("b", 2, -1), ("a", 3, -1)
        ]

    def test_round_trip_over_table_walks(self):
        for walk in _table_walks():
            assert gentle.walk_from_str(gentle.walk_to_str(walk)) == walk


def _reference_validate_band_walk(codes, n=None):
    """The band conditions checked one by one: arrows of index at least 1
    (and below n), composable cycle, reduced, no relation or inverse
    relation, primitive, both signs."""
    walk = [_step(c) for c in codes]
    r = len(walk)
    if r == 0:
        return False
    if any(index < 1 for _, index, _ in walk):
        return False
    if n is not None and any(index >= n for _, index, _ in walk):
        return False
    for j in range(r):
        if step_from(codes[j]) != step_to(codes[(j + 1) % r]):
            return False
        (xkind, xindex, xexp), (ykind, yindex, yexp) = walk[j], walk[(j + 1) % r]
        if xkind == ykind and xindex == yindex and xexp != yexp:
            return False
        # relations are the alternating length-2 paths going up in index
        if xexp > 0 and yexp > 0:
            if xkind != ykind and yindex == xindex + 1:
                return False
        if xexp < 0 and yexp < 0:
            if xkind != ykind and xindex == yindex + 1:
                return False
    if not any(exp > 0 for *_, exp in walk) or not any(exp < 0 for *_, exp in walk):
        return False
    return words.is_primitive(walk)


def _check_sign_rule_exhaustively(n, lowest, longest, omit_n):
    # every step sequence of at most longest steps with indices from lowest
    # up to n - 1: the one sign rule accepts exactly the walks the separate
    # conditions accept, with n given and, if omit_n, with n omitted (no
    # index reaches n, so both answers agree)
    codes = range(lowest << 2, n << 2)
    accepted = 0
    for length in range(1, longest + 1):
        for walk in itertools.product(codes, repeat=length):
            expected = _reference_validate_band_walk(walk, n)
            assert gentle.validate_band_walk(walk, n) == expected, walk
            if omit_n:
                assert gentle.validate_band_walk(walk) == expected, walk
            accepted += expected
    assert accepted > 0


class TestSignRule:
    @pytest.mark.parametrize("n, longest", [(3, 6), (4, 4)])
    def test_matches_reference_exhaustively(self, n, longest):
        _check_sign_rule_exhaustively(n, 1, longest, omit_n=False)

    @pytest.mark.parametrize("n, longest", [(3, 5), (4, 4)])
    def test_index_zero_matches_reference_exhaustively(self, n, longest):
        _check_sign_rule_exhaustively(n, 0, longest, omit_n=True)

    def test_index_zero_is_not_an_arrow(self):
        walk = gentle.walk_from_str("a0 b0-")
        assert not gentle.validate_band_walk(walk)
        assert not gentle.validate_band_walk(walk, 2)
        with pytest.raises(InvalidWalk):
            gentle.band_module(walk, 1)

    def test_index_range_and_empty_walk(self):
        walk = gentle.walk_from_str("a2 b2-")
        assert gentle.validate_band_walk(walk, 3)
        assert not gentle.validate_band_walk(walk, 2)
        assert not gentle.validate_band_walk((), 3)

    def test_long_walks_match_reference(self):
        # past the exhaustive lengths: psi and slalom walks of up to about
        # 200 steps, each rotated, inverted and mirrored, then with one code
        # replaced, with a code of the wrap-around pair moved by 4 either
        # way, and run on past its start, so that only the wrap-around pair
        # breaks
        rng = random.Random(39)
        bases = []
        while len(bases) < 20:
            w = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 40)))
            if words.is_primitive(w):
                bases.append(gentle.psi(w))
        while len(bases) < 40:
            g = [rng.randint(-4, 4) for _ in range(rng.randint(3, 7))]
            if dyck.validate_gvector(g) and (component := dyck.single_component(g)):
                bases.append(gentle.slalom_to_band_walk(component))
        assert max(map(len, bases)) > 150
        cases = []
        for base in bases:
            n = _quiver(base) + 1
            k = rng.randrange(len(base))
            for walk in (base, base[k:] + base[:k], _inverse(base), gentle.mirror_walk(base, n)):
                i = rng.randrange(len(walk))
                for case in (
                    walk,
                    walk[:i] + (rng.randrange(4 * n + 4),) + walk[i + 1 :],
                    walk[:-1] + (walk[-1] + 4,),
                    walk[:-1] + (walk[-1] - 4,),
                    (walk[0] + 4,) + walk[1:],
                    (walk[0] - 4,) + walk[1:],
                    walk + walk[:i],
                ):
                    cases.append((case, n))
        accepted = 0
        for walk, n in cases:
            expected = _reference_validate_band_walk(walk, n)
            assert gentle.validate_band_walk(walk, n) == expected, walk
            assert gentle.validate_band_walk(walk) == _reference_validate_band_walk(walk), walk
            accepted += expected
        assert 4 * len(bases) <= accepted < len(cases)



class TestCanonicalBand:
    def test_rotation_and_inversion_invariant(self):
        # codes keep the rotation the build was given; walk and == do not
        walk = gentle.psi((2, 3, 2, 2, 3))
        canon = gentle.band_module(walk, 2)
        for w in (walk, _inverse(walk)):
            for k in range(len(w)):
                rot = w[k:] + w[:k]
                m = gentle.band_module(rot, 2)
                oriented = _inverse(rot) if _has_inverse_a_step(rot) else rot
                assert m.codes == oriented[::-1]
                assert (m.walk, m.lam) == (canon.walk, canon.lam) and m == canon

    @pytest.mark.parametrize("spec", ["a1 b1-", "a1 a2 b2- b1- a1 b1-"])
    def test_same_band_exactly_when_isomorphic(self, spec):
        # bricks: Hom is 1 between isomorphic members and 0 between
        # distinct members of one family
        walk = gentle.walk_from_str(spec)
        x = gentle.band_module(walk, 2)
        for w in (walk, _inverse(walk)):
            for mu in (Fraction(2), Fraction(1, 2), Fraction(3)):
                y = gentle.band_module(w, mu)
                same = y.walk == x.walk and y.lam == x.lam
                assert gentle.hom_dim(x, y) == gentle.hom_dim(y, x) == int(same)


class TestBandModule:
    def test_minimal_module(self):
        m = gentle.band_module(gentle.psi((2,)), Fraction(5))
        assert m.dims == (1, 1)
        assert dict(m.matrices()) == {
            ("a", 1): ((1, 1), {(0, 0): Fraction(5)}), ("b", 1): ((1, 1), {(0, 0): Fraction(1)})
        }

    def test_multi_visit_module(self):
        walk = gentle.walk_from_str("a1 a2 b2- a2 b2- b1-")
        m = gentle.band_module(walk, Fraction(1), n=3)
        assert m.dims == (1, 3, 2)
        entries = [v for _, (_, mapped) in m.matrices() for v in mapped.values() if v != 1]
        assert entries == []  # lambda = 1 leaves only entries of 1

    def test_lambda_appears_once(self):
        walk = gentle.walk_from_str("a1 a2 b2- a2 b2- b1-")
        m = gentle.band_module(walk, Fraction(7), n=3)
        entries = [v for _, (_, mapped) in m.matrices() for v in mapped.values() if v != 1]
        assert entries == [Fraction(7)]

    def test_zero_lambda_rejected(self):
        with pytest.raises(ZeroLambda):
            gentle.band_module(gentle.psi((2,)), 0)

    def test_invalid_walk_rejected(self):
        with pytest.raises(InvalidWalk):
            gentle.band_module(gentle.walk_from_str("a1 a1-"), 1)

    def test_arrows_are_sparse_basis_maps(self):
        walk = gentle.walk_from_str("a1 a2 b2- a2 b2- b1-")
        m = gentle.band_module(walk, Fraction(7), n=3)
        nonzero = []
        dims = m.dims
        for (kind, idx), ((height, width), mapped) in m.matrices():
            assert (height, width) == (dims[idx - 1], dims[idx])
            assert all(0 <= r < height and 0 <= c < width for r, c in mapped)
            # a basis map: at most one non-zero per row and per column, and
            # no zero is listed
            rows, cols = {r for r, _ in mapped}, {c for _, c in mapped}
            assert len(rows) == len(cols) == len(mapped)
            assert all(mapped.values())
            nonzero += [(kind, v) for v in mapped.values()]
        # one entry per step, lambda exactly once and on an a-arrow, every
        # other entry 1
        assert len(nonzero) == len(walk)
        assert [kind for kind, v in nonzero if v == m.lam] == ["a"]
        assert all(v in (1, m.lam) for _, v in nonzero)

    def test_relation_check_raises(self):
        # a1 after b2 is the relation a_1 b_2, which must vanish
        arrows = {("a", 1): {0: 0}, ("b", 2): {0: 0}}
        with pytest.raises(InternalInconsistency, match="relation"):
            gentle._check_relations(arrows, 2)
        gentle._check_relations({**arrows, ("a", 1): {}}, 1)
        with pytest.raises(InternalInconsistency, match="two steps"):
            gentle._check_relations({**arrows, ("a", 1): {}}, 2)

    def test_large_index_stores_used_arrows_only(self):
        start = time.perf_counter()
        walk = gentle.walk_from_str("a100000 b100000-")
        m = gentle.band_module(walk, 3)
        assert m.n == 100001
        # nothing is stored per arrow or per vertex: the module holds its
        # walk and one scalar
        assert len(m.walk) == len(m.codes) == len(walk)
        assert gentle.hom_dim(m, m) == 1
        mats = dict(m.matrices())
        assert len(mats) == 2 * (m.n - 1)
        assert mats.pop(("a", 100000)) == ((1, 1), {(0, 0): 3})
        assert mats.pop(("b", 100000)) == ((1, 1), {(0, 0): 1})
        # every other arrow leaves a vertex of dimension 0
        assert all(rows == 0 and not mapped for (rows, _), mapped in mats.values())
        # matrices() counts the dims once, not once per arrow, which would
        # be quadratic in n
        assert time.perf_counter() - start < 1

    def test_quiver_size_bound(self):
        top = gentle.MAX_VERTICES - 1
        m = gentle.band_module(gentle.walk_from_str(f"a{top} b{top}-"), 1)
        assert m.n == gentle.MAX_VERTICES
        for walk, n in [((4, 7), gentle.MAX_VERTICES + 1), (((top + 1) << 2, (top + 1) << 2 | 3), None)]:
            with pytest.raises(QuiverTooLarge):
                gentle.band_module(walk, 1, n)

    @given(primitive_words, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_dimension_vector_counts_visits(self, w, lam):
        m = gentle.band_module(gentle.psi(w), Fraction(lam))
        assert sum(m.dims) == len(m.walk)

    @given(primitive_words)
    @settings(max_examples=40, deadline=None)
    def test_dims_are_the_shapes_of_the_matrices(self, w):
        # dims, derived from the codes as built, against the matrices,
        # which count the basis along the canonical walk, at every rotation
        # and inverse of the walk
        walk = gentle.psi(w)
        for v in (walk, _inverse(walk)):
            for k in range(len(v)):
                m = gentle.band_module(v[k:] + v[:k], 1)
                dims = m.dims
                assert len(dims) == m.n, (v, k)
                for (_, index), ((rows, cols), mapped) in m.matrices():
                    assert (rows, cols) == (dims[index - 1], dims[index]), (v, k, index)
                    assert all(r < rows and c < cols for r, c in mapped), (v, k, index)


class TestHom:
    def test_brick_detection(self):
        m = gentle.band_module(gentle.psi((2, 3)), Fraction(1))
        assert gentle.is_brick(m)

    def test_non_brick(self):
        m = gentle.band_module(gentle.psi((2, 2, 3, 3)), Fraction(1))
        assert gentle.hom_dim(m, m) == 2
        assert not gentle.is_brick(m)

    def test_hom_asymmetry_matches_euler(self):
        x = gentle.band_module(gentle.psi((2,), n=3), Fraction(1), n=3)
        y = gentle.band_module(gentle.psi((2, 3)), Fraction(1))
        gx = gentle.g_vector_of_band(x.walk, 3)
        gy = gentle.g_vector_of_band(y.walk, 3)
        diff = gentle.hom_dim(x, y) - gentle.hom_dim(y, x)
        assert diff == euler_form(gx, gy)

    def test_ext_is_reversed_hom(self):
        x = gentle.band_module(gentle.psi((2,), n=3), Fraction(1), n=3)
        y = gentle.band_module(gentle.psi((2, 3)), Fraction(2))
        assert gentle.ext1_dim(x, y) == gentle.hom_dim(y, x)

    def test_quivers_must_match(self):
        x = gentle.band_module(gentle.psi((2,)), 1)
        y = gentle.band_module(gentle.psi((2,), n=3), 1, n=3)
        with pytest.raises(DimensionMismatch, match="^modules over different quivers: 2 != 3$"):
            gentle.hom_dim(x, y)

    def test_distinct_lambda_no_hom(self):
        walk = gentle.psi((2,))
        x = gentle.band_module(walk, Fraction(1))
        y = gentle.band_module(walk, Fraction(2))
        assert gentle.hom_dim(x, y) == 0
        assert gentle.hom_dim(x, x) == 1

    def test_fractional_parameters(self):
        # both sides carry a non-integer scalar in the same equations
        walk = gentle.psi((2, 3, 2, 2, 3))
        x = gentle.band_module(walk, Fraction(3, 2))
        y = gentle.band_module(walk, Fraction(-2, 5))
        assert gentle.hom_dim(x, x) == gentle.hom_dim(y, y) == 1
        assert gentle.hom_dim(x, y) == gentle.hom_dim(y, x) == 0
        m = gentle.band_module(gentle.psi((2, 2, 3, 3)), Fraction(5, 3))
        assert gentle.hom_dim(m, m) == 2


def _dense_rank(rows):
    # Gaussian elimination over the rationals, one column at a time
    rows = [row for row in rows if any(row)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / head[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
        rank += 1
    return rank


def _reference_hom_dim(m, w):
    """Nullity of f_t M_g - W_g f_s = 0 built from the dense arrow matrices."""
    mm, wm = dense_matrices(m), dense_matrices(w)
    mdims, wdims = m.dims, w.dims
    unknowns = {}
    for i in range(m.n):
        for r in range(wdims[i]):
            for c in range(mdims[i]):
                unknowns[(i, r, c)] = len(unknowns)
    rows = []
    for kind, idx in itertools.product("ab", range(1, m.n)):
        # 0-based vertices: the arrow runs from idx to idx - 1
        src, tgt = idx, idx - 1
        mg, wg = mm[(kind, idx)], wm[(kind, idx)]
        for r in range(wdims[tgt]):
            for c in range(mdims[src]):
                row = [Fraction(0)] * len(unknowns)
                for k in range(mdims[tgt]):
                    row[unknowns[(tgt, r, k)]] += mg[k][c]
                for k in range(wdims[src]):
                    row[unknowns[(src, k, c)]] -= wg[r][k]
                rows.append(row)
    return len(unknowns) - _dense_rank(rows)


def _small_walks():
    # band walks with at most 12 steps on at most 4 vertices, each with its
    # inverse: the letter cycles of short words and the components of
    # small g-vectors
    found = set()
    for length in range(1, 7):
        for w in itertools.product((2, 3, 4), repeat=length):
            if words.is_primitive(w):
                found.add(gentle.psi(w))
    for n in (2, 3, 4):
        for g in itertools.product(range(-5, 6), repeat=n):
            if any(g) and sum(g) == 0 and all(sum(g[: k + 1]) <= 0 for k in range(n)):
                for comp in dyck.reconstruct_multislalom(g):
                    found.add(gentle.slalom_to_band_walk(comp))
    small = {gentle.canonical_walk(w) for w in found if len(w) <= 12}
    small |= {gentle.canonical_walk(_inverse(w)) for w in small}
    return sorted(small, key=_walk_key)


# the parameters both sides of a Hom count are swept over
SWEEP = (Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2))


class TestHomAgainstDenseElimination:
    LAMBDAS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(-2, 5))

    def test_seeded_pool(self):
        walks = _small_walks()
        rng = random.Random(2024)
        pairs = [(w, w) for w in walks] + [tuple(rng.sample(walks, 2)) for _ in range(400)]
        for w1, w2 in pairs:
            n = max(_quiver(w1, w2), rng.choice((3, 4)))
            x = gentle.band_module(w1, rng.choice(self.LAMBDAS), n)
            y = gentle.band_module(w2, rng.choice(self.LAMBDAS), n)
            assert gentle.hom_dim(x, y) == _reference_hom_dim(x, y), (w1, w2)

    def test_parameter_sweep(self):
        # one build per walk, then every pair of swept parameters; the walks
        # of at most 8 steps keep the dense systems small
        walks = [w for w in _small_walks() if len(w) <= 8]
        rng = random.Random(11)
        pairs = [(w, w) for w in walks] + [tuple(rng.sample(walks, 2)) for _ in range(24)]
        for w1, w2 in pairs:
            n = _quiver(w1, w2)
            x, y = gentle.band_module(w1, 1, n), gentle.band_module(w2, 1, n)
            for lam1, lam2 in itertools.product(SWEEP, repeat=2):
                xl, yl = x.replace(lam=lam1), y.replace(lam=lam2)
                assert gentle.hom_dim(xl, yl) == _reference_hom_dim(xl, yl), (w1, w2, lam1, lam2)


# The intertwiner engine that hom_dim replaced, kept as a second engine:
# it links the unknowns of f_t M_g = W_g f_s and counts the free components.
Scalar = Fraction | int

# A module as _unoriented_module builds it: arrows[(kind, index)] maps a
# basis index at vertex index+1 to one at vertex index, for the arrows the
# walk uses, and every entry is 1 except the one at lam_at = (kind, index,
# source), which is lam.
SparseModule = collections.namedtuple("SparseModule", "n dims arrows lam lam_at")


def _intertwiner_hom_dim(m: SparseModule, w: SparseModule) -> int:
    """Dimension of the space of morphisms m -> w.

    Unknowns are per-vertex matrices f_i of shape w.dims[i] x m.dims[i];
    for every arrow g: s -> t the equation f_t M_g = W_g f_s must hold.
    M_g has at most one entry per column and W_g at most one per row, so
    each entry equation reads p x = q y (p, q each 1 or a parameter) or
    x = 0.  Arrows neither module uses give no equation.  Each component
    of unknowns linked by these equations adds one dimension when it
    holds no forced zero and its cycles are consistent.
    """
    if m.n != w.n:
        raise DimensionMismatch(f"modules over different quivers: {m.n} != {w.n}")
    base = list(itertools.accumulate(map(operator.mul, w.dims, m.dims), initial=0))
    # links[x] holds (y, p, q) for every equation p x = q y, each of p, q
    # 1 or a parameter; zero[x] marks an unknown that an equation forces to 0
    links: list[list[tuple[int, Scalar, Scalar]]] = [[] for _ in range(base[m.n])]
    zero = [False] * base[m.n]

    def var(vertex: int, row: int, col: int) -> int:
        # f at vertex (1-based): row in w basis, col in m basis
        return base[vertex - 1] + row * m.dims[vertex - 1] + col

    for kind, idx in dict.fromkeys([*m.arrows, *w.arrows]):
        src, tgt = idx + 1, idx
        m_arrow = m.arrows.get((kind, idx), {})
        w_rows = {u: k for k, u in w.arrows.get((kind, idx), {}).items()}
        # the source index holding each module's parameter on this arrow
        m_lam = m.lam_at[2] if m.lam_at[:2] == (kind, idx) else -1
        w_lam = w.lam_at[2] if w.lam_at[:2] == (kind, idx) else -1
        for v in range(m.dims[src - 1]):
            image = m_arrow.get(v)
            p = m.lam if v == m_lam else 1
            for u in range(w.dims[tgt - 1]):
                preimage = w_rows.get(u)
                if image is None:
                    if preimage is not None:
                        zero[var(src, preimage, v)] = True
                elif preimage is None:
                    zero[var(tgt, u, image)] = True
                else:
                    x, y = var(tgt, u, image), var(src, preimage, v)
                    q = w.lam if preimage == w_lam else 1
                    links[x].append((y, p, q))
                    links[y].append((x, q, p))
    return _free_components(links, zero)


def _free_components(links: list[list[tuple[int, Scalar, Scalar]]], zero: list[bool]) -> int:
    # one walk per component: start at 1, carry y = x p / q along each
    # link, and count the component unless it meets a forced zero or a
    # link whose far end already holds another value
    value: list[int | Fraction | None] = [None] * len(links)
    free = 0
    for start in range(len(links)):
        if value[start] is not None:
            continue
        value[start] = 1
        stack = [start]
        consistent = True
        while stack:
            x = stack.pop()
            if zero[x]:
                consistent = False
            vx = value[x]
            for y, p, q in links[x]:
                vy = vx if p == q else Fraction(vx * p, q)
                seen = value[y]
                if seen is None:
                    value[y] = vy
                    stack.append(y)
                elif seen != vy:
                    consistent = False
        free += consistent
    return free


class TestHomAgainstIntertwiner:
    LAMBDAS = (
        Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(-2, 5), Fraction(2, 3)
    )

    @pytest.mark.parametrize(
        "lam1, lam2",
        [(1, 1), (Fraction(3, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(2, 3)), (-1, -1),
         (2, 3)],
    )
    def test_same_and_inverse_band(self, lam1, lam2):
        for walk in _small_walks():
            n = _quiver(walk)
            x = gentle.band_module(walk, lam1, n)
            u = _unoriented_module(x.walk, lam1, n)
            for other in (walk, _inverse(walk)):
                y = gentle.band_module(other, lam2, n)
                v = _unoriented_module(y.walk, lam2, n)
                assert gentle.hom_dim(x, y) == _intertwiner_hom_dim(u, v), (walk, other)
                assert gentle.hom_dim(y, x) == _intertwiner_hom_dim(v, u), (walk, other)

    def test_seeded_pairs(self):
        walks = _small_walks()
        rng = random.Random(7)
        for _ in range(2000):
            w1, w2 = rng.choice(walks), rng.choice(walks)
            n = max(_quiver(w1, w2), rng.choice((3, 4, 5)))
            lam1, lam2 = rng.choice(self.LAMBDAS), rng.choice(self.LAMBDAS)
            x, y = gentle.band_module(w1, lam1, n), gentle.band_module(w2, lam2, n)
            u, v = _unoriented_module(x.walk, lam1, n), _unoriented_module(y.walk, lam2, n)
            assert gentle.hom_dim(x, y) == _intertwiner_hom_dim(u, v), (w1, w2)

    def test_euler_zero_brick_pairs(self):
        # one module per brick, swept over both parameters, distinct ones
        # when a brick meets itself; a zero Euler form makes Hom equally
        # large both ways, which lets the search test one direction
        modules = forms._enumerate_brick_gvectors(5, 2)
        bricks = list(modules)
        pairs = 0
        for i, g1 in enumerate(bricks):
            for g2 in bricks[i:]:
                if euler_form(g1, g2) != 0:
                    continue
                for lam1, lam2 in itertools.product(SWEEP, repeat=2):
                    if g1 == g2 and lam1 == lam2:
                        continue
                    x = modules[g1].replace(lam=lam1)
                    y = modules[g2].replace(lam=lam2)
                    u = _unoriented_module(x.walk, lam1, x.n)
                    v = _unoriented_module(y.walk, lam2, y.n)
                    pairs += 1
                    hom_xy, hom_yx = gentle.hom_dim(x, y), gentle.hom_dim(y, x)
                    assert hom_xy == _intertwiner_hom_dim(u, v), (g1, g2, lam1, lam2)
                    assert hom_yx == _intertwiner_hom_dim(v, u), (g1, g2, lam1, lam2)
                    assert hom_xy == hom_yx, (g1, g2, lam1, lam2)
        assert pairs > 100


def _unoriented_module(codes, lam, n=None):
    """The module of a walk as a SparseModule, with the walk rotated to
    its canonical walk, as BandModule.matrices() reads it, but not
    oriented: a walk whose a-steps are inverse arrows keeps them."""
    walk = tuple(codes)
    if n is None:
        n = _quiver(walk)
    if not gentle.validate_band_walk(walk, n):
        raise InvalidWalk(f"not a band walk: {gentle.walk_to_str(walk)}")
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroLambda("the band parameter must be non-zero")
    walk = gentle.canonical_walk(walk)
    trav = walk[::-1]
    r = len(trav)
    visits = [step_from(c) for c in trav]
    dims = [0] * n
    index_in_vertex = []
    for v in visits:
        index_in_vertex.append(dims[v - 1])
        dims[v - 1] += 1
    arrows = {}
    for t, c in enumerate(trav):
        kind, index, exp = _step(c)
        here, there = index_in_vertex[t], index_in_vertex[(t + 1) % r]
        if exp < 0:
            here, there = there, here
        arrows.setdefault((kind, index), {})[here] = there
    gentle._check_relations(arrows, r)
    lam_at = (kind, index, here)  # the loop ends on the wrap-around step
    return SparseModule(n, tuple(dims), arrows, lam, lam_at)


def _basis_maps(u):
    # the arrows of a SparseModule in the order and form of matrices():
    # the shape, and each non-zero entry by (row, col)
    for kind, idx in itertools.product("ab", range(1, u.n)):
        entries = {
            (row, col): u.lam if (kind, idx, col) == u.lam_at else 1
            for col, row in u.arrows.get((kind, idx), {}).items()
        }
        yield (kind, idx), ((u.dims[idx - 1], u.dims[idx]), entries)


class TestOrientation:
    # the intertwiner on modules built from the walk as given, in either
    # orientation, against hom_dim on the oriented modules

    @pytest.mark.parametrize(
        "lam1, lam2",
        [(1, 1), (Fraction(3, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(2, 3)), (-1, -1),
         (2, 3)],
    )
    def test_walk_and_inverse_against_intertwiner(self, lam1, lam2):
        for walk in _small_walks():
            n = _quiver(walk)
            x, u = gentle.band_module(walk, lam1, n), _unoriented_module(walk, lam1, n)
            for other in (walk, _inverse(walk)):
                y, v = gentle.band_module(other, lam2, n), _unoriented_module(other, lam2, n)
                assert gentle.hom_dim(x, y) == _intertwiner_hom_dim(u, v), (walk, other)
                assert gentle.hom_dim(y, x) == _intertwiner_hom_dim(v, u), (walk, other)

    def test_seeded_pairs_against_intertwiner(self):
        walks = _small_walks()
        lambdas = TestHomAgainstIntertwiner.LAMBDAS
        rng = random.Random(7)
        for _ in range(2000):
            w1, w2 = rng.choice(walks), rng.choice(walks)
            n = max(_quiver(w1, w2), rng.choice((3, 4, 5)))
            lam1, lam2 = rng.choice(lambdas), rng.choice(lambdas)
            x, y = gentle.band_module(w1, lam1, n), gentle.band_module(w2, lam2, n)
            u, v = _unoriented_module(w1, lam1, n), _unoriented_module(w2, lam2, n)
            assert gentle.hom_dim(x, y) == _intertwiner_hom_dim(u, v), (w1, w2)

    @pytest.mark.parametrize("lam", [1, Fraction(-2, 5)])
    def test_walk_and_inverse_build_one_module(self, lam):
        for walk in _small_walks():
            x, y = gentle.band_module(walk, lam), gentle.band_module(_inverse(walk), lam)
            assert (x.walk, x.codes, x.dims, list(x.matrices())) == (
                y.walk, y.codes, y.dims, list(y.matrices())
            ), walk
            assert not _has_inverse_a_step(x.walk)

    @pytest.mark.parametrize("lam", [1, 7, Fraction(-2, 5)])
    def test_matrices_match_the_reference(self, lam):
        # matrices() derives the arrows, and checks the relations on them,
        # from the stored walk; the reference reads the same walk afresh
        for walk in _small_walks():
            for w in (walk, _inverse(walk)):
                for n in (None, _quiver(w) + 1):
                    m = gentle.band_module(w, lam, n)
                    expected = list(_basis_maps(_unoriented_module(m.walk, lam, m.n)))
                    assert list(m.matrices()) == expected, (w, n)


def _reference_turns(codes):
    # (vertex, 1) for each top of a cyclic traversal, (vertex, -1) for each
    # bottom
    for p, c in itertools.pairwise(itertools.chain(codes[-1:], codes)):
        if p & 1 != c & 1:
            yield (c >> 2) + (p & 1), (p & 1) - (c & 1)


def _reference_starts(y):
    # the positions of y that y arrives at by a positive step, by code
    firsts = {}
    for j in range(len(y)):
        if not y[j - 1] & 1:
            firsts.setdefault(y[j], []).append(j)
    return firsts


def _reference_source_starts(x):
    # the positions of x that x arrives at by a negative step
    return [i for i in range(len(x)) if x[i - 1] & 1]


def _table_hom_dim(m, w):
    # a second Hom count from per-module tables, as hom_dim once stored
    # them: the tops of m times the bottoms of w, then each source start of
    # m against the starts of w with its code, walked with the positions
    # taken modulo the lengths, and the cycle when the codes are rotations
    # of each other and the parameters agree
    x, y = m.codes, w.codes
    tops = collections.Counter(v for v, t in _reference_turns(x) if t > 0)
    bottoms = collections.Counter(v for v, t in _reference_turns(y) if t < 0)
    free = sum(count * bottoms[v] for v, count in tops.items())
    starts = _reference_starts(y)
    for i in _reference_source_starts(x):
        for j in starts.get(x[i], ()):
            d = 1
            while x[(i + d) % len(x)] == y[(j + d) % len(y)]:
                d += 1
                assert d <= len(x) + len(y), "a common walk outruns its bound"
            free += x[(i + d) % len(x)] & 1 < y[(j + d) % len(y)] & 1
    rotations = {x[k:] + x[:k] for k in range(len(x))}
    return free + (y in rotations and m.lam == w.lam)


def _table_g_vector(m):
    g = [0] * m.n
    for v, t in _reference_turns(m.codes):
        g[v - 1] += t
    return tuple(g)


def _table_walks():
    # _small_walks() with their inverses, and psi of every primitive word
    # of at most 7 letters over 2..4
    walks = _small_walks()
    walks += [_inverse(w) for w in walks]
    for length in range(1, 8):
        for w in itertools.product((2, 3, 4), repeat=length):
            if words.is_primitive(w):
                walks.append(gentle.psi(w))
    return walks


class TestParameterMembers:
    # module.replace(lam=mu) is the member mu of the same band:
    # one build, and everything but the parameter shared

    def _members(self):
        module = gentle.band_module(gentle.psi((2, 3, 3)), 1, 3)
        return [module] + [module.replace(lam=Fraction(lam)) for lam in (2, 3)]

    def test_members_share_maps(self):
        members = self._members()
        assert [m.lam for m in members] == [1, 2, 3]
        first = dict(members[0].matrices())
        for m in members[1:]:
            assert m.codes is members[0].codes
            assert (m.dims, m.walk) == (members[0].dims, members[0].walk)
            # the derived arrows have one shape each and differ in the one
            # entry that holds lam
            changed = []
            for key, (shape, mapped) in m.matrices():
                old_shape, old = first[key]
                assert shape == old_shape, key
                changed += [
                    (old.get(pos), mapped.get(pos))
                    for pos in sorted(old.keys() | mapped.keys())
                    if old.get(pos) != mapped.get(pos)
                ]
            assert changed == [(1, m.lam)]

    def test_members_share_step_codes(self):
        members = self._members()
        assert all(m.codes is members[0].codes for m in members)
        assert len(members[0].codes) == len(members[0].walk)


def _seeded_walks(rng, count):
    # psi of short primitive words, the slalom components of small
    # g-vectors and up-down walks, which may have a top and a bottom at one
    # vertex, over 5 vertices, each at a random rotation, half of them
    # inverted
    up_down = _up_down_walks(10, 5)
    found = []
    while len(found) < count:
        kind = rng.randrange(3)
        if kind == 0:
            w = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 8)))
            walks = [gentle.psi(w, 5)] if words.is_primitive(w) else []
        elif kind == 1:
            walks = [rng.choice(up_down)]
        else:
            g = tuple(rng.randint(-4, 4) for _ in range(5))
            walks = []
            if dyck.validate_gvector(g):
                walks = [gentle.slalom_to_band_walk(c) for c in dyck.reconstruct_multislalom(g)]
        for walk in walks:
            k = rng.randrange(len(walk))
            walk = walk[k:] + walk[:k]
            found.append(_inverse(walk) if rng.random() < 0.5 else walk)
    return found


class TestHomTables:
    # the count from per-module tables, _table_hom_dim, is a second engine
    # for hom_dim, is_brick and g_vector(), which read only the codes

    def test_tables_match_reference(self):
        for walk in _table_walks():
            m = gentle.band_module(walk, 1)
            end = _table_hom_dim(m, m)
            assert m.g_vector() == _table_g_vector(m), walk
            assert (gentle.hom_dim(m, m), gentle.is_brick(m)) == (end, end == 1), walk

    def test_seeded_pairs_match_the_table_count(self):
        # pairs of walks at rotations and inversions, the same band among
        # them, at parameters 1 and 2 on both sides
        rng = random.Random(32)
        walks = _seeded_walks(rng, 200)
        pairs = [(w, w) for w in walks] + [tuple(rng.sample(walks, 2)) for _ in range(2000)]
        pairs += [(w, _inverse(w[k:] + w[:k])) for w in walks[:100] for k in (0, len(w) // 2)]
        counts = collections.Counter()
        for w1, w2 in pairs:
            x = gentle.band_module(w1, rng.choice((1, 2)), 5)
            y = gentle.band_module(w2, rng.choice((1, 2)), 5)
            for m in (x, y):
                assert m.g_vector() == _table_g_vector(m), m.codes
                assert gentle.is_brick(m) == (_table_hom_dim(m, m) == 1), m.codes
            hom = gentle.hom_dim(x, y)
            assert hom == _table_hom_dim(x, y), (w1, w2)
            counts[min(hom, 2)] += 1
            # the maps of no steps, a top of x over a bottom of y
            counts["top"] += any(d == 0 for *_, d in _scan_graph_maps(x.codes, y.codes))
        assert min(counts.values()) > 100, counts

    def test_rotation_is_least_under_walk_key(self):
        # the int rotation key of band_module orders steps as _walk_key does
        for walk in _table_walks():
            oriented = _inverse(walk) if _has_inverse_a_step(walk) else walk
            rots = [oriented[k:] + oriented[:k] for k in range(len(oriented))]
            assert gentle.band_module(walk, 1).walk == min(rots, key=_walk_key), walk

    def test_orientation_matches_a_scan(self):
        # band_module orients a walk by its first step and keeps its
        # rotation; the reference scans the whole walk for an inverse a-step
        # (the rotation of walk is held to _walk_key above)
        walks = _table_walks()
        for walk in walks + [_inverse(w) for w in walks]:
            oriented = _inverse(walk) if _has_inverse_a_step(walk) else walk
            m = gentle.band_module(walk, 1)
            assert m.codes == oriented[::-1], walk
            assert m.walk == gentle.canonical_walk(oriented), walk

    def test_hom_reads_the_start_index(self):
        # the second endomorphism is a common walk of at least one step,
        # from a source start of the walk to a start of the same code
        m = gentle.band_module(gentle.psi((2, 2, 3, 3)), 1)
        assert gentle.hom_dim(m, m) == _table_hom_dim(m, m) == 2
        i, j = gentle._first_endomorphism(m.codes)
        assert [(i, j)] == [(a, b) for a, b, d in _scan_graph_maps(m.codes, m.codes) if d >= 1]
        assert m.codes[i] == m.codes[j]
        assert i in _reference_source_starts(m.codes)
        assert j in _reference_starts(m.codes)[m.codes[i]]

    def test_a_module_holds_no_table(self):
        # a module is its walk with one scalar: Hom reads only the codes
        m = gentle.band_module(gentle.psi((2, 2, 3)), 1)
        assert gentle.BandModule.__slots__ == ("n", "lam", "codes")
        assert not hasattr(m, "__dict__")


class TestUnrotatedBuild:
    # band_module keeps the rotation it is given: codes follow it, and
    # everything a reader sees of the module does not

    def test_every_rotation_and_inverse_is_one_module(self):
        # one band per canonical walk; its rotations and their inverses
        # cover those of every _table_walks() walk on it.  matrices() reads
        # only the canonical walk, and is compared where it is cheap
        bands = {}
        for walk in _table_walks():
            bands.setdefault(gentle.band_module(walk, 1).walk, walk)
        for walk in bands.values():
            ref = gentle.band_module(walk, 3)
            seen = (ref.walk, ref.dims, ref.g_vector(), gentle.is_brick(ref))
            maps = list(ref.matrices()) if len(walk) <= 12 else None
            for w in (walk, _inverse(walk)):
                for k in range(len(w)):
                    m = gentle.band_module(w[k:] + w[:k], 3)
                    assert m == ref, (walk, k)
                    assert (m.walk, m.dims, m.g_vector(), gentle.is_brick(m)) == seen, (walk, k)
                    assert maps is None or list(m.matrices()) == maps, (walk, k)

    @pytest.mark.parametrize("lam, mu", [(2, 2), (2, 3), (Fraction(-2, 5), Fraction(-2, 5))])
    def test_hom_across_two_rotations(self, lam, mu):
        # the same-band rule on codes that differ, against the intertwiner
        rng = random.Random(27)
        for walk in _small_walks():
            k = rng.randrange(1, len(walk))
            other = rng.choice((walk[k:] + walk[:k], _inverse(walk[k:] + walk[:k])))
            n = _quiver(walk)
            x, y = gentle.band_module(walk, lam, n), gentle.band_module(other, mu, n)
            assert x.codes != y.codes, walk
            u, v = _unoriented_module(walk, lam, n), _unoriented_module(other, mu, n)
            hom_xy, hom_yx = gentle.hom_dim(x, y), gentle.hom_dim(y, x)
            assert hom_xy == _intertwiner_hom_dim(u, v), (walk, k)
            assert hom_yx == _intertwiner_hom_dim(v, u), (walk, k)
            # the cycle of the one band is free exactly at equal parameters
            apart = gentle.hom_dim(x, y.replace(lam=Fraction(lam) + 1))
            assert hom_xy == apart + (lam == mu), (walk, k)

    def test_brick_test_reads_no_rotation(self):
        # the least rotation is computed where the canonical walk is read,
        # and only there
        with mock.patch.object(gentle, "canonical_walk", wraps=gentle.canonical_walk) as canon, \
                mock.patch.object(gentle, "least_rotation", wraps=gentle.least_rotation) as least:
            modules = [gentle.band_module(gentle.psi(w), 1) for w in ((2, 3), (2, 2, 3, 3))]
            assert [gentle.is_brick(m) for m in modules] == [True, False]
            assert canon.call_count == least.call_count == 0
            assert modules[0].walk == gentle.walk_from_str("a1 a2 b2- b1- a1 b1-")
            assert canon.call_count == least.call_count == 1


class TestBandModuleContract:
    # repr and == read the identity fields n, lam, the dims and the
    # canonical walk, both derived from codes, a module is unhashable, and
    # replace shares what it keeps

    def test_repr(self):
        assert repr(gentle.band_module(gentle.psi((2, 3)), 1)) == (
            "BandModule(n=3, dims=(2, 3, 1), lam=Fraction(1, 1), "
            "walk=(4, 8, 11, 7, 4, 7))"
        )

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(gentle.band_module(gentle.psi((2, 3)), 1))

    def test_equality_reads_the_identity_fields(self):
        m = gentle.band_module(gentle.psi((2, 3)), 1)
        assert m == gentle.band_module(gentle.psi((3, 2)), 1)
        assert m != m.replace(lam=Fraction(2))
        assert m != gentle.band_module(gentle.psi((2, 3), 4), 1, 4)
        assert m != (m.n, m.dims, m.lam, m.walk, m.codes)

    def test_replace_shares_what_it_does_not_change(self):
        m = gentle.band_module(gentle.psi((2, 3, 3)), 1)
        mu = Fraction(5, 3)
        member = m.replace(lam=mu)
        assert member is not m and member.lam == mu and m.lam == 1
        for name in ("n", "codes"):
            assert getattr(member, name) is getattr(m, name), name
        assert (member.dims, member.walk) == (m.dims, m.walk)

    def test_replace_refuses_an_unknown_field(self):
        # replace changes lam only, so even a field a module holds is refused
        m = gentle.band_module(gentle.psi((2, 3)), 1)
        for changes in ({"arrows": {}}, {"n": 1}, {"codes": m.codes}):
            with pytest.raises(TypeError):
                m.replace(lam=2, **changes)

    def test_replace_refuses_a_zero_parameter(self):
        with pytest.raises(ZeroLambda):
            gentle.band_module(gentle.psi((2, 3)), 1).replace(lam=0)

    def test_replace_holds_lam_as_a_fraction(self):
        m = gentle.band_module(gentle.psi((2, 3, 3)), 1)
        member = m.replace(lam=2)
        assert member == m.replace(lam=Fraction(2))
        assert type(member.lam) is Fraction
        assert list(member.matrices()) == list(m.replace(lam=Fraction(2)).matrices())

    @pytest.mark.parametrize(
        "lam", [0.1, 2.0, "3/4", True, Decimal("1.5")],
        ids=["float", "whole-float", "str", "bool", "decimal"],
    )
    def test_lam_is_an_int_or_a_fraction(self, lam):
        # Fraction() would take each of these, a float as its binary
        # expansion; the rule takes the two exact types only
        walk = gentle.psi((2,))
        with pytest.raises(TypeError, match=type(lam).__name__):
            gentle.band_module(walk, lam)
        with pytest.raises(TypeError, match=type(lam).__name__):
            gentle.band_module(walk, 1).replace(lam=lam)


class TestCheckedWalk:
    # psi and slalom_to_band_walk validate the walk they build once and
    # return it as a _BandWalk, whose moves band_module does not check
    # again; every other sequence is validated by the build, and every
    # build checks n and the index bound

    _G = (-2, -1, -3, 6)

    def _slalom_walk(self):
        return gentle.slalom_to_band_walk(dyck.single_component(self._G))

    def test_the_builders_return_the_type(self):
        assert type(gentle.psi((2, 3, 3))) is gentle._BandWalk
        assert type(self._slalom_walk()) is gentle._BandWalk
        # it reads, prints and compares as the plain tuple of its codes
        walk = gentle.psi((2, 3), 4)
        assert walk == tuple(walk) == (4, 7, 4, 8, 11, 7)
        assert repr(walk) == repr(tuple(walk)) and hash(walk) == hash(tuple(walk))

    def test_the_builders_validate_once(self):
        component = dyck.single_component(self._G)
        for build, args in ((gentle.psi, ((2, 3, 3),)), (gentle.slalom_to_band_walk, (component,))):
            with mock.patch.object(gentle, "validate_band_walk",
                                   wraps=gentle.validate_band_walk) as validate:
                walk = build(*args)
            assert [c.args for c in validate.call_args_list] == [(walk,)]

    def test_the_builders_return_nothing_their_check_refuses(self):
        component = dyck.single_component(self._G)
        with mock.patch.object(gentle, "validate_band_walk", return_value=False):
            with pytest.raises(InternalInconsistency):
                gentle.psi((2, 3, 3))
            with pytest.raises(InvalidComponent):
                gentle.slalom_to_band_walk(component)

    def test_the_build_skips_the_check_of_the_type_only(self):
        for walk in (gentle.psi((2, 3, 3)), self._slalom_walk()):
            with mock.patch.object(gentle, "validate_band_walk",
                                   wraps=gentle.validate_band_walk) as validate:
                checked = gentle.band_module(walk, 1)
            assert validate.call_count == 0
            with mock.patch.object(gentle, "validate_band_walk",
                                   wraps=gentle.validate_band_walk) as validate:
                plain = gentle.band_module(tuple(walk), 1)
            assert [c.args for c in validate.call_args_list] == [(walk, checked.n)]
            assert (plain.n, plain.dims, plain.codes) == (checked.n, checked.dims, checked.codes)

    def test_copies_are_plain_tuples(self):
        # so a slice, a rotation, a concatenation, a copy or a mirror of a
        # checked walk is validated by the build, as any walk is
        walk = gentle.psi((2, 3, 3), 4)
        copies = [
            walk[1:], walk[1:] + walk[:1], walk + walk, walk[::-1], tuple(walk),
            gentle.mirror_walk(walk, 4), gentle.walk_from_str(gentle.walk_to_str(walk)),
        ]
        assert all(type(copy) is tuple for copy in copies)
        with pytest.raises(InvalidWalk):
            gentle.band_module(walk + walk, 1)  # a proper power
        with mock.patch.object(gentle, "validate_band_walk",
                               wraps=gentle.validate_band_walk) as validate:
            gentle.band_module(gentle.mirror_walk(walk, 4), 1, 4)
        assert validate.call_count == 1

    def test_every_build_checks_n_and_the_index_bound(self):
        walk = gentle.psi((2, 3))  # indices up to 2, so n >= 3
        with pytest.raises(InvalidWalk):
            gentle.band_module(walk, 1, 2)
        with pytest.raises(InvalidWalk):
            gentle.band_module(walk, 1, 0)
        assert gentle.band_module(walk, 1, 3).n == 3
        with pytest.raises(QuiverTooLarge):
            gentle.band_module(walk, 1, gentle.MAX_VERTICES + 1)
        with pytest.raises(ZeroLambda):
            gentle.band_module(walk, 0)


class TestTheoremAtScale:
    def test_brick_exactly_when_perfectly_clustering(self):
        # the paper's theorem on words of about 300 letters (walks of more
        # than a thousand steps), four of each kind
        rng = random.Random(300)
        pool = [perfectly_clustering_word(rng, 300) for _ in range(4)]
        while len(pool) < 8:
            w = tuple(rng.choice((2, 3, 4, 5)) for _ in range(300))
            if words.is_primitive(w) and not words.is_perfectly_clustering(w):
                pool.append(w)
        for w in pool:
            m = gentle.band_module(gentle.psi(w), 1)
            assert gentle.is_brick(m) == words.is_perfectly_clustering(w), w
        assert [words.is_perfectly_clustering(w) for w in pool] == [True] * 4 + [False] * 4


def _up_down_walks(longest, n):
    # every band walk of at most longest steps over n vertices, once per
    # band: a b-step climbs from vertex h to h + 1, an a-step descends
    found = set()
    for length in range(2, longest + 1, 2):
        for moves in itertools.product((1, -1), repeat=length):
            if sum(moves) or moves[0] < 0:
                continue
            heights = list(itertools.accumulate(moves, initial=0))
            for base in range(1 - min(heights), n - max(heights) + 1):
                trav = [(base + h) << 2 | 3 if up > 0 else (base + h - 1) << 2
                        for h, up in zip(heights, moves)]
                walk = tuple(reversed(trav))
                if gentle.validate_band_walk(walk):
                    found.add(gentle.canonical_walk(walk))
    return sorted(found, key=_walk_key)


def _end_cases(rng, length):
    # one perfectly clustering word and one random primitive word
    pool = [perfectly_clustering_word(rng, length)]
    while len(pool) < 2:
        w = tuple(rng.choice((2, 3, 4, 5)) for _ in range(length))
        if words.is_primitive(w):
            pool.append(w)
    return pool


@pytest.fixture
def sorted_steps(monkeypatch):
    # the steps of the first module of each hom_orthogonal call, in call
    # order; is_brick sorts its one module
    steps = []
    sort = gentle.hom_orthogonal
    monkeypatch.setattr(
        gentle, "hom_orthogonal", lambda ms: steps.append(len(ms[0].codes)) or sort(ms)
    )
    return steps


class TestBrickTestAgainstEnd:
    # up to gentle._SCAN_STEPS steps over at most 64 vertices is_brick
    # stops at the first graph map past the identity, and otherwise it
    # reads hom_orthogonal's diagonal; the full count of End is the
    # reference

    def _check(self, m):
        assert gentle.is_brick(m) == (gentle.hom_dim(m, m) == 1), m.walk

    def test_every_short_word(self):
        for length in range(1, 7):
            for w in itertools.product((2, 3, 4, 5), repeat=length):
                if words.is_primitive(w):
                    walk = gentle.psi(w, 5)
                    for lam in (1, 2, 3):
                        self._check(gentle.band_module(walk, lam, 5))

    def test_every_short_walk(self):
        # a band walk climbs by its b-steps and descends by its a-steps, so
        # these are the closed up-down paths; unlike psi walks and slalom
        # components, some have a top and a bottom at one vertex
        shared = 0
        for walk in _up_down_walks(12, 5):
            m = gentle.band_module(walk, 1)
            turns = set(_reference_turns(m.codes))
            shared += any((v, -1) in turns for v, t in turns if t > 0)
            self._check(m)
        assert shared

    @pytest.mark.parametrize("n, box", [(5, 2), (4, 3), (3, 6), (6, 2)])
    def test_enumerated_bricks(self, n, box):
        modules = forms._enumerate_brick_gvectors(n, box)
        assert modules
        for m in modules.values():
            self._check(m)

    def test_seeded_long_words(self):
        rng = random.Random(21)
        pool = [w for length in (40, 150, 400, 1000) for w in _end_cases(rng, length)]
        assert [words.is_perfectly_clustering(w) for w in pool] == [True, False] * 4
        for w in pool:
            self._check(gentle.band_module(gentle.psi(w), 1))

    def test_walks_past_64_vertices_sort(self, sorted_steps):
        # codes from 256 on do not fit a byte, so is_brick sorts these short
        # walks: every short up-down walk, 64 vertices higher
        steps, answers = [], set()
        for walk in _up_down_walks(12, 5):
            m = gentle.band_module(tuple(c + (64 << 2) for c in walk), 1)
            assert min(m.codes) >= 256 and len(m.codes) <= gentle._SCAN_STEPS
            brick = gentle.is_brick(m)
            assert brick == (_scan_hom_dim(m, m) == 1), m.walk
            steps.append(len(m.codes))
            answers.add(brick)
        assert sorted_steps == steps and answers == {True, False}

    def test_the_scan_ends_at_64_vertices(self, sorted_steps):
        # every code of 64 vertices is below 4 * 64 = 256, so short walks up
        # to index 63 scan at n = 64 and sort at n = 65, with one answer
        answers = collections.Counter()
        for walk in _up_down_walks(10, 5):
            top = tuple(c + (59 << 2) for c in walk)
            scanned, sorted_ = (gentle.band_module(top, 1, n) for n in (64, 65))
            assert max(scanned.codes) < 256
            brick = gentle.is_brick(scanned)
            assert not sorted_steps, scanned.walk
            assert gentle.is_brick(sorted_) == brick == (_scan_hom_dim(scanned, scanned) == 1)
            assert sorted_steps.pop() == len(top)
            answers[brick] += 1
        assert min(answers.values()) >= 10, answers

    def test_a_proper_power_reads_as_its_root(self):
        # band_module refuses a proper power, so its codes are passed in
        # directly.  A reading's last letter is the step before its start,
        # an inverse for a source start and an arrow for a target start, so
        # two readings differ even where the walk repeats: the scan of a
        # walk twice over decides each pair as on the walk once.  Bricks
        # and non-bricks
        answers = collections.Counter()
        for walk in _up_down_walks(10, 4):
            codes = gentle.band_module(walk, 1).codes
            first = gentle._first_endomorphism(codes)
            assert gentle._first_endomorphism(codes * 2) == first, walk
            answers[first is None] += 1
        assert min(answers.values()) >= 10, answers

    def test_scan_and_sort_agree_across_the_crossover(self):
        # bricks and non-bricks from psi, and n = 3 components, which are
        # all bricks, from well below the crossover to well above it.  A psi
        # word over 2..5 has about 5 steps per letter, so the words run from
        # a quarter of the cut to about twice it.  The component of
        # (-a-b, a, b) has 2 a + 4 b steps, 0 < b < a: all below the cut at
        # a = cut / 8, and all past it as a nears 7 cut / 12
        cut = gentle._SCAN_STEPS
        rng = random.Random(cut)
        pool = []
        letters = cut // 5
        for length in range(letters // 4, 2 * letters, letters // 6):
            pool += _end_cases(rng, length)
        modules = [gentle.band_module(gentle.psi(w), lam) for w in pool for lam in (1, 2)]
        for a in range(cut // 8, cut * 7 // 12, 7):
            b = rng.randrange(1, a)
            if math.gcd(a, b) == 1:
                modules.append(forms._component_module((-a - b, a, b)))
        kinds = collections.Counter()
        for m in modules:
            scan = gentle._first_endomorphism(m.codes) is None
            sort = bool(gentle.hom_orthogonal([m])[0] & 1)
            assert scan == sort == gentle.is_brick(m), m.walk
            self._check(m)
            kinds[scan, len(m.codes) > cut] += 1
        assert len(kinds) == 4 and min(kinds.values()) >= 4, kinds

    def test_short_walks_never_sort(self, sorted_steps):
        # brick-sweep's words, of 6-12 letters over 2..3 and 2..4, give
        # walks far below the crossover, where the sort's fixed cost would
        # dominate; from the crossover on, one sort per test
        rng = random.Random(6)
        for letters, length in [((2, 3), 12), ((2, 3, 4), 8)]:
            for _ in range(200):
                w = tuple(rng.choice(letters) for _ in range(length))
                if words.is_primitive(w):
                    m = gentle.band_module(gentle.psi(w, max(letters)), 3, max(letters))
                    assert gentle.is_brick(m) == words.is_perfectly_clustering(w)
        assert sorted_steps == []
        # j twos and k threes make a walk of 2 j + 4 k steps
        cut = gentle._SCAN_STEPS
        j = 2 - cut // 2 % 2
        at_cut = gentle.psi((2,) * j + (3,) * ((cut - 2 * j) // 4))
        past_cut = gentle.psi((2,) + (3,) * (cut // 4 + 1))
        assert len(at_cut) == cut < len(past_cut)
        for walk in (at_cut, past_cut):
            gentle.is_brick(gentle.band_module(walk, 1))
        assert sorted_steps == [len(past_cut)]

    @pytest.mark.parametrize("length", [1000, 3000, 10_000])
    def test_random_long_words_stop_early(self, length):
        # the full End count of these took 0.22 s, 1.9 s and 21.7 s; walks
        # this long are sorted, which took 0.01-0.13 s
        rng = random.Random(length)
        w = tuple(rng.choice((2, 3, 4, 5)) for _ in range(length))
        assert words.is_primitive(w) and not words.is_perfectly_clustering(w)
        m = gentle.band_module(gentle.psi(w), 1)
        start = time.perf_counter()
        assert not gentle.is_brick(m)
        assert time.perf_counter() - start < 0.5


class TestHomOrthogonal:
    # the joint rotation sort of many walks against the table count both
    # ways, and hom_dim with it, on modules of distinct bands, bricks or
    # not: off the diagonal no morphism, on it End of dimension 1

    def _check(self, modules):
        masks = gentle.hom_orthogonal(modules)
        assert len(masks) == len(modules)
        for (i, x), (j, y) in itertools.product(enumerate(modules), repeat=2):
            hom = _table_hom_dim(x, y)
            assert gentle.hom_dim(x, y) == hom, (x.walk, y.walk)
            want = hom == _table_hom_dim(y, x) == (1 if i == j else 0)
            assert bool(masks[i] >> j & 1) == want, (x.walk, y.walk)
        return masks

    def test_seeded_words(self):
        rng = random.Random(31)
        bands = {}
        while len(bands) < 60:
            w = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 8)))
            if words.is_primitive(w):
                m = gentle.band_module(gentle.psi(w, 6), 1, 6)
                bands.setdefault(m.walk, m)
        modules = list(bands.values())
        assert len({len(m.codes) for m in modules}) > 10
        bricks = [_table_hom_dim(m, m) == 1 for m in modules]
        assert any(bricks) and not all(bricks)
        masks = self._check(modules)
        assert any(mask & ~(1 << i) for i, mask in enumerate(masks))

    def test_a_top_over_a_bottom_alone(self):
        # psi(4) has a top at vertex 4, where a4 b4- has a bottom, and the
        # two walks share no step: that top over that bottom is the one map,
        # a common walk of no steps
        x = gentle.band_module(gentle.psi((4,), 5), 1, 5)
        y = gentle.band_module(gentle.walk_from_str("a4 b4-"), 1, 5)
        assert [d for _, _, d in _scan_graph_maps(x.codes, y.codes)] == [0]
        assert not list(_scan_graph_maps(y.codes, x.codes))
        assert (gentle.hom_dim(x, y), gentle.hom_dim(y, x)) == (1, 0)
        assert self._check([x, y]) == [0b01, 0b10]  # two bricks

    def test_long_walks(self):
        # two random words of unequal lengths, and the mirror of one of
        # them, which lives on vertices the other two never reach
        rng = random.Random(500)
        w1, w2 = (tuple(rng.randint(2, 6) for _ in range(k)) for k in (130, 170))
        x, y = (gentle.band_module(gentle.psi(w, 12), 1, 12) for w in (w1, w2))
        far = gentle.band_module(gentle.mirror_walk(gentle.psi(w2, 12), 12), 1, 12)
        assert min(len(m.codes) for m in (x, y, far)) >= 500
        assert self._check([x, y, far]) == [0b100, 0b100, 0b011]  # no brick

    def test_one_longest_walk(self):
        # a 2 followed by forty 3s runs along psi(3)'s cycle for 160 steps;
        # the sort reads 174, its 162 steps and the 12 of psi(2, 4, 3)
        long = gentle.psi((2,) + (3,) * 40, 4)
        short = [(3,), (2, 3), (2, 2, 3), (4,), (3, 4), (2, 4, 3)]
        modules = [gentle.band_module(w, 1, 4) for w in [long, *map(gentle.psi, short)]]
        lengths = sorted(len(m.codes) for m in modules)
        assert lengths[-2:] == [12, 162]
        masks = self._check(modules)
        assert masks[0] & 1 and masks[0] != (1 << len(modules)) - 1

    def test_one_band(self):
        # members of one family at equal and at distinct parameters, a
        # rotation and an inverse: the graph maps between two of them are
        # those of either one with itself, so every bit is the brick bit.
        # Their positions read equal forever in pairs; a walk of at most 32
        # steps fits twice in one byte key, so the keys alone decide, and
        # past that the keys tie and the doubling breaks ties by position.
        # Half the words are perfectly clustering, so about half the bands
        # are bricks
        rng = random.Random(43)
        found = collections.Counter()
        for t in range(300):
            if t % 2:
                w = perfectly_clustering_word(rng, rng.randint(6, 60))
            else:
                w = (2, 2)
                while not words.is_primitive(w):
                    w = tuple(rng.randint(2, 5) for _ in range(rng.randint(3, 60)))
            walk = gentle.psi(w, 5)
            k = rng.randrange(len(walk))
            x = gentle.band_module(walk, 1, 5)
            modules = [x, x.replace(lam=Fraction(2)), gentle.band_module(walk[k:] + walk[:k], 1, 5),
                       gentle.band_module(_inverse(walk[k:] + walk[:k]), rng.choice((1, 2)), 5)]
            masks = gentle.hom_orthogonal(modules)
            for (i, m), (j, y) in itertools.product(enumerate(modules), repeat=2):
                none = not any(_scan_graph_maps(m.codes, y.codes)) and not any(
                    _scan_graph_maps(y.codes, m.codes)
                )
                assert bool(masks[i] >> j & 1) == none, (w, i, j)
            assert masks in ([0] * 4, [0b1111] * 4), w
            found[len(walk) > 32, masks[0] == 0] += 1
        assert len(found) == 4 and min(found.values()) > 5, found

    def test_no_modules(self):
        assert gentle.hom_orthogonal([]) == []


class TestHomCountSweep:
    # hom_dim and band_hom count both ways in one joint sort; the pairwise
    # scan _scan_hom_dim is the reference, both ways, on every pair

    def _check(self, x, y):
        want = (_scan_hom_dim(x, y), _scan_hom_dim(y, x))
        assert gentle._hom_pair(x, y) == want, (x.codes, y.codes)
        assert (gentle.hom_dim(x, y), gentle.hom_dim(y, x)) == want
        return want

    def test_seeded_pairs(self):
        rng = random.Random(40)
        walks = _seeded_walks(rng, 150)
        counts = collections.Counter()
        for _ in range(1500):
            w1, w2 = rng.sample(walks, 2)
            x = gentle.band_module(w1, rng.choice((1, 2)), 5)
            y = gentle.band_module(w2, rng.choice((1, 2)), 5)
            for hom in self._check(x, y):
                counts[min(hom, 3)] += 1
        assert min(counts.values()) > 50, counts

    def test_one_band_at_two_parameters(self):
        # a module against itself, against a second member of its family,
        # and against another rotation or the inverse at both parameters:
        # the cycle adds 1 both ways exactly when the parameters agree
        rng = random.Random(41)
        for walk in _seeded_walks(rng, 80):
            k = rng.randrange(len(walk))
            other = walk[k:] + walk[:k]
            x = gentle.band_module(walk, 1, 5)
            assert self._check(x, x) == (_scan_hom_dim(x, x),) * 2
            for w in (walk, other, _inverse(other)):
                same, apart = (gentle.band_module(w, mu, 5) for mu in (1, 2))
                hom, hom_apart = self._check(x, same), self._check(x, apart)
                assert hom == (hom_apart[0] + 1, hom_apart[1] + 1), walk

    def test_long_duality_pairs(self):
        # the duality pairs of 10^3-10^4 steps and their mirrors
        n = TestDuality.N
        for x, y, mu in _long_duality_pairs(n):
            assert 1000 <= min(len(x), len(y)) and max(len(x), len(y)) <= 10_000
            for w1, w2 in ((x, y), (gentle.mirror_walk(y, n), gentle.mirror_walk(x, n))):
                self._check(gentle.band_module(w1, 1, n), gentle.band_module(w2, mu, n))

    def test_nearly_periodic_pairs(self):
        # 2 followed by k fives against itself and against 3 followed by
        # k - 1 fives, the shape of the band hom pins, small enough to scan,
        # and against words that share long runs of fives with it
        def module(w):
            return gentle.band_module(gentle.psi(w, 5), 1, 5)

        found = collections.Counter()
        for k in (1, 2, 7, 40):
            x = module((2,) + (5,) * k)
            others = [(3,) + (5,) * (k - 1), (2, 2) + (5,) * k, (3, 3) + (5,) * k,
                      (2,) + (5,) * (k // 2) + (2,) + (5,) * (k - k // 2 + 1), (2,) + (5,) * 7, (5,)]
            found[self._check(x, x.replace(lam=Fraction(2)))] += 1
            for w in others:
                found[min(self._check(x, module(w)))] += 1
                found["maps"] += sum(self._check(x, module(w)))
        assert found[(0, 0)] == 4 and found["maps"] > 100, found

    def test_band_hom_sorts_once(self):
        # both directions of band_hom come from one joint sort, and no
        # hom_dim call
        z1, z2 = gentle.psi((2, 3, 3, 4)), gentle.psi((2, 4, 3))
        with mock.patch.object(gentle, "_rotation_order", wraps=gentle._rotation_order) as sort, \
                mock.patch.object(gentle, "hom_dim", wraps=gentle.hom_dim) as hom:
            homs = forms.band_hom(z1, z2, 5, 1, None)
        assert sort.call_count == 1 and hom.call_count == 0
        x, y = gentle.band_module(z1, 1, 5), gentle.band_module(z2, 1, 5)
        assert homs[:2] == (_scan_hom_dim(x, y), _scan_hom_dim(y, x))


class TestFamilyMembers:
    # a member made by BandModule.replace is the module a fresh build at
    # its parameter gives, down to its codes

    def test_members_equal_fresh_builds(self):
        walk = gentle.psi((2, 3, 2, 3, 3), 4)
        module = gentle.band_module(walk, 1, 4)
        for lam in (1, 2, 3, Fraction(1, 2), -1):
            member = module.replace(lam=Fraction(lam))
            fresh = gentle.band_module(walk, lam, 4)
            assert member == fresh and member.lam == Fraction(lam)
            assert (member.dims, member.codes) == (fresh.dims, fresh.codes)
            assert member.g_vector() == fresh.g_vector()
            assert dict(member.matrices()) == dict(fresh.matrices())
            assert gentle.is_brick(member) == gentle.is_brick(fresh)
            assert gentle.hom_dim(member, fresh) == gentle.hom_dim(module, module)


class TestGVector:
    def test_minimal(self):
        assert gentle.g_vector_of_band(gentle.psi((2,))) == (-1, 1)

    def test_golden(self):
        assert gentle.g_vector_of_band(gentle.psi((2, 3, 2, 2, 3))) == (-5, 3, 2)

    def test_mixed_sign_walk(self):
        walk = gentle.walk_from_str("a1 a2 b2- a2 b2- b1-")
        assert gentle.g_vector_of_band(walk) == (-1, -1, 2)

    @given(primitive_words)
    @settings(max_examples=60, deadline=None)
    def test_psi_gvector_counts_letters(self, w):
        n = max(w)
        expected = (-len(w),) + tuple(w.count(i) for i in range(2, n + 1))
        assert gentle.g_vector_of_band(gentle.psi(w)) == expected


def _necklace_walks(n):
    # psi of one primitive word of at most 4 letters over 2..5 per
    # conjugacy class; a rotated word gives a rotated walk, so the same module
    necklaces = {
        words.necklace(w)
        for length in range(1, 5)
        for w in itertools.product((2, 3, 4, 5), repeat=length)
        if words.is_primitive(w)
    }
    return [gentle.psi(w, n) for w in sorted(necklaces)]


def _long_duality_pairs(n):
    # psi of three seeded pairs of 200-800 letters over 2..5, walks of
    # 10^3-10^4 steps, and one band against a second member of its family,
    # as (x, y, parameter of y)
    rng = random.Random(25)
    pairs = []
    while len(pairs) < 3:
        a, b = (tuple(rng.choice((2, 3, 4, 5)) for _ in range(rng.randint(200, 800)))
                for _ in range(2))
        if words.is_primitive(a) and words.is_primitive(b):
            pairs.append((gentle.psi(a, n), gentle.psi(b, n), 1))
    x = pairs[0][0]
    pairs.append((x, x, 2))
    return pairs


class TestDuality:
    # the mirror k -> n - k identifies the double-line algebra with its
    # opposite, so M(tau x) is the dual of M(x): Hom(M(x, lam), M(y, mu))
    # = Hom(M(tau y, mu), M(tau x, lam)) and g(M(tau x)) = sigma(g(M(x)))
    N = 6

    def test_involution_and_gvector(self):
        for x in _necklace_walks(self.N):
            tx = gentle.mirror_walk(x, self.N)
            assert gentle.validate_band_walk(tx, self.N)
            assert gentle.mirror_walk(tx, self.N) == x
            assert gentle.g_vector_of_band(tx, self.N) == _sigma(
                gentle.g_vector_of_band(x, self.N)
            )

    def test_hom_on_small_walks(self):
        walks = _necklace_walks(self.N)
        assert len(walks) == 90
        modules = {}
        for x in walks:
            for lam in (1, 2):
                modules[x, lam] = gentle.band_module(x, lam, self.N)
                modules[x, -lam] = gentle.band_module(gentle.mirror_walk(x, self.N), lam, self.N)
        nonzero = 0
        for x, y in itertools.product(walks, repeat=2):
            for lam, mu in ((1, 1), (1, 2)):
                hom = gentle.hom_dim(modules[x, lam], modules[y, mu])
                assert hom == gentle.hom_dim(modules[y, -mu], modules[x, -lam]), (x, y, mu)
                nonzero += hom > 0
        assert nonzero > 1000

    def test_hom_on_long_walks(self):
        for x, y, mu in _long_duality_pairs(self.N):
            tx, ty = gentle.mirror_walk(x, self.N), gentle.mirror_walk(y, self.N)
            mx, my = gentle.band_module(x, 1, self.N), gentle.band_module(y, mu, self.N)
            dx, dy = gentle.band_module(tx, 1, self.N), gentle.band_module(ty, mu, self.N)
            assert gentle.hom_dim(mx, my) == gentle.hom_dim(dy, dx)
            assert gentle.hom_dim(my, mx) == gentle.hom_dim(dx, dy)
            assert dx.g_vector() == _sigma(mx.g_vector())

    @pytest.mark.parametrize("n, box", [(4, 3), (5, 2), (6, 2)])
    def test_bricks_closed_under_sigma(self, n, box):
        # the Dyck trace on every valid g-vector of the box, not the search's
        # enumeration, which builds mirrors instead of tracing them
        bricks = [
            g for g in itertools.product(range(-box, box + 1), repeat=n)
            if dyck.validate_gvector(g) and forms.is_brick_gvector(g)
        ]
        assert len(bricks) > 10
        for g in bricks:
            assert forms.is_brick_gvector(_sigma(g)), g
            module = forms._brick_module(g)
            mirror = gentle.band_module(gentle.mirror_walk(module.walk, n), 1, n)
            assert mirror == forms._brick_module(_sigma(g)), g


class TestSlalom:
    def test_single_component_walk(self):
        (component,) = dyck.reconstruct_multislalom((-1, -1, 2))
        walk = gentle.slalom_to_band_walk(component)
        assert gentle.canonical_walk(walk) == gentle.walk_from_str(
            "a1 a2 b2- a2 b2- b1-"
        )

    def test_minimal_component_is_psi_2(self):
        (component,) = dyck.reconstruct_multislalom((-1, 1))
        walk = gentle.slalom_to_band_walk(component)
        assert gentle.canonical_walk(walk) == gentle.canonical_walk(gentle.psi((2,)))

    def test_step_bound(self, monkeypatch):
        # sum |word[k] - word[k-1]| steps over the cyclic word, which zero
        # entries widen at no Dyck cost: 466 Dyck steps give 280,354 walk
        # steps, refused before any is built
        start = time.perf_counter()
        with pytest.raises(WalkTooLarge, match="^280354 walk steps"):
            forms.is_brick_gvector((-233,) + (0,) * 600 + (89, 144))
        assert time.perf_counter() - start < 1
        (component,) = dyck.reconstruct_multislalom((-1, -1, 2))  # 6 steps
        monkeypatch.setattr(gentle, "MAX_WALK_STEPS", 6)
        assert len(gentle.slalom_to_band_walk(component)) == 6
        monkeypatch.setattr(gentle, "MAX_WALK_STEPS", 5)
        with pytest.raises(WalkTooLarge, match="^6 walk steps"):
            gentle.slalom_to_band_walk(component)

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=4)
        .map(lambda h: tuple(h) + (-sum(h),))
        .filter(
            lambda g: len(g) >= 2
            and sum(map(abs, g)) <= 14
            and all(sum(g[: k + 1]) <= 0 for k in range(len(g) - 1))
            and any(g)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_component_walks_validate_and_sum(self, g):
        total = [0] * len(g)
        for comp in dyck.reconstruct_multislalom(g):
            walk = gentle.slalom_to_band_walk(comp)
            assert gentle.validate_band_walk(walk, len(g))
            gv = gentle.g_vector_of_band(walk, len(g))
            total = [a + b for a, b in zip(total, gv)]
        assert tuple(total) == g


# The generator forms of the walk builders, kept as references for the
# range forms: one generator per letter cycle and per slalom segment.
def _ref_letter_cycle(i):
    return tuple(k << 2 for k in range(1, i)) + tuple(k << 2 | 3 for k in range(i - 1, 0, -1))


def _ref_psi(word):
    return tuple(itertools.chain.from_iterable(map(_ref_letter_cycle, word)))


def _ref_slalom_walk(component):
    word = component.word
    trav = []
    for k, end in enumerate(word):
        start = word[k - 1]
        if k % 2 == 0:
            trav.extend(i << 2 | 3 for i in range(start, end))
        else:
            trav.extend(i << 2 for i in range(start - 1, end - 1, -1))
    return tuple(reversed(trav))


class TestBuildersAgainstGenerators:
    def test_letter_cycle(self):
        for i in range(2, 301):
            assert gentle.letter_cycle(i) == _ref_letter_cycle(i), i

    def test_psi_short_primitive_words(self):
        checked = 0
        for length in range(1, 7):
            for w in itertools.product((2, 3, 4, 5), repeat=length):
                if words.is_primitive(w):
                    expected = _ref_psi(w)
                    assert gentle.psi(w) == expected, w
                    assert gentle.psi(w, n=6) == expected, w
                    checked += 1
        assert checked > 5000

    def test_psi_seeded_long_words(self):
        rng = random.Random(19)
        for _ in range(4):
            w = tuple(rng.choice((2, 3, 4, 5)) for _ in range(10**4))
            expected = _ref_psi(w)
            assert gentle.psi(w) == expected
            assert gentle.psi(w, n=7) == expected

    def test_slalom_walks_of_small_gvectors(self):
        single = 0
        for n in range(2, 6):
            for g in itertools.product(range(-3, 4), repeat=n):
                if dyck.validate_gvector(g):
                    component = dyck.single_component(g)
                    if component is not None:
                        assert gentle.slalom_to_band_walk(component) == _ref_slalom_walk(
                            component
                        ), g
                        single += 1
        assert single > 100

    def test_slalom_walk_of_the_largest_suite_input(self):
        component = dyck.single_component((-6765, 2584, 4181))
        assert gentle.slalom_to_band_walk(component) == _ref_slalom_walk(component)

    def test_lambda_kept_as_given(self):
        walk = gentle.psi((2, 3))
        for lam in (Fraction(3, 2), 1):
            m = gentle.band_module(walk, lam)
            assert m.lam == lam and type(m.lam) is Fraction
        with pytest.raises(ZeroLambda):
            gentle.band_module(walk, Fraction(0))
