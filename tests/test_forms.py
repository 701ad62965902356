"""Euler form, brick g-vectors, compatibility, and the clique search."""

import itertools
import math
import random
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandbrick import dyck, forms, gentle
from bandbrick.errors import (
    AllZero,
    BadDimension,
    DimensionMismatch,
    GVectorTooLarge,
    InternalInconsistency,
    InvalidWalk,
    NotABrick,
    SearchTooLarge,
)

from _helpers import _sigma
from _reference import _scan_hom_dim


int_vectors = st.lists(st.integers(-6, 6), min_size=2, max_size=5).map(tuple)
hyperplane_vectors = (
    st.lists(st.integers(-6, 6), min_size=1, max_size=4)
    .map(lambda h: tuple(h) + (-sum(h),))
)


def _euler_by_definition(x, y):
    # sum(x_i y_i) + 2 sum_{i<j} x_i y_j, term by term
    n = len(x)
    return sum(x[i] * y[i] for i in range(n)) + 2 * sum(
        x[i] * y[j] for i in range(n) for j in range(i + 1, n)
    )


class TestEulerForm:
    def test_definition(self):
        # sum of squares plus twice the upper cross terms
        assert forms.euler_form((1, 2), (3, 4)) == 3 + 8 + 2 * 4

    def test_seeded_vectors_against_definition(self):
        # any entries, so most pairs do not sum to zero
        rng = random.Random(17)
        off_hyperplane = 0
        for _ in range(500):
            n = rng.randint(1, 9)
            x = tuple(rng.randint(-9, 9) for _ in range(n))
            y = tuple(rng.randint(-9, 9) for _ in range(n))
            off_hyperplane += sum(x) != 0 or sum(y) != 0
            assert forms.euler_form(x, y) == _euler_by_definition(x, y), (x, y)
        assert off_hyperplane > 400
        assert forms.euler_form((), ()) == 0

    def test_mismatched_lengths(self):
        with pytest.raises(DimensionMismatch):
            forms.euler_form((1, 2), (1, 2, 3))

    @given(int_vectors, int_vectors, int_vectors)
    @settings(max_examples=60, deadline=None)
    def test_bilinear(self, x, y, z):
        n = min(len(x), len(y), len(z))
        x, y, z = x[:n], y[:n], z[:n]
        xy = tuple(a + b for a, b in zip(x, y))
        assert forms.euler_form(xy, z) == forms.euler_form(x, z) + forms.euler_form(y, z)

    @given(hyperplane_vectors, hyperplane_vectors)
    @settings(max_examples=60, deadline=None)
    def test_skew_on_hyperplane(self, x, y):
        if len(x) != len(y):
            return
        assert forms.euler_form(x, y) == -forms.euler_form(y, x)


class TestEulerRows:
    @pytest.mark.parametrize("n, box", [(5, 2), (4, 3)])
    def test_rows_give_the_form(self, n, box):
        bricks = list(forms._enumerate_brick_gvectors(n, box))
        for g1 in bricks:
            row = forms._euler_row(g1)
            for g2 in bricks:
                assert sum(a * b for a, b in zip(row, g2)) == _euler_by_definition(g1, g2)


class TestBrickGVectors:
    def test_named_vectors(self):
        assert forms.is_brick_gvector_n4((-2, -1, -3, 6))
        assert forms.is_brick_gvector_n4((-2, -3, 1, 4))
        assert forms.is_brick_gvector_n4((-4, 3, -2, 3))
        assert forms.is_brick_gvector_n4((-1, 1, 0, 0))
        assert forms.is_brick_gvector_n4((0, 0, -1, 1))

    def test_non_brick(self):
        # two components
        assert not forms.is_brick_gvector_n4((-2, 0, 0, 2))
        assert not forms.is_brick_gvector((-2, 0, 0, 2))

    def test_n4_needs_four_entries(self):
        with pytest.raises(BadDimension):
            forms.is_brick_gvector_n4((-1, 1))

    def test_closed_form_matches_module_test(self):
        for g in [(-2, -1, -3, 6), (-2, -3, 1, 4), (-4, 3, -2, 3), (-2, 0, 0, 2)]:
            assert forms.is_brick_gvector_n4(g) == forms.is_brick_gvector(g)

    def test_step_bound(self):
        half = dyck.MAX_STEPS // 2 + 1
        big = (-half, 1, half - 1)
        for test in (forms.is_brick_gvector, lambda g: forms.compatible(g, (-1, 0, 1))):
            with pytest.raises(GVectorTooLarge):
                test(big)
        # the closed form builds no diagram
        assert forms.is_brick_gvector_n4((-half, 1, 0, half - 1))

    def test_one_end_count_per_brick(self):
        # one module per brick, so its End is checked once, by the brick
        # test alone, with no Hom count beside it
        with mock.patch.object(gentle, "is_brick", wraps=gentle.is_brick) as count, \
                mock.patch.object(gentle, "hom_dim", wraps=gentle.hom_dim) as hom:
            assert forms.is_brick_gvector((-21, 8, 13))
        assert count.call_count == 1
        assert hom.call_count == 0

    def test_christoffel_slopes(self):
        for a in range(7):
            for b in range(7):
                if (a, b) == (0, 0):
                    continue
                expected = math.gcd(a, b) == 1
                assert forms.is_brick_gvector((-a - b, a, b)) == expected

    def test_a_long_fibonacci_slope(self):
        # one component of 21,892 steps, so the brick test sorts
        start = time.perf_counter()
        assert forms.is_brick_gvector((-6765, 2584, 4181))
        assert time.perf_counter() - start < 1

    def test_christoffel_determinant(self):
        for a, b, c, d in [(1, 0, 0, 1), (2, 3, 1, 1), (5, 2, 3, 4)]:
            x = (-a - b, a, b)
            y = (-c - d, c, d)
            assert forms.euler_form(x, y) == a * d - b * c


class TestCompatibility:
    def test_witness_pair_rejected(self):
        x = (-1, -2, -2, 5)
        y = (-3, 0, -4, 7)
        assert forms.euler_form(x, y) == 0
        assert forms.euler_form(y, x) == 0
        assert not forms.compatible(x, y)

    def test_self_compatible(self):
        assert forms.compatible((-1, 1), (-1, 1))
        assert forms.compatible((-2, -1, -3, 6), (-2, -1, -3, 6))

    def test_self_compatibility_is_the_end_check(self):
        # one sort of the one module checks End; no second member is built
        # or compared, and no Hom is counted
        g = (-2, -1, -3, 6)
        with mock.patch.object(gentle, "hom_orthogonal", wraps=gentle.hom_orthogonal) as sort, \
                mock.patch.object(gentle, "is_brick", wraps=gentle.is_brick) as end, \
                mock.patch.object(gentle, "hom_dim", wraps=gentle.hom_dim) as hom, \
                mock.patch.object(gentle, "band_module", wraps=gentle.band_module) as build:
            assert forms.compatible(g, g)
        assert [len(c.args[0]) for c in sort.call_args_list] == [1]
        assert end.call_count == hom.call_count == 0
        assert build.call_count == 1

    def test_a_pair_is_one_sort(self):
        # both modules built once and sorted together, with no Euler
        # prefilter: a pair of non-zero form is sorted too
        for x, y, want in [
            ((-2, 1, 0, 0, 1), (-2, 0, 1, 1, 0), True), ((-1, 1, 0), (0, -1, 1), False)
        ]:
            with mock.patch.object(gentle, "hom_orthogonal", wraps=gentle.hom_orthogonal) as sort, \
                    mock.patch.object(gentle, "hom_dim", wraps=gentle.hom_dim) as hom, \
                    mock.patch.object(gentle, "band_module", wraps=gentle.band_module) as build:
                assert forms.compatible(x, y) == want
            assert [len(c.args[0]) for c in sort.call_args_list] == [2]
            assert hom.call_count == 0
            assert build.call_count == 2

    @pytest.mark.parametrize("g1, g2, bad", [
        ((-1, 1, 0), (0, -1, 1), (-1, 1, 0)),
        ((-1, 1, 0), (0, -1, 1), (0, -1, 1)),
        ((-1, 1, 0), (-1, 1, 0), (-1, 1, 0)),
    ])
    def test_a_zero_diagonal_bit_raises(self, g1, g2, bad):
        # a module the sort does not find a brick breaks the correspondence
        sort = gentle.hom_orthogonal

        def planted(modules):
            adj = sort(modules)
            i = (g1, g2).index(bad)
            return [row & ~(1 << i) if k == i else row for k, row in enumerate(adj)]

        message = rf"^single component of {re.escape(str(bad))} is not a brick$"
        with mock.patch.object(gentle, "hom_orthogonal", planted), \
                pytest.raises(InternalInconsistency, match=message):
            forms.compatible(g1, g2)

    def test_witness_family_pairwise(self):
        fam = forms.witness_family(5)
        assert fam == ((-2, 1, 0, 0, 1), (-2, 0, 1, 1, 0))
        for i, g in enumerate(fam):
            for h in fam[i:]:
                assert forms.compatible(g, h)

    def test_even_n_extra_member(self):
        fam = forms.witness_family(4)
        assert set(fam) == {(-2, 1, 0, 1), (-1, 0, 1, 0)}

    @pytest.mark.parametrize("n", [0, 1, -2])
    def test_witness_family_needs_two_entries(self, n):
        with pytest.raises(BadDimension, match=f"^a g-vector needs at least 2 entries, got n = {n}$"):
            forms.witness_family(n)

    def test_requires_bricks(self):
        with pytest.raises(NotABrick):
            forms.compatible((-2, 0, 2), (-1, 1, 0))

    def test_lengths_must_match(self):
        with pytest.raises(DimensionMismatch, match="^lengths differ: 2 != 3$"):
            forms.compatible((-1, 1), (-1, 0, 1))

    def test_hom_difference_on_shared_walks(self):
        z1 = gentle.psi((2,), n=3)
        z2 = gentle.psi((2, 3))
        assert forms.hom_difference_check(z1, z2)
        assert forms.hom_difference_check(z1, z1)


class TestBandHom:
    def test_empty_walk_is_invalid(self):
        for z1, z2 in [((), ()), ((), gentle.psi((2,))), (gentle.psi((2,)), ())]:
            with pytest.raises(InvalidWalk):
                forms.hom_difference_check(z1, z2)

    def test_invalid_walk_rejected(self):
        with pytest.raises(InvalidWalk):
            forms.hom_difference_check(gentle.psi((2,)), gentle.walk_from_str("a1 a1-"))

    def test_one_build_per_walk(self):
        # each walk is validated once, inside its band_module build, which
        # does not rotate it.  The canonical walks are read only where the
        # dims agree: not for two bands of different dims, and for two
        # rotations of one band once per walk in each same-band test, that
        # of band_hom and that of the one count of Hom both ways
        z1, z2 = gentle.psi((2, 3), n=3), gentle.psi((2, 3, 3))
        for other, canon_calls in ((z2, 0), (z1[1:] + z1[:1], 4)):
            with mock.patch.object(gentle, "band_module", wraps=gentle.band_module) as build, \
                    mock.patch.object(gentle, "canonical_walk",
                                      wraps=gentle.canonical_walk) as canon, \
                    mock.patch.object(gentle, "validate_band_walk",
                                      wraps=gentle.validate_band_walk) as validate:
                assert forms.hom_difference_check(z1, other)
            assert [c.args[0] for c in build.call_args_list] == [z1, other]
            assert [c.args[0] for c in validate.call_args_list] == [z1, other]
            assert canon.call_count == canon_calls

    def test_same_band_gets_a_distinct_parameter(self):
        walk = gentle.psi((2, 3))
        assert forms.band_hom(walk, walk, None, 1, None) == (0, 0, 0)
        assert forms.band_hom(walk, walk[1:] + walk[:1], None, 1, None) == (0, 0, 0)
        assert forms.band_hom(walk, walk, None, 2, None) == (0, 0, 0)
        assert forms.band_hom(walk, walk, None, 2, Fraction(2)) == (1, 1, 0)


def _same_band(z1, z2):
    # one band: z2 is a rotation of z1 or of its inverse
    inverse = tuple(c ^ 1 for c in reversed(z1))
    return any(z2 == w[k:] + w[:k] for w in (z1, inverse) for k in range(len(w)))


def _reference_compatible(z1, z2, n):
    # both modules built again for each pair and each parameter, the second
    # moved to a distinct member of the family when both walks are one band,
    # and Hom counted by the pairwise scan, which reads no sort
    answers = set()
    for lam in (1, 2, 3):
        m1 = gentle.band_module(z1, lam, n=n)
        m2 = gentle.band_module(z2, lam + 1 if _same_band(z1, z2) else lam, n=n)
        answers.add(_scan_hom_dim(m1, m2) == 0 and _scan_hom_dim(m2, m1) == 0)
    assert len(answers) == 1
    return answers.pop()


def _compatible_against_rebuild(n, box, euler_zero):
    # every brick pair of the box on one side of the Euler test, both orders
    modules = forms._enumerate_brick_gvectors(n, box)
    bricks = sorted(modules)
    pairs = [
        (g1, g2)
        for i, g1 in enumerate(bricks)
        for g2 in bricks[i:]
        if (forms.euler_form(g1, g2) == 0) == euler_zero
    ]
    assert pairs
    answers = []
    for g1, g2 in pairs:
        want = _reference_compatible(modules[g1].walk, modules[g2].walk, n)
        assert forms.compatible(g1, g2) == forms.compatible(g2, g1) == want, (g1, g2)
        answers.append(want)
    return answers


class TestCompatibilityAgainstRebuild:
    @pytest.mark.parametrize("n, box", [(2, 2), (3, 2), (4, 2), (5, 2), (4, 3)])
    def test_euler_zero_pairs(self, n, box):
        _compatible_against_rebuild(n, box, euler_zero=True)

    @pytest.mark.parametrize("n, box", [(3, 2), (4, 2), (5, 2), (4, 3)])
    def test_euler_nonzero_pairs(self, n, box):
        # a non-zero Euler form forces a morphism, so no such pair is compatible
        assert not any(_compatible_against_rebuild(n, box, euler_zero=False))


class TestFamilies:
    # the compatible-family search holds one module per brick

    def test_search_builds_each_brick_once(self):
        # and counts no Hom: the graph comes from one joint rotation sort,
        # whose diagonal is the End check of every brick it reads, except
        # at n = 3, which has no sort: there each brick runs is_brick once
        for n, box in ((5, 2), (3, 6)):
            with mock.patch.object(gentle, "band_module", wraps=gentle.band_module) as build, \
                    mock.patch.object(gentle, "hom_dim", wraps=gentle.hom_dim) as hom, \
                    mock.patch.object(gentle, "hom_orthogonal", wraps=gentle.hom_orthogonal) as sort, \
                    mock.patch.object(gentle, "is_brick", wraps=gentle.is_brick) as end:
                _, bricks, _ = forms._compatibility_search(n, box)
            assert build.call_count == len(bricks)
            assert hom.call_count == 0
            checked = [c.args[0] for c in end.call_args_list]
            if n == 3:
                assert sort.call_count == 0
                assert len(bricks) == 25
                assert sorted(m.g_vector() for m in checked) == sorted(bricks)
            else:
                [((sorted_modules,), _)] = sort.call_args_list
                assert len(sorted_modules) == len(bricks)
                assert checked == []


def _reference_enumeration(n, box):
    # the enumeration before mirrors: every candidate of the box goes
    # through the Dyck trace and, when it has one component, its own build
    bricks = {}

    def extend(prefix, partial):
        if len(prefix) == n - 1:
            last = -partial
            if abs(last) <= box:
                candidate = tuple(prefix) + (last,)
                module = forms._brick_module(candidate) if any(candidate) else None
                if module is not None:
                    bricks[candidate] = module
            return
        for a in range(-box, box + 1):
            if partial + a <= 0:
                extend(prefix + [a], partial + a)

    extend([], 0)
    return bricks


_MIRROR_BOXES = (
    [(2, box) for box in range(1, 6)]
    + [(3, box) for box in range(1, 13)]
    + [(4, box) for box in range(1, 5)]
    + [(5, 2), (5, 3), (6, 2), (7, 2)]
)


class TestMirrorEnumeration:
    # the enumeration traces g <= sigma(g) only and builds the rest from
    # mirror walks

    # (8, 2) and (9, 2) lie past MAX_SEARCH_PREFIXES, which only
    # _compatibility_search reads
    @pytest.mark.parametrize("n, box", _MIRROR_BOXES + [(8, 2), (9, 2)])
    def test_matches_reference(self, n, box):
        got = forms._enumerate_brick_gvectors(n, box)
        want = _reference_enumeration(n, box)
        assert list(got) == list(want)  # same keys in the same order
        assert got == want  # and equal modules
        assert {_sigma(g) for g in got} == set(got)

    @pytest.mark.parametrize("n, box", [(5, 2), (6, 2)])
    def test_each_walk_is_validated_once(self, n, box):
        # a traced walk by slalom_to_band_walk alone, whose _BandWalk its
        # build does not check again; a mirror walk, a plain tuple, by its
        # build
        with mock.patch.object(gentle, "validate_band_walk",
                               wraps=gentle.validate_band_walk) as validate, \
                mock.patch.object(gentle, "band_module", wraps=gentle.band_module) as build:
            bricks = forms._enumerate_brick_gvectors(n, box)
        validated = [c.args[0] for c in validate.call_args_list]
        built = [c.args[0] for c in build.call_args_list]
        assert len(validated) == len(built) == len(bricks)
        assert validated == built
        traced = [w for w in built if type(w) is gentle._BandWalk]
        assert 2 * len(traced) > len(bricks) > len(traced)

    def test_the_mirror_module_is_validated(self):
        module = forms._component_module((-2, -1, -3, 6))
        with mock.patch.object(gentle, "validate_band_walk",
                               wraps=gentle.validate_band_walk) as validate:
            mirror = forms._mirror_module(module)
        [((walk, n), _)] = validate.call_args_list
        assert type(walk) is tuple and n == module.n
        assert mirror.g_vector() == _sigma(module.g_vector())

    @pytest.mark.parametrize("n, box", _MIRROR_BOXES)
    def test_adjacency_matches_all_pairs(self, n, box):
        # the graph comes from hom_orthogonal's joint sort, the reference
        # from the pairwise scan, which reads no sort
        _, _, adj = forms._compatibility_search(n, box)
        modules = list(_reference_enumeration(n, box).values())
        want = [0] * len(modules)
        for i, j in itertools.combinations(range(len(modules)), 2):
            x, y = modules[i], modules[j]
            if _scan_hom_dim(x, y) == 0 == _scan_hom_dim(y, x):
                want[i] |= 1 << j
                want[j] |= 1 << i
        assert adj == want

    @pytest.mark.parametrize("n, box, orbits", [(5, 3, 233), (6, 2, 333)])
    def test_one_hom_count_per_mirror_orbit(self, n, box, orbits):
        # the pairs of Euler form 0 fall into `orbits` mirror orbits, once
        # one Hom count each; the graph now costs none, every edge is such
        # a pair, and the mirror of an edge is an edge
        with mock.patch.object(gentle, "hom_dim", wraps=gentle.hom_dim) as hom:
            _, bricks, adj = forms._compatibility_search(n, box)
        assert hom.call_count == 0
        index = {g: i for i, g in enumerate(bricks)}
        mirror = [index[_sigma(g)] for g in bricks]
        zero_pairs = [
            (i, j)
            for i, g in enumerate(bricks)
            for j in range(i + 1, len(bricks))
            if forms.euler_form(g, bricks[j]) == 0
        ]
        orbits_found = {
            frozenset({frozenset({i, j}), frozenset({mirror[i], mirror[j]})}) for i, j in zero_pairs
        }
        assert len(orbits_found) == orbits
        edges = [(i, j) for i in range(len(bricks)) for j in range(i + 1, len(bricks)) if adj[i] >> j & 1]
        assert set(edges) <= set(zero_pairs)
        assert all(adj[mirror[i]] >> mirror[j] & 1 for i, j in edges)

    def test_mirrors_are_not_traced(self):
        # a brick g > sigma(g) is built from its mirror, with no Dyck trace
        with mock.patch.object(dyck, "single_component", wraps=dyck.single_component) as trace:
            bricks = forms._enumerate_brick_gvectors(4, 3)
        traced = {c.args[0] for c in trace.call_args_list}
        assert all(g <= _sigma(g) for g in traced)
        assert any(g > _sigma(g) for g in bricks)

    # the search reads the End check of each brick off the diagonal of its
    # sort; planted below is a module that is not a brick, psi(2, 3, 4)
    # with End of dimension 2, in place of the module one builder makes

    def test_dyck_self_check_raises(self, monkeypatch):
        # (-1, 1, 0, 0) <= its sigma, so its module is traced
        _plant_non_brick(monkeypatch, "_component_module", (-1, 1, 0, 0))
        with pytest.raises(
            InternalInconsistency, match=r"^single component of \(-1, 1, 0, 0\) is not a brick$"
        ):
            forms._compatibility_search(4, 3)

    def test_mirror_self_check_raises(self, monkeypatch):
        # (0, 0, -1, 1) > sigma(0, 0, -1, 1) = (-1, 1, 0, 0), so its module
        # is only ever built as the mirror of the traced brick (-1, 1, 0, 0)
        _plant_non_brick(monkeypatch, "_mirror_module", (0, 0, -1, 1))
        with mock.patch.object(dyck, "single_component", wraps=dyck.single_component) as trace, \
                pytest.raises(
                    InternalInconsistency, match=r"^mirror of the brick \(-1, 1, 0, 0\) is not a brick$"
                ):
            forms._compatibility_search(4, 3)
        assert (0, 0, -1, 1) not in [c.args[0] for c in trace.call_args_list]

    @pytest.mark.parametrize(
        "planted, message",
        [
            ((-1, 0, 1), r"^single component of \(-1, 0, 1\) is not a brick$"),
            ((0, -1, 1), r"^mirror of the brick \(-1, 1, 0\) is not a brick$"),
        ],
        ids=["traced", "mirrored"],
    )
    def test_self_check_at_n3_runs_is_brick(self, monkeypatch, planted, message):
        # n = 3 has no sort, so is_brick checks each brick; (0, -1, 1) is
        # only built as the mirror of (-1, 1, 0)
        check = gentle.is_brick
        monkeypatch.setattr(
            gentle, "is_brick", lambda module: module.g_vector() != planted and check(module)
        )
        with mock.patch.object(dyck, "single_component", wraps=dyck.single_component) as trace, \
                pytest.raises(InternalInconsistency, match=message):
            forms._compatibility_search(3, 1)
        assert (0, -1, 1) not in [c.args[0] for c in trace.call_args_list]


def _plant_non_brick(monkeypatch, builder, g):
    # forms.<builder> returns a module that is not a brick where it built g
    build = getattr(forms, builder)
    non_brick = gentle.band_module(gentle.psi((2, 3, 4), len(g)), 1, len(g))
    assert gentle.hom_dim(non_brick, non_brick) == 2

    def planted(*args):
        module = build(*args)
        return non_brick if module is not None and module.g_vector() == g else module

    monkeypatch.setattr(forms, builder, planted)


def _ends_in_closed_run(prefix):
    # by definition: some labels m..j, m >= 2 and j the last, have running
    # sums <= 0 summing to 0 with a non-zero entry, and a label before m
    # is non-zero
    for m in range(1, len(prefix)):
        run = prefix[m:]
        if (
            all(s <= 0 for s in itertools.accumulate(run))
            and sum(run) == 0
            and any(run)
            and any(prefix[:m])
        ):
            return True
    return False


class TestReturnToZero:
    # a prefix whose last labels close a run, a return to 0 among them, is
    # dropped from the enumeration

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closed_prefix_splits_the_diagram(self, n):
        # the steps of the run close among themselves under the matching
        # and the gluing, and a label before it has steps, so every
        # completion has a second component; a return to 0 followed by
        # non-zero entries is such a run, the labels after it
        seen = 0
        for g in itertools.product(range(-3, 4), repeat=n):
            if dyck.validate_gvector(g) and any(
                _ends_in_closed_run(g[:j]) for j in range(2, n + 1)
            ):
                seen += 1
                assert dyck.single_component(g) is None, g
        assert (seen > 0) == (n >= 4)  # n <= 3 leaves no room around the run

    def test_zero_completion_still_enumerated(self):
        # (-1, 1, 0) returns to 0 and is a brick: the prune keeps its zeros
        assert (-1, 1, 0) in forms._enumerate_brick_gvectors(3, 1)
        assert (-1, 1, 0, 0) in forms._enumerate_brick_gvectors(4, 1)

    @pytest.mark.parametrize("length", range(1, 7))
    def test_check_matches_definition(self, length):
        # the backward scan on a positive last entry; a last entry <= 0
        # closes a run only when the prefix before it already did, so the
        # enumeration checks positive entries alone
        checked = 0
        for prefix in itertools.product(range(-3, 4), repeat=length):
            if any(s > 0 for s in itertools.accumulate(prefix)):
                continue
            want = _ends_in_closed_run(prefix)
            if prefix[-1] > 0:
                checked += 1
                assert forms._closes_run(prefix) == want, prefix
            elif want:
                assert _ends_in_closed_run(prefix[:-1]), prefix
        assert (checked > 0) == (length >= 2)

    def test_fan_search_traces(self):
        # the six fan-search boxes trace 354 candidates for their 476 bricks
        boxes = ((3, 6), (4, 3), (5, 2), (4, 4), (5, 3), (6, 2))
        with mock.patch.object(dyck, "single_component", wraps=dyck.single_component) as trace:
            bricks = sum(len(forms._enumerate_brick_gvectors(n, box)) for n, box in boxes)
        assert (trace.call_count, bricks) == (354, 476)


def _reference_max_clique(vertices, adj):
    # the size oracle: Bron-Kerbosch on sets from an empty clique, a tie
    # between pivots going to the lowest vertex; it shares no code and no
    # search order with the seeded MCQ search
    best = []

    def expand(clique, candidates, excluded):
        nonlocal best
        if not candidates and not excluded:
            if len(clique) > len(best):
                best = clique[:]
            return
        if len(clique) + len(candidates) <= len(best):
            return
        pivot = max(sorted(candidates | excluded), key=lambda u: len(adj[u] & candidates))
        for v in sorted(candidates - adj[pivot]):
            expand(clique + [v], candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand([], set(vertices), set())
    return best


def _masks(adj):
    # a graph on the vertices 0..k-1 as the search holds it, one int per vertex
    return [sum(1 << u for u in adj[v]) for v in range(len(adj))]


def _is_clique(masks, vertices):
    return len(set(vertices)) == len(vertices) and all(
        masks[u] >> v & 1 for u, v in itertools.combinations(vertices, 2)
    )


def _reference_search(n, bricks, masks):
    # (the reference's clique size, the seed) on the search's graph: the
    # seed is the standard family's bricks in the box, or none if they are
    # not a clique
    adj = {v: {u for u in range(len(masks)) if mask >> u & 1} for v, mask in enumerate(masks)}
    index = {g: i for i, g in enumerate(bricks)}
    seed = [index[g] for g in forms.witness_family(n) if g in index]
    if not _is_clique(masks, seed):
        seed = []
    return len(_reference_max_clique(list(adj), adj)), seed


def _random_graph(rng, size, density):
    adj = {v: set() for v in range(size)}
    for u, v in itertools.combinations(range(size), 2):
        if rng.random() < density:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _greedy_clique(rng, adj):
    # a maximal clique grown from a random vertex, often not a maximum one
    order = list(adj)
    rng.shuffle(order)
    clique = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


# the witnesses fan maxcompat prints: at box 1 the standard family's -2
# entries fall outside the box, so its seed is smaller than the maximum and
# the witness is the first larger clique in the search's order; on the six
# fan-search boxes the witness is the standard family
_PINNED_WITNESSES = {
    (3, 1): ((0, -1, 1),),
    (4, 1): ((-1, 1, 0, 0), (0, 0, -1, 1)),
    (5, 1): ((0, -1, 1, 0, 0), (0, 0, 0, -1, 1)),
    (6, 1): ((-1, 1, 0, 0, 0, 0), (0, 0, -1, 1, 0, 0), (0, 0, 0, 0, -1, 1)),
    (7, 1): ((0, -1, 1, 0, 0, 0, 0), (0, 0, 0, -1, 1, 0, 0), (0, 0, 0, 0, 0, -1, 1)),
    (8, 1): (
        (-1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, -1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, -1, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, -1, 1),
    ),
    (9, 1): (
        (0, -1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, -1, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, -1, 1),
    ),
    (10, 1): (
        (-1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, -1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, -1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, -1, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, -1, 1),
    ),
    (3, 6): ((-2, 1, 1),),
    (4, 3): ((-2, 1, 0, 1), (-1, 0, 1, 0)),
    (5, 2): ((-2, 0, 1, 1, 0), (-2, 1, 0, 0, 1)),
    (4, 4): ((-2, 1, 0, 1), (-1, 0, 1, 0)),
    (5, 3): ((-2, 0, 1, 1, 0), (-2, 1, 0, 0, 1)),
    (6, 2): ((-2, 0, 1, 0, 1, 0), (-2, 1, 0, 0, 0, 1), (-1, 0, 0, 1, 0, 0)),
}


class TestSeededClique:
    @pytest.mark.parametrize(
        "n, box",
        [(n, box) for n in range(2, 6) for box in (1, 2, 3)]
        + [(3, 6), (4, 4), (6, 2)],
    )
    def test_search_matches_reference(self, n, box):
        # n = 2..5 at box 1..3 and the fan-search boxes, on the same graph:
        # a clique of the reference's size, and the seed when it is one
        witness, bricks, adj = forms._compatibility_search(n, box)
        size, seed = _reference_search(n, bricks, adj)
        index = {g: i for i, g in enumerate(bricks)}
        assert len(witness) == size and _is_clique(adj, [index[g] for g in witness])
        if len(seed) == size:
            assert witness == tuple(sorted(bricks[i] for i in seed))

    @pytest.mark.parametrize(
        "n, box", list(_PINNED_WITNESSES), ids=[f"{n}-{box}" for n, box in _PINNED_WITNESSES]
    )
    def test_pinned_witnesses(self, n, box):
        witness = _PINNED_WITNESSES[n, box]
        assert forms.max_compatible_search(n, box) == (len(witness), witness)
        assert (set(witness) == set(forms.witness_family(n))) == (box > 1)

    def test_seed_smaller_than_maximum(self):
        # the triangle {0, 1, 2} beats the seeded edge {3, 4}
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2, 4}, 4: {3}}
        seed = [3, 4]
        assert sorted(forms._max_clique(_masks(adj), seed)) == [0, 1, 2]
        assert seed == [3, 4]

    def test_seed_that_is_a_maximum(self):
        # two triangles: the seed itself is returned, and unchanged; its
        # three colours already cut the root
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {4, 5}, 4: {3, 5}, 5: {3, 4}}
        assert len(_reference_max_clique(list(adj), adj)) == 3
        seed = [5, 3, 4]
        with mock.patch.object(forms, "_colour_classes", wraps=forms._colour_classes) as colour:
            assert forms._max_clique(_masks(adj), seed) is seed
        assert seed == [5, 3, 4] and colour.call_count == 1

    def test_empty_seed(self):
        # the first clique found, branching from the last colour back: 5,
        # then 4 of the two left, then 3
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {4, 5}, 4: {3, 5}, 5: {3, 4}}
        assert forms._max_clique(_masks(adj), []) == [5, 4, 3]
        assert forms._max_clique([], []) == []
        assert forms._max_clique([0, 0], []) == [1]

    def test_colour_classes(self):
        # greedy classes in ascending order: the 5-cycle 0-1-2-3-4 takes
        # {0, 2}, {1, 3}, {4}, and no vertex needs no class
        cycle = {v: {(v - 1) % 5, (v + 1) % 5} for v in range(5)}
        adj = _masks(cycle)
        assert forms._colour_classes(adj, 0b11111) == [(0, 1), (2, 1), (1, 2), (3, 2), (4, 3)]
        assert forms._colour_classes(adj, 0b01010) == [(1, 1), (3, 1)]
        assert forms._colour_classes(adj, 0) == []

    def test_random_graphs_bound_their_cliques(self):
        # every vertex takes one colour, in classes of non-adjacent vertices
        # listed by colour; a clique takes one vertex of each class at most
        rng = random.Random(7)
        for _ in range(200):
            adj = _random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
            classes = forms._colour_classes(_masks(adj), (1 << len(adj)) - 1)
            colours = [c for _, c in classes]
            assert sorted(v for v, _ in classes) == list(adj), adj
            assert colours == sorted(colours) and colours[0] == 1, adj
            for (u, c), (v, d) in itertools.combinations(classes, 2):
                assert c != d or v not in adj[u], adj
            assert colours[-1] >= len(_reference_max_clique(list(adj), adj)), adj

    def test_random_graphs_and_seeds(self):
        # a clique of the reference's size; the seed itself whenever it is
        # one, and unchanged
        rng = random.Random(5)
        beaten = kept = 0
        for _ in range(300):
            adj = _random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.5, 0.8]))
            seed = rng.choice([[], _greedy_clique(rng, adj)])
            before = list(seed)
            size = len(_reference_max_clique(list(adj), adj))
            found = forms._max_clique(_masks(adj), seed)
            assert len(found) == size and _is_clique(_masks(adj), found), (adj, seed)
            assert found is seed if len(seed) == size else found is not seed, (adj, seed)
            assert seed == before
            beaten += found is not seed
            kept += bool(seed) and found is seed
        assert beaten > 50 and kept > 50


class TestDirectionsAtN3:
    # the form of (-a-b, a, b) and (-c-d, c, d) is ad - bc, so n = 3 has
    # an edge only between parallel bricks, which gcd(a, b) = 1 rules out

    def test_a_parallel_brick_raises(self, monkeypatch):
        # (-2, 2, 0) has two curves, so it is no brick; planted beside
        # (-1, 1, 0), of its direction, it stops the search unsorted
        bricks = forms._enumerate_brick_gvectors(3, 2)
        planted = {**bricks, (-2, 2, 0): bricks[(-1, 1, 0)]}
        monkeypatch.setattr(forms, "_enumerate_brick_gvectors", lambda n, box: planted)
        with mock.patch.object(gentle, "hom_orthogonal") as sort, pytest.raises(
            InternalInconsistency, match=r"^the brick \(-2, 2, 0\) has gcd\(a, b\) != 1$"
        ):
            forms._compatibility_search(3, 2)
        sort.assert_not_called()


class TestMaxCompatible:
    def test_small_searches(self):
        assert forms.max_compatible_search(3, 2) == (1, ((-2, 1, 1),))
        size, clique = forms.max_compatible_search(4, 2)
        assert size == 2
        assert set(clique) == {(-2, 1, 0, 1), (-1, 0, 1, 0)}

    def test_wide_box_stays_at_bound(self):
        size, _ = forms.max_compatible_search(3, 4)
        assert size == 1

    @pytest.mark.parametrize("n, box", [(0, 1), (1, 2), (-2, 1), (3, 0), (3, -1)])
    def test_bad_size_rejected(self, n, box):
        with pytest.raises(BadDimension):
            forms.max_compatible_search(n, box)

    @pytest.mark.parametrize("n, box", [(12, 3), (8, 2), (7, 3), (5, 6), (3, 71), (10**9, 3)])
    def test_search_too_large_raises_before_enumerating(self, monkeypatch, n, box):
        def enumerate_(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(forms, "_enumerate_brick_gvectors", enumerate_)
        with pytest.raises(SearchTooLarge):
            forms.max_compatible_search(n, box)

    @pytest.mark.parametrize(
        "n, box", [(3, 6), (4, 3), (5, 2), (4, 4), (5, 3), (6, 2), (7, 2), (6, 3), (3, 70)]
    )
    def test_search_bound_admits(self, monkeypatch, n, box):
        monkeypatch.setattr(forms, "_enumerate_brick_gvectors", lambda *args: {})
        assert forms.max_compatible_search(n, box) == (0, ())


class TestSearchReadsNoRotation:
    # the search builds, tests and compares its bricks without putting
    # any walk in canonical form

    @pytest.mark.parametrize(
        "n, box", [(3, 6), (4, 3), (5, 2), (4, 4), (5, 3), (6, 2), (3, 70)]
    )
    def test_no_canonical_walk(self, n, box):
        with mock.patch.object(gentle, "canonical_walk", wraps=gentle.canonical_walk) as canon:
            size, _ = forms.max_compatible_search(n, box)
        assert size == math.ceil((n - 1) / 2)
        assert canon.call_count == 0


class TestNecklaceBound:
    def test_examples(self):
        assert forms.necklace_count_bound_check((1, 1, 1))
        assert forms.necklace_count_bound_check((4, 2, 2))

    def test_rejects_zero(self):
        with pytest.raises(AllZero):
            forms.necklace_count_bound_check((0, 0, 0))

    def test_rejects_negative(self):
        with pytest.raises(AllZero, match="exponents must be non-negative"):
            forms.necklace_count_bound_check((-1, 2))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple))
    @settings(max_examples=60, deadline=None)
    def test_random_multiplicities(self, alpha):
        if not any(alpha):
            return
        assert forms.necklace_count_bound_check(alpha)
