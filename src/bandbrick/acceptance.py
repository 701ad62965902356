"""Acceptance suites: the checks that define a working build.

Each suite is a function taking a seed and returning a record
``(summary, cases, failures)``: what it checked, how many checks it made,
and the checks that failed.  ``verdict`` turns a record into ``(ok,
detail)``.  ``bandbrick verify`` runs them, and the acceptance tests
run ``bandbrick verify``, so the CLI and the test run cannot drift apart.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

from . import dyck, forms, gentle, render, words
from .errors import MultipleCycles

Record = tuple[str, int, list]


def verdict(record: Record) -> tuple[bool, str]:
    """(ok, detail): ok when no check failed; a failing detail is the
    summary followed by the first five failures."""
    summary, _, failures = record
    if not failures:
        return True, summary
    return False, f"{summary}; failed: {failures[:5]}"


def _alpha(s: str) -> tuple[int, ...]:
    return tuple(ord(c) - ord("a") + 1 for c in s)


def _digits(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


def golden(seed: int = 0) -> Record:
    """Exact input/output pairs for every transform."""
    try:
        words.bw_inverse(_alpha("cba"))
        raised = False
    except MultipleCycles:
        raised = True
    w10 = _alpha("acacacbbbc")
    ms = words.phi(_alpha("baacbcab"))
    erased = dyck.erase_ones(dyck.circular_words((-8, 2, 2, 4)))
    m = gentle.band_module(gentle.psi(_digits("2")), Fraction(5))
    mats = dict(m.matrices())
    checks = [
        ("bw acab", words.bw_transform(_alpha("acab")) == _alpha("cbaa")),
        ("bw acba", words.bw_transform(_alpha("acba")) == _alpha("baca")),
        ("bw acacacbbbc", words.bw_transform(w10) == _alpha("ccccbbbaaa")),
        ("pcw acacacbbbc", words.is_perfectly_clustering(w10)),
        ("bw-inverse ccccbbbaaa", words.bw_inverse(_alpha("ccccbbbaaa")) == words.necklace(w10)),
        (
            "st baaacaba",
            words.standard_permutation(_alpha("baaacaba")) == (6, 1, 2, 3, 8, 4, 7, 5),
        ),
        ("phi baacbcab", ms == (_alpha("aaacb"), _alpha("b"), _alpha("bc"))),
        ("phi-inverse of that", words.phi_inverse(ms) == _alpha("baacbcab")),
        ("bw-inverse cba raises", raised),
        ("circular words (-1,-1,2)", dyck.circular_words((-1, -1, 2)) == ((1, 3, 2, 3),)),
        (
            "circular words (-3,-1,3,-2,3)",
            dyck.circular_words((-3, -1, 3, -2, 3))
            == ((1, 3, 1, 5, 4, 5, 4, 5), (1, 3, 2, 3)),
        ),
        (
            "circular words (-8,2,2,4)",
            dyck.circular_words((-8, 2, 2, 4))
            == ((1, 2, 1, 4, 1, 3, 1, 4), (1, 2, 1, 4, 1, 3, 1, 4)),
        ),
        ("erase ones (-8,2,2,4) vs phi(44443322)", erased == words.phi(_digits("44443322"))),
        ("erase ones (-8,2,2,4) value", erased == ((2, 4, 3, 4), (2, 4, 3, 4))),
        (
            "walk of 23223",
            gentle.walk_to_str(gentle.psi(_digits("23223")))
            == "a1 b1- a1 a2 b2- b1- a1 b1- a1 b1- a1 a2 b2- b1-",
        ),
        (
            "g-vector of walk(23223)",
            gentle.g_vector_of_band(gentle.psi(_digits("23223"))) == (-5, 3, 2),
        ),
        ("module dims psi(2)", m.dims == (1, 1)),
        ("module a1 entry", mats[("a", 1)] == ((1, 1), {(0, 0): Fraction(5)})),
        ("module b1 entry", mats[("b", 1)] == ((1, 1), {(0, 0): Fraction(1)})),
    ]
    return f"{len(checks)} exact checks", len(checks), [name for name, ok in checks if not ok]


def brick_pcw(seed: int = 0) -> Record:
    """Perfectly clustering equals brick, swept over two alphabets; the
    transform test equals the factor test on the same words."""
    sweeps = [((2, 3), 10, 3), ((2, 3, 4), 7, 4)]
    total = 0
    mismatches: list[tuple] = []
    for letters, maxlen, n in sweeps:
        for length in range(1, maxlen + 1):
            for w in itertools.product(letters, repeat=length):
                if not words.is_primitive(w):
                    continue
                total += 1
                pcw = words.is_perfectly_clustering(w)
                if words.is_perfectly_clustering_by_factors(w) != pcw:
                    mismatches.append(("factors", w))
                module = gentle.band_module(gentle.psi(w, n), 1, n)
                brick = all(
                    gentle.is_brick(module.replace(lam=lam))
                    for lam in (1, 2, 3)
                )
                if pcw != brick:
                    mismatches.append(w)
    summary = f"{total} primitive words over two alphabets, each also by the factor test"
    return summary, 2 * total, mismatches


def curves_words(seed: int = 0) -> Record:
    """Erased curve words equal the necklace image of the sorted word."""
    total = 0
    bad: list[tuple[int, ...]] = []
    for n in range(2, 6):
        for s in range(1, 8):
            for rest in itertools.product(range(s + 1), repeat=n - 1):
                if sum(rest) != s:
                    continue
                g = (-s,) + rest
                total += 1
                erased = dyck.erase_ones(dyck.circular_words(g))
                word = []
                for i in range(n, 1, -1):
                    word.extend([i] * g[i - 1])
                expected = words.phi(tuple(word))
                if erased != expected:
                    bad.append(g)
    return f"{total} nonnegative-tail g-vectors, n <= 5, weight <= 7", total, bad


def _random_valid_gvector(
    rng: random.Random, nmax: int = 5, entry: int = 4, weight: float = 16
) -> tuple[int, ...]:
    while True:
        n = rng.randint(2, nmax)
        head = [rng.randint(-entry, entry) for _ in range(n - 1)]
        g = tuple(head) + (-sum(head),)
        if sum(abs(a) for a in g) > weight:
            continue
        if dyck.validate_gvector(g):
            return g


def _walk_pool(rng: random.Random, count: int) -> list[gentle.Walk]:
    # All walks live over n = 4 so their g-vectors share a length.
    pool: dict[str, gentle.Walk] = {}
    while len(pool) < count:
        if rng.random() < 0.5:
            length = rng.randint(1, 5)
            w = tuple(rng.randint(2, 4) for _ in range(length))
            if not words.is_primitive(w):
                continue
            walks = [gentle.psi(w, 4)]
        else:
            g = _random_valid_gvector(rng, nmax=4, entry=3, weight=10)
            g = g + (0,) * (4 - len(g))
            comps = dyck.reconstruct_multislalom(g)
            walks = [gentle.slalom_to_band_walk(c) for c in comps]
        for walk in walks:
            if len(walk) <= 16:
                pool[gentle.walk_to_str(walk)] = walk
    return [pool[k] for k in sorted(pool)]


def hom_euler(seed: int = 0) -> Record:
    """Euler form equals the Hom difference on random band pairs, and Hom
    is unchanged by the duality tau, also between two rotations of one band."""
    rng = random.Random(seed)
    pool = _walk_pool(rng, 30)
    trials = 200
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(trials)]
    name = gentle.walk_to_str
    failures = [
        f"euler {name(z1)} | {name(z2)}"
        for z1, z2 in pairs
        if not forms.hom_difference_check(z1, z2)
    ]
    # End is 1 exactly on the bricks: a constant offset in Hom cancels in
    # the Euler difference and in the duality, but not here
    for z in pool:
        m = gentle.band_module(z, 1, 4)
        if (gentle.hom_dim(m, m) == 1) != gentle.is_brick(m):
            failures.append(f"End {name(z)}")
    # the duality on 100 of the pairs and on every pool walk against a
    # seeded other rotation of itself, at parameters 1, 1 and 1, 2: one
    # band needs no equal codes, and its cycle adds 1 when the parameters agree
    checks = [(z1, z2, False) for z1, z2 in pairs[:100]]
    for z in pool:
        k = rng.randrange(1, len(z))
        checks.append((z, z[k:] + z[:k], True))
    for z1, z2, one_band in checks:
        (hom, dual), (apart, dual_apart) = _dual_homs(z1, z2, 1), _dual_homs(z1, z2, 2)
        if hom != dual or apart != dual_apart or (one_band and hom != apart + 1):
            failures.append(f"duality {name(z1)} | {name(z2)}")
    summary = (
        f"{trials} band pairs from a pool of {len(pool)} walks, {len(pool)} End "
        f"dimensions against the brick test, duality on {2 * len(checks)} Hom pairs "
        f"({2 * len(pool)} across two rotations of one band); {len(failures)} failed"
    )
    return summary, trials + len(pool) + len(checks), failures


def _dual_homs(z1: gentle.Walk, z2: gentle.Walk, mu: int) -> tuple[int, int]:
    # Hom(M(x, 1), M(y, mu)) and Hom(M(tau y, mu), M(tau x, 1)) over the
    # pool's four vertices, where tau is the mirror duality
    x, y = gentle.band_module(z1, 1, 4), gentle.band_module(z2, mu, 4)
    tx = gentle.band_module(gentle.mirror_walk(z1, 4), 1, 4)
    ty = gentle.band_module(gentle.mirror_walk(z2, 4), mu, 4)
    return gentle.hom_dim(x, y), gentle.hom_dim(ty, tx)


def bricks_n4(seed: int = 0) -> Record:
    """Closed-form four-vertex brick test against structural tests."""
    named = {
        (-2, -1, -3, 6): True,
        (-2, -3, 1, 4): True,
        (-4, 3, -2, 3): True,
        (-1, 1, 0, 0): True,
        (0, 0, -1, 1): True,
    }
    failures = [f"named {g}" for g, want in named.items() if forms.is_brick_gvector_n4(g) != want]
    # one pass over box 8; the vectors of box 5 are also held against the
    # endomorphism test
    wide = narrow = 0
    for g in itertools.product(range(-8, 9), repeat=4):
        if not dyck.validate_gvector(g):
            continue
        wide += 1
        brick = forms.is_brick_gvector_n4(g)
        if brick != (len(dyck.reconstruct_multislalom(g)) == 1):
            failures.append(f"component {g}")
        if max(map(abs, g)) <= 5:
            narrow += 1
            if brick != forms.is_brick_gvector(g):
                failures.append(f"endomorphism {g}")
    summary = (
        f"{wide} vectors vs component count (box 8), "
        f"{narrow} vs endomorphism test (box 5)"
    )
    return summary, len(named) + wide + narrow, failures


def max_compat(seed: int = 0) -> Record:
    """Maximum pairwise-compatible brick sets match the ceiling bound."""
    checks: list[tuple[str, bool]] = []
    sums = 0
    for n in (3, 4, 5, 6, 7):
        found, bricks, adj = forms._compatibility_search(n, 2)
        expected = math.ceil((n - 1) / 2)
        checks.append((f"n={n} box=2 size", len(found) == expected))
        family = tuple(sorted(forms.witness_family(n)))
        checks.append((f"n={n} witness family", found == family))
        for i, g in enumerate(found):
            for h in found[i:]:
                checks.append((f"n={n} pair {g},{h}", forms.compatible(g, h)))
        # a second engine on the graph the clique ran on, over every pair of
        # the box: an edge has Euler form 0, and a zero-form pair is an edge
        # exactly when the components of its sum are the pair (seen on every
        # box tried, not proved)
        for i, g in enumerate(bricks):
            row = forms._euler_row(g)
            for j, h in enumerate(bricks[i + 1 :], i + 1):
                edge = bool(adj[i] >> j & 1)
                if sum(map(operator.mul, row, h)):
                    if edge:
                        checks.append((f"n={n} edge {g},{h} of non-zero form", False))
                    continue
                split = sorted(dyck.component_gvectors(map(sum, zip(g, h)))) == sorted((g, h))
                checks.append((f"n={n} sum {g},{h}", split == edge))
                sums += 1
    size4, _ = forms.max_compatible_search(3, 4)
    checks.append(("n=3 box=4 size", size4 == 1))
    summary = (
        "boxes for n in {3,4,5,6,7}; sizes match ceil((n-1)/2), witnesses match; "
        f"{sums} zero-form pairs compatible exactly when their sum splits into them"
    )
    return summary, len(checks), [name for name, ok in checks if not ok]


def necklace_bound(seed: int = 0) -> Record:
    """Distinct-necklace count of sorted words stays within the bound."""
    rng = random.Random(seed)
    total = 0
    bad: list[tuple[int, ...]] = []
    for alpha in itertools.product(range(11), repeat=3):
        if not any(alpha) or sum(alpha) > 10:
            continue
        total += 1
        if not forms.necklace_count_bound_check(alpha):
            bad.append(alpha)
    sampled = 0
    while sampled < 500:
        n = rng.randint(2, 8)
        alpha = tuple(rng.randint(0, 3) for _ in range(n - 1))
        if not any(alpha) or sum(alpha) > 16:
            continue
        sampled += 1
        total += 1
        if not forms.necklace_count_bound_check(alpha):
            bad.append(alpha)
    # every valid g-vector: its distinct curves have distinct g-vectors, the
    # components, which are pairwise compatible bricks, so at most
    # ceil((n-1)/2) of them; compatibility is checked where the walks are
    # short.  Both counts come from one trace: each curve's g-vector counts
    # its labels, as dyck.component_gvectors does
    gvectors = [
        (_random_valid_gvector(rng, nmax=40, entry=100, weight=math.inf), False)
        for _ in range(300)
    ]
    gvectors += [
        (_random_valid_gvector(rng, nmax=10, entry=20, weight=math.inf), True)
        for _ in range(200)
    ]
    pairs = 0
    for g, short in gvectors:
        curves = set(dyck.circular_words(g))
        comps = {tuple(-c[i] if a < 0 else c[i] for i, a in enumerate(g, 1))
                 for c in map(collections.Counter, curves)}
        if len(comps) != len(curves) or len(comps) > math.ceil((len(g) - 1) / 2):
            bad.append(f"components of {g}")
        for c1, c2 in itertools.combinations(sorted(comps), 2) if short else ():
            pairs += 1
            if not forms.compatible(c1, c2):
                bad.append(f"compatible {c1},{c2} of {g}")
    # the bound at scale: about 10^6 letters in all
    large = 0
    while large < 100:
        alpha = tuple(rng.randint(0, 1000) for _ in range(rng.randint(1, 39)))
        if not any(alpha):
            continue
        large += 1
        if not forms.necklace_count_bound_check(alpha):
            bad.append(alpha)
    summary = (
        f"{total} multiplicity vectors (exhaustive n=4 plus 500 sampled, n up to 8) "
        f"and {large} with n up to 40 and entries up to 1000, "
        f"{len(gvectors)} g-vectors up to n=40 ({pairs} component pairs compatible)"
    )
    return summary, total + large + len(gvectors) + pairs, bad


def christoffel(seed: int = 0) -> Record:
    """Two-letter regime: coprimality and the determinant identity, on
    every small slope and on consecutive Fibonacci slopes."""
    failures = []
    pairs = [(a, b) for a in range(13) for b in range(13) if (a, b) != (0, 0)]
    for a, b in pairs:
        g = (-a - b, a, b)
        want = math.gcd(a, b) == 1
        if forms.is_brick_gvector(g) != want:
            failures.append(f"brick ({a},{b})")
    for a, b in pairs:
        for c, d in pairs:
            x = (-a - b, a, b)
            y = (-c - d, c, d)
            if forms.euler_form(x, y) != a * d - b * c:
                failures.append(f"det ({a},{b}),({c},{d})")
    # consecutive Fibonacci numbers are coprime, and their walks pass
    # gentle._SCAN_STEPS from (34, 55) on, so is_brick sorts them; the
    # doubled slope has two components, and the next slope's determinant
    # is +-1.  The modules are read directly, so a wrong answer is a
    # failure, not the InternalInconsistency of is_brick_gvector
    fibonacci = [(1, 2)]
    while fibonacci[-1] != (2584, 4181):
        a, b = fibonacci[-1]
        fibonacci.append((b, a + b))
    for a, b in fibonacci:
        module = forms._component_module((-a - b, a, b))
        if module is None or not gentle.is_brick(module):
            failures.append(f"fibonacci brick ({a},{b})")
        if forms._component_module((-2 * a - 2 * b, 2 * a, 2 * b)) is not None:
            failures.append(f"fibonacci doubled ({a},{b})")
        if forms.euler_form((-a - b, a, b), (-a - 2 * b, b, a + b)) != a * (a + b) - b * b:
            failures.append(f"fibonacci det ({a},{b})")
    dets = len(pairs) ** 2
    summary = (
        f"{len(pairs)} slope vectors, {dets} determinant pairs, "
        f"{len(fibonacci)} Fibonacci slopes"
    )
    return summary, len(pairs) + dets + 3 * len(fibonacci), failures


def witness(seed: int = 0) -> Record:
    """Euler-orthogonal pair that the Hom test still rejects."""
    x = (-1, -2, -2, 5)
    y = (-3, 0, -4, 7)
    checks = [
        ("euler xy", forms.euler_form(x, y) == 0),
        ("euler yx", forms.euler_form(y, x) == 0),
        ("brick x", forms.is_brick_gvector(x)),
        ("brick y", forms.is_brick_gvector(y)),
        ("not compatible", not forms.compatible(x, y)),
        ("midpoint brick", forms.is_brick_gvector((-2, -1, -3, 6))),
    ]
    summary = "orthogonal pair rejected by Hom test; midpoint is a brick"
    return summary, len(checks), [name for name, ok in checks if not ok]


def structural(seed: int = 0) -> Record:
    """Random-instance invariants: decomposition, round trips, renderer."""
    rng = random.Random(seed)
    cases = 0
    failures = []

    decompositions = 300
    for _ in range(decompositions):
        g = _random_valid_gvector(rng)
        comps = dyck.component_gvectors(g)
        total = tuple(sum(col) for col in zip(*comps))
        if total != g:
            failures.append(f"component sum {g}")
        for c in comps:
            if not forms.is_brick_gvector(c):
                failures.append(f"component brick {g} -> {c}")
        for i, c1 in enumerate(comps):
            for c2 in comps[i + 1 :]:
                if not forms.compatible(c1, c2):
                    failures.append(f"component compat {g}")
        cases += 1 + len(comps) + len(comps) * (len(comps) - 1) // 2

    round_trips = 200
    for _ in range(round_trips):
        k = rng.randint(1, 4)
        necklaces = []
        size = 0
        for _ in range(k):
            length = rng.randint(1, 5)
            while True:
                w = tuple(rng.randint(1, 3) for _ in range(length))
                if words.is_primitive(w):
                    break
            necklaces.append(words.necklace(w))
            size += length
            if size >= 14:
                break
        ms = tuple(sorted(necklaces))
        if words.phi(words.phi_inverse(ms)) != ms:
            failures.append(f"phi round trip {ms}")

    renders = [(-1, 1), (-3, -1, 3, -2, 3), (-8, 2, 2, 4)]
    for g in renders:
        a = render.render_dyck(g)
        b = render.render_dyck(g)
        if a != b:
            failures.append(f"render deterministic {g}")
        try:
            ET.fromstring(a)
        except ET.ParseError:
            failures.append(f"render well-formed {g}")

    summary = (
        f"{decompositions} decompositions, {round_trips} necklace round trips, "
        f"{len(renders)} renders"
    )
    return summary, cases + round_trips + 2 * len(renders), failures


SUITES: list[tuple[int, str, "object"]] = [
    (1, "golden", golden),
    (2, "brick-pcw", brick_pcw),
    (3, "curves-words", curves_words),
    (4, "hom-euler", hom_euler),
    (5, "bricks-n4", bricks_n4),
    (6, "max-compat", max_compat),
    (7, "necklace-bound", necklace_bound),
    (8, "christoffel", christoffel),
    (9, "witness", witness),
    (10, "structural", structural),
]


def suite_names() -> list[str]:
    return [name for _, name, _ in SUITES]
