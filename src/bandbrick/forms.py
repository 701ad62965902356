"""Euler form, compatibility of band bricks, and brick tests.

The Euler form on g-vectors is sum(a_i b_i) + 2 sum_{i<j} a_i b_j, skew
symmetric on the zero-sum hyperplane.  Two brick g-vectors are compatible
when the bricks admit no morphisms either way; a vanishing Euler form is
necessary but not sufficient.  Each brick is one band module at
parameter 1: gentle.hom_dim reads the parameter only on the cycle two
modules of one band share, so every other count is the same at every
parameter.  A brick is compatible with itself: Hom between two members
of its family counts End minus 1, which the brick test has found to be 0.

The search does each mirror pair's work once.  The mirror k -> n - k of
the arrow indices identifies the double-line algebra with its opposite,
so the vector-space dual D = Hom_k(-, k) sends the band module of a walk
x to the band module of gentle.mirror_walk(x), and sends the graph maps
X -> Y to the graph maps DY -> DX.  With sigma(g) = -reverse(g):

    g(D X) = sigma(g(X))    and    Hom(X, Y) = Hom(D Y, D X),

so g is a brick g-vector exactly when sigma(g) is, and the Euler form
satisfies <sigma a, sigma b> = <b, a>.  The enumeration traces only the
g <= sigma(g) and builds the other bricks from their mirrors, and the
search counts Hom once per sigma-orbit of zero-form pairs.  The search
returns that compatibility graph, and the max-compat suite checks it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from . import dyck, gentle, words
from .errors import (
    AllZero,
    BadDimension,
    DimensionMismatch,
    InternalInconsistency,
    NotABrick,
    NotInHyperplane,
    SearchTooLarge,
)

GVector = tuple[int, ...]

# bound on the (2 box + 1)^(n - 1) prefixes max_compatible_search may
# enumerate; time also grows with the walk lengths, so the slowest
# admitted search is n = 3, box = 70 (0.8-1.3 s in process over five
# fresh interpreters, Python 3.11, 2 CPUs, nearly all of it the End
# self-check on long walks; fan maxcompat --n 3 --box 70, pinned in
# tests/test_cli.py, takes 1.3-1.6 s as a subprocess), while (4, 13)
# takes 0.35-0.65 s, (6, 3) 0.06-0.1 s and (7, 2) 0.05-0.08 s
MAX_SEARCH_PREFIXES = 20_000


def euler_form(x: Sequence[int], y: Sequence[int]) -> int:
    """sum(x_i y_i) + 2 sum_{i<j} x_i y_j."""
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths differ: {len(x)} != {len(y)}")
    return sum(map(operator.mul, _euler_row(x), y))


def _euler_row(x: Sequence[int]) -> list[int]:
    # c_j = x_j + 2 sum_{i<j} x_i, so euler_form(x, y) == sum(c_j y_j)
    return [2 * prefix - xj for prefix, xj in zip(itertools.accumulate(x), x)]


def euler_skew_check(x: Sequence[int], y: Sequence[int]) -> bool:
    """Assert skew symmetry; both vectors must sum to zero."""
    if sum(x) != 0 or sum(y) != 0:
        raise NotInHyperplane("both vectors must sum to zero")
    return euler_form(x, y) == -euler_form(y, x)


def _brick_module(g: Sequence[int]) -> gentle.BandModule | None:
    # band module of a brick g-vector at parameter 1, None when g decomposes
    entries = tuple(g)
    component = dyck.single_component(entries)  # raises InvalidGVector
    if component is None:
        return None
    module = gentle.band_module(gentle.slalom_to_band_walk(component), 1, len(entries))
    if not gentle.is_brick(module):
        raise InternalInconsistency(
            f"single component of {entries} is not a brick"
        )
    return module


def is_brick_gvector(g: Sequence[int]) -> bool:
    """True iff the multislalom of g has one component, whose band module
    is a brick.  A single component with a non-brick module would break
    the correspondence, so it raises instead of returning."""
    return _brick_module(g) is not None


def is_brick_gvector_n4(g: Sequence[int]) -> bool:
    """Closed-form brick test for n = 4."""
    entries = tuple(g)
    if len(entries) != 4:
        raise BadDimension(f"expected 4 entries, got {len(entries)}")
    dyck._check_gvector(entries)
    if entries in ((-1, 1, 0, 0), (0, 0, -1, 1)):
        return True
    a, b, c, _ = entries
    return a + b != 0 and math.gcd(a + b, b + c) == 1


def compatible(g1: Sequence[int], g2: Sequence[int]) -> bool:
    """No morphisms in either direction between the two band bricks.

    The vanishing of the Euler form is checked first: a non-zero value
    already forces a morphism, so the modules are only compared on the
    zero-form pairs.  A brick is compatible with itself: between two
    members of its family Hom has dimension End - 1 each way, and the
    brick test has found End = 1.
    """
    v1, v2 = tuple(g1), tuple(g2)
    if len(v1) != len(v2):
        raise DimensionMismatch(f"lengths differ: {len(v1)} != {len(v2)}")
    x = _brick_module(v1)
    y = x if v1 == v2 else _brick_module(v2)
    for v, m in ((v1, x), (v2, y)):
        if m is None:
            raise NotABrick(f"{v} is not a brick g-vector")
    if y is x:
        return True  # Hom to another member is End - 1 = 0 each way
    if euler_form(v1, v2) != 0:
        return False
    return gentle.hom_dim(x, y) == 0 and gentle.hom_dim(y, x) == 0


def band_hom(
    w1: gentle.Walk, w2: gentle.Walk, n: int | None, lam1: Fraction | int, lam2: Fraction | None
) -> tuple[int, int, int]:
    """(dim Hom(X, Y), dim Hom(Y, X), <g(X), g(Y)>) for X = M(w1, lam1) and
    Y = M(w2, lam2) over n vertices.  n None is the smallest quiver holding
    both walks; lam2 None is 1, or 2 where (w2, 1) would be X itself."""
    n = 1 + (max(w1 + w2, default=0) >> 2) if n is None else n
    x = gentle.band_module(w1, lam1, n)
    y = gentle.band_module(w2, 1 if lam2 is None else lam2, n)
    if lam2 is None and y == x:
        # (w2, 1) is X itself: move Y to another member of the family
        y = y.replace(lam=Fraction(2))
    euler = euler_form(x.g_vector(), y.g_vector())
    return gentle.hom_dim(x, y), gentle.hom_dim(y, x), euler


def hom_difference_check(z1: Sequence[int], z2: Sequence[int]) -> bool:
    """Assert <g(X), g(Y)> = dim Hom(X, Y) - dim Hom(Y, X); band_module
    raises InvalidWalk unless both are band walks."""
    hom_xy, hom_yx, euler = band_hom(tuple(z1), tuple(z2), None, 1, None)
    return euler == hom_xy - hom_yx


def witness_family(n: int) -> tuple[GVector, ...]:
    """The standard maximal mutually compatible family of brick g-vectors.

    For 1 <= i <= floor((n-1)/2): -2 at entry 1, 1 at entries i+1 and
    n-i+1; when n is even, additionally -1 at entry 1 with 1 at n/2 + 1.
    """
    if n < 2:
        raise BadDimension(f"a g-vector needs at least 2 entries, got n = {n}")
    family = []
    for i in range(1, (n - 1) // 2 + 1):
        vec = [0] * n
        vec[0] = -2
        vec[i] = 1
        vec[n - i] = 1
        family.append(tuple(vec))
    if n % 2 == 0:
        vec = [0] * n
        vec[0] = -1
        vec[n // 2] = 1
        family.append(tuple(vec))
    return tuple(family)


def _sigma(g: GVector) -> GVector:
    # the g-vector of the mirror dual, -reverse(g)
    return tuple(map(operator.neg, g[::-1]))


def _enumerate_brick_gvectors(n: int, box: int) -> dict[GVector, gentle.BandModule]:
    # brick g-vectors with max-norm <= box in lexicographic order, each
    # with its band module.  Only the candidates g <= sigma(g) are traced:
    # sigma(g) comes first otherwise, and g is a brick exactly when it is
    # one, with the module built from the mirror of its walk.  A prefix
    # whose sum returns to 0 after a non-zero entry closes its Dyck steps
    # among themselves, so only its all-zero completion is a candidate.
    bricks = {}

    def extend(prefix: list[int], partial: int) -> None:
        if len(prefix) == n - 1:
            last = -partial
            if abs(last) <= box:
                candidate = tuple(prefix) + (last,)
                mirror = _sigma(candidate)
                if candidate <= mirror:
                    module = _brick_module(candidate) if any(candidate) else None
                elif mirror in bricks:
                    module = _mirror_module(bricks[mirror], mirror)
                else:
                    module = None
                if module is not None:
                    bricks[candidate] = module
            return
        if not partial and any(prefix):
            extend(prefix + [0], 0)  # closed: only zeros may follow
            return
        for a in range(-box, box + 1):
            if partial + a <= 0:
                extend(prefix + [a], partial + a)

    extend([], 0)
    return bricks


def _mirror_module(module: gentle.BandModule, g: GVector) -> gentle.BandModule:
    # the brick of sigma(g), where module is the brick of g: the dual of
    # module, on the mirror of its walk as built
    mirror = gentle.band_module(gentle.mirror_walk(module.codes[::-1], module.n), 1, module.n)
    if not gentle.is_brick(mirror):
        raise InternalInconsistency(f"mirror of the brick {g} is not a brick")
    return mirror


def _euler_zero_pairs(bricks: Sequence[GVector]) -> list[list[int]]:
    # later[i] lists, ascending, the j > i with euler_form(bricks[i],
    # bricks[j]) == 0.  Every g2 sums to zero, so with c = _euler_row(g1)
    # the form is sum_{j<n} (c_j - c_n) g2_j; once the first n - 2 entries
    # of g2 are fixed, one linear equation in g2_{n-1} is left, whose
    # solution is looked up among the bricks with that prefix.  When its
    # coefficient is 0, all of them qualify or none does.
    buckets: dict[GVector, dict[int, int]] = {}  # prefix -> {g2_{n-1}: j}
    later: list[list[int]] = [[] for _ in bricks]
    for i in range(len(bricks) - 1, -1, -1):  # buckets hold the j > i
        g1 = bricks[i]
        row = _euler_row(g1)
        cn = row[-1]
        coeffs = [c - cn for c in row[:-2]]
        lead = row[-2] - cn
        found = later[i]
        for prefix, bucket in buckets.items():
            rest = sum(map(operator.mul, coeffs, prefix))
            if lead:
                last, remainder = divmod(-rest, lead)
                if not remainder and last in bucket:
                    found.append(bucket[last])
            elif not rest:
                found.extend(bucket.values())
        found.sort()
        buckets.setdefault(g1[:-2], {})[g1[-2]] = i
    return later


def _max_clique(adj: dict[int, set[int]], best: list[int]) -> list[int]:
    # Bron-Kerbosch with pivoting over adj's keys, starting from the clique
    # best and replacing it only by a strictly larger one; a branch is cut
    # only when it cannot beat best, so a larger maximum is still the first
    # one in search order

    def expand(clique: list[int], candidates: set[int], excluded: set[int]) -> None:
        nonlocal best
        if not candidates and not excluded:
            if len(clique) > len(best):
                best = clique[:]
            return
        if len(clique) + len(candidates) <= len(best):
            return
        pivot = max(candidates | excluded, key=lambda u: len(adj[u] & candidates))
        for v in sorted(candidates - adj[pivot]):
            expand(clique + [v], candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand([], set(adj), set())
    return best


def max_compatible_search(n: int, box: int) -> tuple[int, tuple[GVector, ...]]:
    """Exact maximum set (size, witness) of mutually compatible brick
    g-vectors with max-norm <= box, found by _compatibility_search.  The
    standard witness family is preferred as the returned witness when no
    strictly larger clique exists."""
    witness, _, _, _ = _compatibility_search(n, box)
    return len(witness), witness


def _compatibility_search(
    n: int, box: int
) -> tuple[tuple[GVector, ...], list[GVector], list[list[int]], dict[int, set[int]]]:
    # (witness, bricks, zero_pairs, adj): the clique, the bricks in
    # enumeration order, their Euler-zero pairs and the graph of the clique
    if n < 2:
        raise BadDimension(f"a g-vector needs at least 2 entries, got n = {n}")
    if box < 1:
        raise BadDimension(f"the box must have max-norm at least 1, got {box}")
    prefixes = 1
    for _ in range(n - 1):
        prefixes *= 2 * box + 1
        if prefixes > MAX_SEARCH_PREFIXES:
            raise SearchTooLarge(
                f"n = {n}, box = {box} exceeds {MAX_SEARCH_PREFIXES} prefixes (2 box + 1)^(n - 1)"
            )
    modules = _enumerate_brick_gvectors(n, box)
    bricks = list(modules)
    index = {g: i for i, g in enumerate(bricks)}
    mirror = [index[_sigma(g)] for g in bricks]
    adj: dict[int, set[int]] = {i: set() for i in index.values()}
    zero_pairs = _euler_zero_pairs(bricks)
    for i, later in enumerate(zero_pairs):
        for j in later:
            # a zero Euler form makes Hom equally large both ways, and the
            # mirror pair, a zero-form pair too, has the same Hom: when it
            # comes first, its answer is already in adj
            p, q = sorted((mirror[i], mirror[j]))
            if (p, q) < (i, j):
                no_hom = q in adj[p]
            else:
                no_hom = gentle.hom_dim(modules[bricks[i]], modules[bricks[j]]) == 0
            if no_hom:
                adj[i].add(j)
                adj[j].add(i)
    seed = [index[g] for g in witness_family(n) if g in index]
    if not all(j in adj[i] for i in seed for j in seed if j != i):
        seed = []
    witness = tuple(sorted(bricks[i] for i in _max_clique(adj, seed)))
    return witness, bricks, zero_pairs, adj


def necklace_count_bound_check(alpha: Sequence[int]) -> bool:
    """Distinct necklaces of phi(n^a_n ... 2^a_2) stay <= ceil((n-1)/2).

    alpha lists (a_2, ..., a_n); the word is weakly decreasing.
    """
    exponents = tuple(alpha)
    if not any(exponents):
        raise AllZero("at least one exponent must be positive")
    if any(a < 0 for a in exponents):
        raise AllZero("exponents must be non-negative")
    n = len(exponents) + 1
    word: list[int] = []
    for letter in range(n, 1, -1):
        word.extend([letter] * exponents[letter - 2])
    distinct = len(set(words.phi(tuple(word))))
    return distinct <= math.ceil((n - 1) / 2)
