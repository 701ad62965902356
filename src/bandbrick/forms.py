"""Euler form, compatibility of brick families, and brick tests.

The Euler form on g-vectors is sum(a_i b_i) + 2 sum_{i<j} a_i b_j, skew
symmetric on the zero-sum hyperplane.  Two brick g-vectors are compatible
when the bricks admit no morphisms either way; a vanishing Euler form is
necessary but not sufficient.  Scalar-parameter genericity is guarded by
sampling the checks at several parameter values.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import dyck, gentle, words
from .errors import (
    AllZero,
    BadDimension,
    DimensionMismatch,
    GenericityViolation,
    InternalInconsistency,
    InvalidWalk,
    NotABrick,
    NotInHyperplane,
)

GVector = tuple[int, ...]


def euler_form(x: Sequence[int], y: Sequence[int]) -> int:
    """sum(x_i y_i) + 2 sum_{i<j} x_i y_j."""
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths differ: {len(x)} != {len(y)}")
    total = 0
    suffix = sum(y)
    for xi, yi in zip(x, y):
        suffix -= yi
        total += xi * yi + 2 * xi * suffix
    return total


def euler_skew_check(x: Sequence[int], y: Sequence[int]) -> bool:
    """Assert skew symmetry; both vectors must sum to zero."""
    if sum(x) != 0 or sum(y) != 0:
        raise NotInHyperplane("both vectors must sum to zero")
    return euler_form(x, y) == -euler_form(y, x)


def _sampled(check: Callable[[int], bool], message: str) -> bool:
    # genericity guard: the check must give one answer at three parameters
    results = {check(lam) for lam in (1, 2, 3)}
    if len(results) != 1:
        raise GenericityViolation(message)
    return results.pop()


def _guarded_end_is_one(walk: gentle.Walk, n: int) -> bool:
    def end_is_one(lam: int) -> bool:
        module = gentle.band_module(walk, lam, n=n)
        return gentle.hom_dim(module, module) == 1

    message = f"End dimension depends on the parameter for {gentle.walk_to_str(walk)}"
    return _sampled(end_is_one, message)


def _brick_walk(g: Sequence[int]) -> gentle.Walk | None:
    # canonical walk of a brick g-vector, None when g decomposes
    entries = tuple(g)
    ms = dyck.reconstruct_multislalom(entries)  # raises InvalidGVector
    if len(ms.components) != 1:
        return None
    walk = gentle.canonical_walk(gentle.slalom_to_band_walk(ms.components[0]))
    if not _guarded_end_is_one(walk, len(entries)):
        raise InternalInconsistency(
            f"single component of {entries} is not a brick"
        )
    return walk


def is_brick_gvector(g: Sequence[int]) -> bool:
    """True iff the multislalom of g has one component, whose band module
    is a brick.  A single component with a non-brick module would break
    the correspondence, so it raises instead of returning."""
    return _brick_walk(g) is not None


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


def _compatible_walks(z1: gentle.Walk, z2: gentle.Walk, n: int) -> bool:
    def no_morphisms(lam: int) -> bool:
        # walks of one family get two distinct members
        m1 = gentle.band_module(z1, lam, n=n)
        m2 = gentle.band_module(z2, gentle.distinct_lambda(z1, lam, z2, lam), n=n)
        return gentle.hom_dim(m1, m2) == 0 and gentle.hom_dim(m2, m1) == 0

    return _sampled(no_morphisms, "compatibility depends on the parameters")


def compatible(g1: Sequence[int], g2: Sequence[int]) -> bool:
    """No morphisms in either direction between the two brick families.

    The vanishing of the Euler form is checked first: a non-zero value
    already forces a morphism, so the modules are only built on the
    zero-form pairs.
    """
    v1, v2 = tuple(g1), tuple(g2)
    if len(v1) != len(v2):
        raise DimensionMismatch(f"lengths differ: {len(v1)} != {len(v2)}")
    z1, z2 = _brick_walk(v1), _brick_walk(v2)
    for v, z in ((v1, z1), (v2, z2)):
        if z is None:
            raise NotABrick(f"{v} is not a brick g-vector")
    if euler_form(v1, v2) != 0:
        return False
    return _compatible_walks(z1, z2, len(v1))


def hom_difference_check(z1: Sequence[gentle.Step], z2: Sequence[gentle.Step]) -> bool:
    """Assert <g(X), g(Y)> = dim Hom(X, Y) - dim Hom(Y, X)."""
    w1, w2 = tuple(z1), tuple(z2)
    if not gentle.validate_band_walk(w1) or not gentle.validate_band_walk(w2):
        raise InvalidWalk("both arguments must be band walks")
    n = 1 + max(s.index for s in w1 + w2)
    x = gentle.band_module(w1, 1, n=n)
    y = gentle.band_module(w2, gentle.distinct_lambda(w1, 1, w2, 1), n=n)
    gx = gentle.g_vector_of_band(w1, n=n)
    gy = gentle.g_vector_of_band(w2, n=n)
    return euler_form(gx, gy) == gentle.hom_dim(x, y) - gentle.hom_dim(y, x)


def witness_family(n: int) -> tuple[GVector, ...]:
    """The standard maximal mutually compatible family of brick g-vectors.

    For 1 <= i <= floor((n-1)/2): -2 at entry 1, 1 at entries i+1 and
    n-i+1; when n is even, additionally -1 at entry 1 with 1 at n/2 + 1.
    """
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


def _enumerate_brick_gvectors(n: int, box: int) -> dict[GVector, gentle.Walk]:
    # brick g-vectors with max-norm <= box, each with its canonical walk
    bricks = {}

    def extend(prefix: list[int], partial: int) -> None:
        if len(prefix) == n - 1:
            last = -partial
            if abs(last) <= box:
                candidate = tuple(prefix) + (last,)
                walk = _brick_walk(candidate) if any(candidate) else None
                if walk is not None:
                    bricks[candidate] = walk
            return
        for a in range(-box, box + 1):
            if partial + a <= 0:
                extend(prefix + [a], partial + a)

    extend([], 0)
    return bricks


def _max_clique(vertices: Sequence[int], adj: dict[int, set[int]]) -> list[int]:
    # Bron-Kerbosch with pivoting, tracking the largest clique
    best: list[int] = []

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

    expand([], set(vertices), set())
    return best


def max_compatible_search(n: int, box: int) -> tuple[int, tuple[GVector, ...]]:
    """Exact maximum set of mutually compatible brick g-vectors with
    max-norm <= box.  The standard witness family is preferred as the
    returned witness when no strictly larger clique exists."""
    if n < 2:
        raise BadDimension(f"a g-vector needs at least 2 entries, got n = {n}")
    if box < 1:
        raise BadDimension(f"the box must have max-norm at least 1, got {box}")
    walks = _enumerate_brick_gvectors(n, box)
    bricks = list(walks)
    index = {g: i for i, g in enumerate(bricks)}
    adj: dict[int, set[int]] = {i: set() for i in index.values()}
    for i, g1 in enumerate(bricks):
        for j in range(i + 1, len(bricks)):
            g2 = bricks[j]
            if euler_form(g1, g2) != 0:
                continue
            if _compatible_walks(walks[g1], walks[g2], n):
                adj[i].add(j)
                adj[j].add(i)
    seed = [g for g in witness_family(n) if g in index]
    if not all(
        index[h] in adj[index[g]] for g in seed for h in seed if h != g
    ):
        seed = []
    clique = _max_clique(list(index.values()), adj)
    if len(clique) > len(seed):
        witness = tuple(sorted(bricks[i] for i in clique))
    else:
        witness = tuple(sorted(seed))
    return len(witness), witness


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
