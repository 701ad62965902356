"""Euler form, compatibility of band bricks, and brick tests.

The Euler form on g-vectors is sum(a_i b_i) + 2 sum_{i<j} a_i b_j, skew
symmetric on the zero-sum hyperplane.  Two brick g-vectors are compatible
when the bricks admit no morphisms either way; a vanishing Euler form is
necessary but not sufficient.  Each brick is one band module at
parameter 1: gentle.hom_dim reads the parameter only on the cycle two
modules of one band share, so every other count is the same at every
parameter.  A brick is compatible with itself: Hom between two members
of its family counts End minus 1, which the brick test has found to be 0.
compatible and the fan search decide by one rule, no morphism either
way: compatible reads gentle.hom_orthogonal, one joint rotation sort
whose diagonal is the End check of every module it sorts, and so does
the fan search past n = 3; at n = 3 it reads gentle.is_brick (see
below).

The enumeration does each mirror pair's work once.  The mirror
k -> n - k of the arrow indices identifies the double-line algebra with
its opposite, so the vector-space dual D = Hom_k(-, k) sends the band
module of a walk x to the band module of gentle.mirror_walk(x), and
sends the graph maps X -> Y to the graph maps DY -> DX.  With
sigma(g) = -reverse(g):

    g(D X) = sigma(g(X))    and    Hom(X, Y) = Hom(D Y, D X),

so g is a brick g-vector exactly when sigma(g) is.  The enumeration
traces only the g <= sigma(g) and builds the other bricks from their
mirrors.  The compatibility graph of all bricks then comes from one
joint rotation sort of their walks, gentle.hom_orthogonal, with no
Euler-form prefilter: Hom vanishing both ways already forces the form
to vanish.  The diagonal of that sort is the End check of every module
the enumeration built, traced or mirrored.  At n = 3 there is no sort:
the form of (-a-b, a, b) and (-c-d, c, d) is ad - bc, which two distinct
bricks never make 0, since a brick has gcd(a, b) = 1 and valid g-vectors
lie in a pointed cone, so the graph has no edge and each brick runs
gentle.is_brick.  The search returns the graph, and the max-compat suite
checks it against the Euler form and the components of each sum.

The enumeration traces a candidate only when no run of its labels
closes first: labels m..j, after a non-zero label, whose running sums
stay <= 0 and sum to 0.  Each down-step of the run closes an up-step of
the run and gluing stays inside a label block, so the run's steps close
among themselves and every completion has a second component.  On the
six fan-search boxes this traces 354 candidates for 476 bricks, and at
(10, 2) 2,089 for 4,097 bricks.  The clique search is MCQ: it colours
each branch's candidates greedily and cuts the branch once its clique
and colour cannot beat the best clique.
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
    SearchTooLarge,
)

GVector = tuple[int, ...]

# bound on the (2 box + 1)^(n - 1) prefixes max_compatible_search may
# enumerate; time also grows with the walk lengths, so the slowest
# admitted search is n = 3, box = 70 (0.41-0.55 s in process over eight
# fresh interpreters, Python 3.11, 2 CPUs, most of it is_brick on long
# walks, since n = 3 has no sort; fan maxcompat --n 3 --box 70 is the
# pin in tests/test_cli.py, whose figures are in README's bounds table),
# while (4, 13) takes 0.23-0.25 s, (6, 3) 0.02 s and (7, 2)
# 0.01-0.02 s
MAX_SEARCH_PREFIXES = 20_000

# the parameter of every brick module the search builds, shared so that
# band_module converts no int on each build
_ONE = Fraction(1)


def euler_form(x: Sequence[int], y: Sequence[int]) -> int:
    """sum(x_i y_i) + 2 sum_{i<j} x_i y_j."""
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths differ: {len(x)} != {len(y)}")
    return sum(map(operator.mul, _euler_row(x), y))


def _euler_row(x: Sequence[int]) -> list[int]:
    # c_j = x_j + 2 sum_{i<j} x_i, so euler_form(x, y) == sum(c_j y_j)
    return [2 * prefix - xj for prefix, xj in zip(itertools.accumulate(x), x)]


def _component_module(g: Sequence[int]) -> gentle.BandModule | None:
    # band module at parameter 1 of the one component of g, End unchecked
    entries = tuple(g)
    component = dyck.single_component(entries)  # raises InvalidGVector
    if component is None:
        return None
    return gentle.band_module(gentle.slalom_to_band_walk(component), _ONE, len(entries))


def _brick_module(g: Sequence[int]) -> gentle.BandModule | None:
    # band module of a brick g-vector at parameter 1, None when g decomposes
    module = _component_module(g)
    if module is not None and not gentle.is_brick(module):
        raise InternalInconsistency(f"single component of {tuple(g)} is not a brick")
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

    Both modules are read off one joint rotation sort,
    gentle.hom_orthogonal, whose diagonal is the End check of each; no
    Euler form is computed, since Hom vanishing both ways forces it to
    vanish.  A brick is compatible with itself: between two members of
    its family Hom has dimension End - 1 each way, and the sort of its
    one module has found End = 1.
    """
    v1, v2 = tuple(g1), tuple(g2)
    if len(v1) != len(v2):
        raise DimensionMismatch(f"lengths differ: {len(v1)} != {len(v2)}")
    x = _component_module(v1)
    y = x if v1 == v2 else _component_module(v2)
    for v, m in ((v1, x), (v2, y)):
        if m is None:
            raise NotABrick(f"{v} is not a brick g-vector")
    adj = gentle.hom_orthogonal([x] if y is x else [x, y])
    for i, v in enumerate((v1, v2)[: len(adj)]):
        if not adj[i] >> i & 1:
            raise InternalInconsistency(f"single component of {v} is not a brick")
    # bit 1 of entry 0, or for one module its End bit, just checked
    return bool(adj[0] >> (len(adj) - 1) & 1)


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
        y = y.replace(lam=2)
    euler = euler_form(x.g_vector(), y.g_vector())
    return (*gentle._hom_pair(x, y), euler)  # both ways from one joint sort


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
    # with its band module, End unchecked.  The prefixes are built level by
    # level: one whose last labels close a run (_closes_run) is dropped,
    # and so is one too deep for its remaining entries, each at most box,
    # to bring back to 0.  A prefix back at 0 after a non-zero entry takes
    # only zeros: a negative entry there would open a run that the last
    # label closes, so the leaves need no check.  Only the leaves
    # g <= sigma(g) are traced: g is a brick exactly when sigma(g) is,
    # whose module is built from the mirror of the walk of g
    level = [((), 0)]
    for rest in range(n - 1, 0, -1):
        # rest entries follow the next one, the last included
        level = [
            (prefix + (a,), partial + a)
            for prefix, partial in level
            for a in range(
                -min(box, box * rest + partial) if partial or not any(prefix) else 0,
                min(box, -partial) + 1,
            )
            if a <= 0 or not _closes_run(prefix + (a,))
        ]
    bricks = {}
    for prefix, partial in level:
        g = prefix + (-partial,)
        mirror = _sigma(g)
        if g > mirror or not any(g):
            continue
        module = _component_module(g)
        if module is not None:
            bricks[g] = module
            if mirror != g:
                bricks[mirror] = _mirror_module(module)
    return {g: bricks[g] for g in sorted(bricks)}


def _closes_run(prefix: GVector) -> bool:
    # prefix ends in a positive entry: True when its last labels m..j,
    # m >= 2, close a run after a non-zero label (see the module
    # docstring).  Read backwards from j, the sums stay > 0 until the run
    # closes at 0 or can no longer close
    total = 0
    for m in range(len(prefix) - 1, 0, -1):
        total += prefix[m]
        if total <= 0:
            return not total and any(prefix[:m])
    return False


def _mirror_module(module: gentle.BandModule) -> gentle.BandModule:
    # the module of sigma(g), where module is the module of g: the dual of
    # module, on the mirror of its walk as built; the search checks its End
    return gentle.band_module(gentle.mirror_walk(module.codes[::-1], module.n), _ONE, module.n)


def _max_clique(adj: list[int], best: list[int]) -> list[int]:
    # MCQ (Tomita and Seki, DMTCS 2003) on bit masks (bit j of adj[i]: the
    # edge ij) from the clique best, replaced only by a strictly larger
    # one, so the witness is the seed or the first larger clique found.
    # Each branch colours its candidates greedily and takes them from the
    # last colour back; a clique takes at most one vertex of each class, so
    # once the clique and the colour cannot beat best, neither can any
    # candidate left, all of lower colour.  A candidate with no neighbour
    # left among them ends the clique, which then beats best if longer

    def expand(clique: list[int], candidates: int) -> None:
        nonlocal best
        for v, colour in reversed(_colour_classes(adj, candidates)):
            if len(clique) + colour <= len(best):
                return
            rest = candidates & adj[v]
            if rest:
                expand(clique + [v], rest)
            elif len(clique) >= len(best):
                best = clique + [v]
            candidates ^= 1 << v

    expand([], (1 << len(adj)) - 1)
    return best


def _colour_classes(adj: list[int], vertices: int) -> list[tuple[int, int]]:
    # (vertex, colour) for a greedy colouring of the vertices, colours from
    # 1, each class built in ascending order from the vertices left
    coloured = []
    colour = 0
    while vertices:
        colour += 1
        free = vertices
        while free:
            low = free & -free
            v = low.bit_length() - 1
            coloured.append((v, colour))
            vertices ^= low
            free &= ~(adj[v] | low)
    return coloured


def max_compatible_search(n: int, box: int) -> tuple[int, tuple[GVector, ...]]:
    """Exact maximum set (size, witness) of mutually compatible brick
    g-vectors with max-norm <= box, found by _compatibility_search.  The
    witness is the standard witness family when no strictly larger clique
    exists, and otherwise the first strictly larger clique in the order
    of the MCQ search."""
    witness, _, _ = _compatibility_search(n, box)
    return len(witness), witness


def _compatibility_search(
    n: int, box: int
) -> tuple[tuple[GVector, ...], list[GVector], list[int]]:
    # (witness, bricks, adj): the clique, the bricks in enumeration order
    # and the graph of the clique, bit j of adj[i] when bricks i and j
    # are compatible
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
    if n == 3:
        # no edge, as the module docstring shows, if every gcd(a, b) is 1;
        # each brick runs its own End check
        for g in bricks:
            if math.gcd(*g[1:]) != 1:
                raise InternalInconsistency(f"the brick {g} has gcd(a, b) != 1")
        adj = [gentle.is_brick(modules[g]) << i for i, g in enumerate(bricks)]
    else:
        adj = gentle.hom_orthogonal(list(modules.values()))
    # bit i of adj[i] is the End check of brick i
    for i, g in enumerate(bricks):
        if not adj[i] >> i & 1:
            mirror = _sigma(g)
            fault = f"mirror of the brick {mirror}" if mirror < g else f"single component of {g}"
            raise InternalInconsistency(f"{fault} is not a brick")
        adj[i] ^= 1 << i
    index = {g: i for i, g in enumerate(bricks)}
    seed = [index[g] for g in witness_family(n) if g in index]
    if not all(adj[i] >> j & 1 for i in seed for j in seed if j != i):
        seed = []
    witness = tuple(sorted(bricks[i] for i in _max_clique(adj, seed)))
    return witness, bricks, adj


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
