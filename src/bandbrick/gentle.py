"""Band walks and band modules over the gentle algebras on a double line.

For n vertices the quiver has arrows a_i, b_i : i+1 -> i (1 <= i <= n-1)
with relations b_i a_{i+1} = 0 and a_i b_{i+1} = 0.  A walk is a tuple of
int step codes, index << 2 | (kind b) << 1 | (inverse), one per signed
step, stored in written (composition) order: the rightmost step is
traversed first, and consecutive written steps x, y compose when
from(x) == to(y).  walk_from_str and walk_to_str are the only code that
reads or writes the text form, such as 'a1 b1-'.  validate_band_walk
reads each consecutive written pair c, d once, as the move
4 (d - c) + (c & 3): a non-empty primitive walk of indices at least 1
is a band walk exactly when all its moves lie in one orientation's
four, {16, 12, -13, -9} with the a-steps as arrows or {-15, 5, 18, -2}
with the b-steps as arrows.  The codes of a letter cycle or of a
multislalom segment step by 4 in index, so psi and slalom_to_band_walk
build them as ranges, and letter_cycle builds each letter's cycle once
for many calls of psi.
Each walk is validated once: psi and slalom_to_band_walk return a
_BandWalk, a tuple built only right after their own validate_band_walk
passes, and band_module does not check its moves or primitivity again,
only n and the index bound of its own n.  Every other sequence, slices,
tuple copies and mirror_walk's output included, is validated by
band_module as given.

A band module of multiplicity one is its walk with one scalar: a
BandModule holds n, lam and codes, the traversal of the walk, and
nothing else, so nothing it holds grows with n.  Its dimension vector
is derived from codes when read, as its canonical walk is.
BandModule.matrices() derives the arrows from the canonical walk as
sparse basis maps, each sending a basis vector to at most one basis
vector, and checks the gentle relations on them before it yields any
map.  All a-steps of a band walk share one sign and all b-steps the
other, and a walk and its inverse give one module, so every module reads
its walk with the a-steps as arrows.  A build does not rotate: two
modules lie on one band exactly when their codes are rotations of each
other, that is when their canonical walks are equal, and BandModule.walk
derives the canonical walk when it is read.
Hom dimensions count graph maps (Crawley-Boevey 1989, Krause 1991), read
off the two codes by one rule: a graph map starts where the source enters
a vertex by an inverse step and the target by an arrow, runs along the
longest common walk from there, of d >= 0 steps, and ends where the
source goes on by an arrow and the target by an inverse; at d = 0 it is a
top of the source over a bottom of the target.  When both modules lie on
one band, the one cycle counts too if the parameters agree.  The count
goes round both cycles, so it is the same at every rotation, and nothing
is stored for it: hom_dim, is_brick and hom_orthogonal read only the
codes.  No equation is built and the count is independent of the base
field.  The graph maps of many modules are read off one joint rotation
sort of their codes: hom_orthogonal marks which pairs have any, and
hom_dim counts those of two modules both ways.  On a walk of at most
_SCAN_STEPS steps over at most 64 vertices, where every code fits a
byte, the brick test decides each start pair by one byte comparison of
its two readings, and answers at the first graph map past the identity;
on every other walk it reads hom_orthogonal's diagonal.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .dyck import Component
from .errors import (
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
from .words import _rotation_order, is_primitive, least_rotation

# written step codes, index << 2 | (kind b) << 1 | (inverse)
Walk = tuple[int, ...]
# an arrow's shape (rows, cols) and its non-zero entries, keyed by (row, col)
ArrowMap = tuple[tuple[int, int], dict[tuple[int, int], Fraction]]

# the largest quiver band_module builds: arrow indices up to 10^6, pinned
# in tests/test_cli.py by band hom of "a1000000 b1000000-" against itself
# (its figures are in README's bounds table); nothing a module holds grows
# with n, only what is derived from it: its dims, its g-vector and its
# arrow maps
MAX_VERTICES = 10**6 + 1

# the most steps psi or slalom_to_band_walk builds: psi's walk has sum
# 2 (w_i - 1) steps over the letters, so a word of 10^4 letters over 2..5
# has at most 80,000; a slalom walk has sum |word[k] - word[k-1]| over
# its cyclic word, which dyck.MAX_STEPS does not bound, since zero
# entries of a g-vector cost no Dyck steps.  The nearly periodic walks of
# 2 followed by k fives have the longest common walks; is_brick sorts
# past _SCAN_STEPS and hom_dim always sorts, so the largest one admitted,
# a 2 followed by 18,749 fives (149,994 steps), pins band brick and band
# hom, against itself and against a 3 followed by 18,748 fives, in
# tests/test_cli.py (their figures are in README's bounds table)
MAX_WALK_STEPS = 150_000

_TOKEN = re.compile(r"([ab])([0-9]+)(-?)$")


def walk_to_str(walk: Iterable[int]) -> str:
    """Serialize a walk, written order, e.g. 'a1 b1- a1 a2 b2- b1-'."""
    return " ".join(f"{'ab'[c >> 1 & 1]}{c >> 2}{'-' * (c & 1)}" for c in walk)


def walk_from_str(text: str) -> Walk:
    """Parse the serialization produced by walk_to_str.  An index longer
    than MAX_VERTICES, leading zeros aside, raises QuiverTooLarge."""
    codes = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise InvalidWalk(f"bad step token {token!r}")
        kind, index, minus = m.groups()
        # bounded before int(), which refuses digit strings past a limit
        digits = index.lstrip("0") or "0"
        if len(digits) > len(str(MAX_VERTICES)):
            raise QuiverTooLarge(
                f"a step index of {len(digits)} digits exceeds the {MAX_VERTICES} vertices "
                "a module may have"
            )
        codes.append(int(digits) << 2 | (kind == "b") << 1 | (minus == "-"))
    if not codes:
        raise InvalidWalk("empty walk")
    return tuple(codes)


# psi meets the same few letters again and again, so each letter's cycle
# is built once; the bound holds every alphabet of up to 16 letters, and
# keeps at most 16 cycles: about 92 MB if each is of psi's largest
# admitted letter, 75,001, whose cycle of 150,000 codes takes 5.7 MB
@functools.lru_cache(maxsize=16)
def letter_cycle(i: int) -> Walk:
    """Open walk a_1 ... a_{i-1} b_{i-1}^- ... b_1^- for a letter i >= 2."""
    if i < 2:
        raise LetterOutOfRange(f"letter {i} has no cycle; letters start at 2")
    return (*range(4, i << 2, 4), *range((i << 2) - 1, 3, -4))


class _BandWalk(tuple):
    # a walk that validate_band_walk has passed: only psi and
    # slalom_to_band_walk build one, right after their own check, and
    # band_module reads an exact _BandWalk without checking its moves and
    # primitivity again.  Slicing, concatenating or copying one gives a
    # plain tuple, which is checked as any walk is
    __slots__ = ()


def psi(w: Sequence[int], n: int | None = None) -> Walk:
    """Concatenated letter cycles of a primitive word over {2..n}, each
    letter's cycle built once and reused across calls, validated once
    here.  A walk of more than MAX_WALK_STEPS steps raises WalkTooLarge
    before any step is built."""
    word = tuple(w)
    if n is None:
        n = max(word, default=0)
    letters = set(word)
    if letters and (min(letters) < 2 or max(letters) > n):
        raise LetterOutOfRange(f"letters of {word} must lie in 2..{n}")
    steps = 2 * (sum(word) - len(word))
    if steps > MAX_WALK_STEPS:
        raise WalkTooLarge(f"{steps} walk steps exceed the bound of {MAX_WALK_STEPS}")
    if not is_primitive(word):
        raise NonPrimitive(f"{word} is a proper power")
    cycles = {letter: letter_cycle(letter) for letter in letters}
    walk = tuple(itertools.chain.from_iterable(map(cycles.__getitem__, word)))
    if not validate_band_walk(walk):
        raise InternalInconsistency(f"psi{word} is not a band walk")
    return _BandWalk(walk)


# the moves 4 (d - c) + (c & 3) of a band walk's consecutive written
# steps c, d: with its a-steps as arrows, or with its b-steps as arrows
# (see validate_band_walk)
_MOVES = (frozenset({16, 12, -13, -9}), frozenset({-15, 5, 18, -2}))


def validate_band_walk(walk: Sequence[int], n: int | None = None) -> bool:
    """All band conditions: a composable primitive cycle of arrows with
    indices at least 1 (and below n, when n is given) whose a-steps share
    one sign and whose b-steps share the other.

    On a composable cycle the sign rule says the walk is reduced and
    avoids the relations and their inverses: two composable steps of one
    sign form a relation exactly when their kinds differ, and at a sign
    change composability forces equal indices, so the pair backtracks
    exactly when the kind stays.

    So each written pair c, d, with d the next step round the cycle, is
    read once, as its move 4 (d - c) + (c & 3), which names c & 3 (the
    move modulo 4) and d - c.  The arrow of index i runs i + 1 -> i and
    its inverse i -> i + 1, and c comes right after d in the traversal,
    so c leaves the vertex d enters.  With the a-steps as arrows (code &
    3 of 0) and the b-steps as inverses (3), the legal pairs are

        c = a_i,    d = a_{i+1}:     d - c = 4,   move 16
        c = a_i,    d = b_i^-:       d - c = 3,   move 12
        c = b_i^-,  d = b_{i-1}^-:   d - c = -4,  move -13
        c = b_i^-,  d = a_i:         d - c = -3,  move -9

    and with the a-steps as inverses (1) and the b-steps as arrows (2)

        c = a_i^-,  d = a_{i-1}^-:   d - c = -4,  move -15
        c = a_i^-,  d = b_i:         d - c = 1,   move 5
        c = b_i,    d = b_{i+1}:     d - c = 4,   move 18
        c = b_i,    d = a_i^-:       d - c = -1,  move -2

    A walk is a composable cycle obeying the sign rule exactly when its
    moves lie in one of these sets.  Both signs then occur: a walk of
    arrows alone raises the index at every written step, one of inverses
    alone lowers it, and neither closes a cycle.  The empty walk has no
    moves, so it is refused first.
    """
    if not walk or min(walk) < 4 or (n is not None and max(walk) >= n << 2):
        return False
    moves = set()
    c = walk[-1]
    for d in walk:  # a loop beats a comprehension over zipped pairs here
        moves.add(4 * (d - c) + (c & 3))
        c = d
    if not (moves <= _MOVES[0] or moves <= _MOVES[1]):
        return False
    return is_primitive(walk)


def canonical_walk(walk: Sequence[int]) -> Walk:
    """Minimal rotation under the order a < b, index order, +1 < -1."""
    walk = tuple(walk)
    # shifting the b-codes past every a-code orders the ints this way
    shift = 1 + max(walk, default=0) - min(walk, default=0)
    k = least_rotation([c + shift if c & 2 else c for c in walk])
    return walk[k:] + walk[:k]


def mirror_walk(walk: Sequence[int], n: int) -> Walk:
    """The walk tau(walk) over n vertices: index k becomes n - k on every
    step, kind and sign kept, and the written order is reversed.  The
    mirror i -> n + 1 - i of the vertices turns the quiver into its
    opposite, so M(tau(x)) is the vector-space dual of M(x):
    Hom(M(x), M(y)) = Hom(M(tau y), M(tau x)) and g(M(tau x)) is
    -reverse(g(M(x))).  tau is an involution."""
    return tuple((n - (c >> 2)) << 2 | c & 3 for c in reversed(walk))


class BandModule:
    """Exact-rational representation attached to a band walk.

    Three fields: n vertices, the parameter lam, and codes, the walk as
    band_module was given it, a-steps as arrows, in traversal order, so
    codes[t] is step t, from basis t to t + 1; the build does not rotate
    it.  Everything else is read off codes, derived on each read: dims,
    dims[i] the dimension at vertex i+1; walk, the canonical walk in
    written order, canonical_walk of codes[::-1], which names the band;
    g_vector(), which counts the turns of codes.  hom_dim sorts the codes
    (see hom_orthogonal); is_brick scans them up to _SCAN_STEPS steps over
    at most 64 vertices and sorts them otherwise.  The arrows are not
    stored: matrices() derives their sparse basis maps from the canonical
    walk, with lam on the wrap-around step, an a-step, and 1 on every
    other step.

    == and repr read only n, dims, lam and walk, so two modules built
    from two rotations of one band are equal, and a module is unhashable.
    The constructor states the one parameter rule: lam is an int, which
    is converted to a Fraction, or a Fraction; any other type, bool,
    float and str included, raises TypeError, and 0 raises ZeroLambda, so
    every module holds a non-zero Fraction of exactly the value given.
    module.replace(lam=mu) changes lam only: it is the member mu of the
    same family, sharing n and codes, with mu held to that rule.
    """

    __slots__ = ("n", "lam", "codes")
    __hash__ = None

    def __init__(self, n: int, lam: Fraction | int, codes: tuple[int, ...]) -> None:
        if type(lam) is not Fraction:
            if type(lam) is not int:
                raise TypeError(f"lam must be an int or a Fraction, not {type(lam).__name__}")
            lam = Fraction(lam)
        if not lam:
            raise ZeroLambda("the band parameter must be non-zero")
        self.n = n
        self.lam = lam
        self.codes = codes

    @property
    def dims(self) -> tuple[int, ...]:
        """dims[i], the dimension at vertex i+1: the steps entering it."""
        count = [0] * (self.n + 1)
        for c in self.codes:
            # codes is a composable cycle, so it enters each vertex as often
            # as it leaves it: the arrow 4i enters vertex i and the inverse
            # 4i + 3 vertex i + 1, both (c + 1) >> 2
            count[c + 1 >> 2] += 1
        return tuple(count[1:])

    @property
    def walk(self) -> Walk:
        """The canonical walk of the band, a-steps as arrows."""
        return canonical_walk(self.codes[::-1])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.lam == other.lam and _one_band(self, other)

    def __repr__(self) -> str:
        return (
            f"BandModule(n={self.n!r}, dims={self.dims!r}, lam={self.lam!r}, "
            f"walk={self.walk!r})"
        )

    def replace(self, *, lam: Fraction | int) -> BandModule:
        """The member lam of the same family, sharing n and codes; lam is
        held to the constructor's rule."""
        return BandModule(self.n, lam, self.codes)

    def g_vector(self) -> tuple[int, ...]:
        """Tops minus bottoms per vertex: a top where an inverse step is
        followed by an arrow, a bottom where an arrow is followed by an
        inverse step."""
        g = [0] * self.n
        codes = self.codes
        for prev, c in zip(codes[-1:] + codes[:-1], codes):
            if prev & 1 != c & 1:
                # a top at vertex index + 1, left by the arrow c; a bottom
                # at vertex index, left by the inverse c
                g[(c >> 2) - (c & 1)] += 1 - 2 * (c & 1)
        return tuple(g)

    def matrices(self) -> Iterator[tuple[tuple[str, int], ArrowMap]]:
        """Sparse basis map of every arrow, a_1 .. a_{n-1} then b_1 .. b_{n-1},
        keyed by (kind, index): its shape dims[index-1] x dims[index] and a
        dict from the (row, col) of each non-zero entry to its value, one
        shared Fraction(1) on every step and lam on the wrap-around step.

        The basis maps of all arrows come from two passes over the
        canonical walk, not from one per arrow, and meet the gentle
        relation check before the first map is yielded.  The basis
        numbering and the step that holds lam are therefore the same for
        every rotation the module was built from.
        """
        codes = self.walk[::-1]
        count = [0] * (self.n + 1)  # the dimension at each vertex, once done
        node = []  # basis index of node t, where step t starts
        for c in codes:
            v = (c >> 2) + 1 - (c & 1)
            node.append(count[v])
            count[v] += 1
        arrows: dict[tuple[str, int], dict[int, int]] = {}
        for c, here, there in zip(codes, node, node[1:] + node[:1]):
            if c & 1:
                here, there = there, here
            arrows.setdefault(("ab"[c >> 1 & 1], c >> 2), {})[here] = there
        _check_relations(arrows, len(node))
        lam_key = ("ab"[c >> 1 & 1], c >> 2)  # the loop ends on the wrap-around step
        one = Fraction(1)
        for kind, index in itertools.product("ab", range(1, self.n)):
            entries = {(row, col): one for col, row in arrows.get((kind, index), {}).items()}
            if (kind, index) == lam_key:
                entries[there, here] = self.lam
            yield (kind, index), ((count[index], count[index + 1]), entries)


def band_module(
    walk: Sequence[int], lam: Fraction | int, n: int | None = None
) -> BandModule:
    """Band module of a walk with parameter lam (multiplicity 1).

    n defaults to the smallest quiver holding the walk and may not exceed
    MAX_VERTICES.  The walk is checked with validate_band_walk, unless it
    is an exact _BandWalk, which psi or slalom_to_band_walk validated as
    they built it; every walk has its indices checked against n.  The
    walk is inverted when its a-steps are inverse arrows (a walk and its
    inverse with one parameter give isomorphic modules, and lam sits on an
    a-step either way), but not rotated: two modules lie on one band
    exactly when their codes are rotations of each other, and
    BandModule.walk names the band by its least rotation when read.  The
    module keeps the traversal and lam and counts nothing: dims are
    derived when read, and no arrow is built (BandModule.matrices()
    derives them and checks the relations there).  lam is held to the
    rule of BandModule, which takes an int or a Fraction, raises TypeError
    for any other type and ZeroLambda at 0, as BandModule.replace does for
    every other member.
    """
    checked = type(walk) is _BandWalk
    if not checked:
        walk = tuple(walk)
    if n is None:
        n = 1 + (max(walk, default=0) >> 2)
    if n > MAX_VERTICES:
        raise QuiverTooLarge(f"n = {n} exceeds the {MAX_VERTICES} vertices a module may have")
    # a _BandWalk is a non-empty band walk of indices at least 1, so only
    # the bound of this n is left to check
    if not (max(walk) < n << 2 if checked else validate_band_walk(walk, n)):
        raise InvalidWalk(f"not a band walk: {walk_to_str(walk)}")
    # by the sign rule just checked, the a-steps are inverse arrows exactly
    # when walk[0] is an inverse a-step (code & 3 == 1) or a b-arrow (2);
    # the inverse walk is traversed as the walk is written, each step flipped
    if walk[0] & 3 in (1, 2):
        trav = tuple(c ^ 1 for c in walk)
    else:
        trav = walk[::-1]
    return BandModule(n, lam, trav)


def _check_relations(arrows: dict[tuple[str, int], dict[int, int]], r: int) -> None:
    # each step writes one entry, so a lost one means two steps share a
    # source; b_i a_{i+1} and a_i b_{i+1} vanish when no image of the
    # second arrow is a source of the first
    if sum(len(arrow) for arrow in arrows.values()) != r:
        raise InternalInconsistency("two steps send one vector along one arrow")
    for (kind, idx), second in arrows.items():
        first = arrows.get(("b" if kind == "a" else "a", idx - 1))
        if first and any(row in first for row in second.values()):
            raise InternalInconsistency(f"a relation through {kind}{idx} does not vanish")


def hom_dim(m: BandModule, w: BandModule) -> int:
    """Dimension of the space of morphisms m -> w, counted as graph maps.

    Both modules come from band_module, so both walks read their a-steps
    as arrows.  A graph map is a free component of the pair graph: its
    nodes pair a basis vector of m with one of w at the same vertex, and
    an edge joins two nodes when both modules move along one arrow, so
    every component is a path or a cycle.  The free ones are the maximal
    common walks, of d >= 0 steps, whose two ends are admissible (m
    leaves the end by an arrow out of it, w by an arrow into it; at
    d = 0 that is a top of m over a bottom of w), and the one cycle when
    m and w lie on one band, free when the parameters agree.  A common
    walk of m and the inverse of w would pair an a-step read as an arrow
    with one read as an inverse arrow, so there is none.  Both counts go
    round the cycles, so the rotations the modules were built from do not
    matter.  A call reads only the two codes: the common walks are
    counted both ways in one joint rotation sort of them (see
    hom_orthogonal), which grows about linearly in the steps whatever
    the shape of the walks.  Equal codes mean one band; when the codes
    differ but the dims agree, the canonical walks decide.
    """
    return _hom_pair(m, w)[0]


def _hom_pair(m: BandModule, w: BandModule) -> tuple[int, int]:
    # (dim Hom(m, w), dim Hom(w, m)).  A graph map x -> y is a source start
    # of x and a start of y in one vertex block of the joint sort, x's
    # sorted first (see hom_orthogonal), so one forward sweep counts, in
    # each block, the source starts seen so far and adds that count at
    # each start.  Modules of two bands are sorted together, and a start
    # adds the other module's source starts.  Two modules of one band have
    # the graph maps of either one with itself, both ways, so m is sorted
    # alone and a start adds m's: a second copy would tie with m at every
    # position, so the sort would double its prefixes up to its bound
    if m.n != w.n:
        raise DimensionMismatch(f"modules over different quivers: {m.n} != {w.n}")
    one_band = _one_band(m, w)
    letters, owner, source, order = _joint_sort((m,) if one_band else (m, w))
    other = 0 if one_band else 1  # k ^ other: the module whose source starts count
    maps = [0, 0]  # graph maps into m and into w
    block = 0
    for p in order:
        if letters[p] >> 1 != block:
            block, seen = letters[p] >> 1, [0, 0]  # source starts of m and of w
        k = owner[p]
        if source[p]:
            seen[k] += 1
        else:
            maps[k] += seen[k ^ other]
    if one_band:
        maps[1] = maps[0]
    # both modules put lam on an a-step, read as an arrow, so on one band
    # the cycle is free, both ways, exactly when the parameters agree
    cycle = one_band and m.lam == w.lam
    return maps[1] + cycle, maps[0] + cycle


def _one_band(m: BandModule, w: BandModule) -> bool:
    # equal codes are one band; rotations of one band also have equal dims,
    # derived in one pass each and cheaper than a least rotation, so the
    # canonical walks are read last
    return m.codes == w.codes or (m.dims == w.dims and m.walk == w.walk)


def _first_endomorphism(x: Sequence[int]) -> tuple[int, int] | None:
    # the (i, j) of the first admissible common walk x[i:i+d] == x[j:j+d],
    # d >= 0, an endomorphism past the identity, or None.  A start is
    # admissible when the source reading enters it by an inverse and the
    # target by an arrow, so each walk is found once, from its first step;
    # an end when the source leaves it by an arrow and the target by an
    # inverse.  The arrow a_{u-1} leaving vertex u has code c = 4u - 4 and
    # the inverse b_u^- code c + 7: against a target step c + 7 the start
    # is the end, a top over a bottom; against c, where the two readings
    # first differ one leaves by the arrow and the other by the inverse, so
    # the end is admissible exactly when the source's r letters sort first.
    # The r-th letters, the steps before the starts, are an inverse and an
    # arrow, so the two readings never tie, even on a proper power
    starts: dict[int, list[int]] = {}  # the positions x enters by an arrow
    prev = x[-1]
    for j, c in enumerate(x):
        if not prev & 1:
            if c in starts:
                starts[c].append(j)
            else:
                starts[c] = [j]
        prev = c
    r = len(x)
    # the codes as bytes, which is_brick admits only up to n = 64, where
    # every code is below 4n <= 256; doubled, so each reading is one slice
    xs = bytes(x) * 2
    prev = x[-1]
    for i, c in enumerate(x):
        if prev & 1:
            if c + 7 in starts:
                return i, starts[c + 7][0]
            for j in starts.get(c, ()):
                if xs[i : i + r] < xs[j : j + r]:
                    return i, j
        prev = c
    return None


def _joint_sort(
    modules: Sequence[BandModule],
) -> tuple[list[int], list[int], list[int], list[int]]:
    # the codes of the modules laid end to end, each step relabelled by
    # the vertex it leaves (see hom_orthogonal); the module owning each
    # step; 1 where the step before is an inverse arrow; and every position
    # in the order of one joint rotation sort
    cycles: list[list[int]] = []
    owner: list[int] = []
    source: list[int] = []
    for k, m in enumerate(modules):
        codes = m.codes
        cycle: list[int] = []
        prev = codes[-1]
        for c in codes:  # one pass, which beats a comprehension per list
            cycle.append((c >> 2 << 1) + 2 - (c & 1))
            source.append(prev & 1)
            prev = c
        cycles.append(cycle)
        owner += [k] * len(codes)
    letters = [*itertools.chain.from_iterable(cycles)]
    return letters, owner, source, _rotation_order(cycles)


def hom_orthogonal(modules: Sequence[BandModule]) -> list[int]:
    """Bit j of entry i is set when no graph map joins modules[i] and
    modules[j], either way.  On distinct bands that means no morphism; bit
    i means a brick, End one-dimensional.  Modules of one band, whatever
    their parameters, rotations or orientation, have the graph maps of
    either one with itself, so every bit between them is the brick bit.

    Label each step 2v for the arrow a_{v-1} and 2v + 1 for the inverse
    b_v^- that leave vertex v.  A graph map of x into y (see hom_dim) is
    then a source start of x and a start of y leaving one vertex, x's
    rotation sorted first: past their common walk, empty for a top over a
    bottom, x goes on by an arrow and y by an inverse; with y = x, these
    are the endomorphisms is_brick looks for.  The relabelled codes of
    every module are the cycles of one joint sort, and one sweep each way
    reads it.
    """
    letters, owner, source, order = _joint_sort(modules)
    # forward, the source starts of each vertex block mark the starts after
    # them; backward, the starts mark the source starts before them
    linked = [0] * len(modules)  # bit j of linked[i]: a non-identity map either way
    for sweep, marking in ((order, 1), (order[::-1], 0)):
        block = seen = 0
        for p in sweep:
            if letters[p] >> 1 != block:
                block, seen = letters[p] >> 1, 0
            if source[p] == marking:
                seen |= 1 << owner[p]
            elif seen:
                linked[owner[p]] |= seen
    everything = (1 << len(modules)) - 1
    return [everything ^ mask for mask in linked]


# is_brick scans a walk of at most this many steps over at most 64 vertices
# and sorts every other one.
# On a brick the scan compares every start pair, one byte slice each, so
# it grows about as the square of the steps, and the sort about linearly.
# Per call, on 25 bricks per band of steps (2-5 for a 2 then k fives),
# in microseconds (Python 3.11, 2 CPUs):
#
#   steps                    0-39 40-79 80-119 120-159 160-199 200-239 240-255
#   psi bricks, 2..5   scan     8    14     33      61      98     122     149
#                      sort    21    32     63     118     163     201     229
#   n = 3 components   scan     7    17     45      76     138     168     267
#                      sort    17    35     88     130     177     208     232
#   2 then k fives     scan     4     9     14      20      26      32      35
#                      sort    16    38     79     117     156     186     203
#
# A non-brick stops the scan at its first map: on 200 psi non-bricks of
# 86-236 steps the scan took 11 us, the sort 94 us.  So walks of up to
# 240 steps are scanned, brick-sweep's of about 31 included, and past it,
# where n = 3 components meet the crossover, a non-brick pays the sort:
# on random psi non-bricks it took 0.13 s at 50,058 steps and 0.63 s at
# 144,952
_SCAN_STEPS = 240


def is_brick(m: BandModule) -> bool:
    """True iff the endomorphism space of m is one-dimensional.

    End counts the identity cycle and each admissible common walk of m
    with itself, of d >= 0 steps (see hom_dim).  On a walk of at most
    _SCAN_STEPS steps over at most 64 vertices, where every code fits a
    byte, the test scans for the first such walk, one byte comparison per
    start pair, so only a brick runs the whole scan; on every other walk
    it reads the diagonal bit of hom_orthogonal's sort.
    """
    if len(m.codes) <= _SCAN_STEPS and m.n <= 64:
        return _first_endomorphism(m.codes) is None
    return bool(hom_orthogonal([m])[0] & 1)


def ext1_dim(x: BandModule, y: BandModule) -> int:
    """dim Ext^1(x, y), which equals dim Hom(y, x) for band modules."""
    return hom_dim(y, x)


def g_vector_of_band(walk: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """Top-minus-bottom vertex counts of the cyclic walk, read off its
    band module (see BandModule.g_vector)."""
    return band_module(walk, 1, n).g_vector()


def slalom_to_band_walk(component: Component) -> Walk:
    """Band walk of one closed multislalom component, read off its word.

    Segment k of the curve runs from label word[k-1] to label word[k]: on
    copy 1 when k is even, on copy 2 when it is odd.  A copy-1 segment
    from edge i up to edge j contributes b_i^- ... b_{j-1}^-; a copy-2
    segment from edge j down to edge i contributes a_{j-1} ... a_i.  The
    walk is validated once, here.  A walk of more than MAX_WALK_STEPS
    steps raises WalkTooLarge before any step is built.
    """
    word = component.word
    steps = sum(abs(end - word[k - 1]) for k, end in enumerate(word))
    if steps > MAX_WALK_STEPS:
        raise WalkTooLarge(f"{steps} walk steps exceed the bound of {MAX_WALK_STEPS}")
    trav: list[int] = []
    for k, end in enumerate(word):
        start = word[k - 1]
        if k % 2 == 0:
            if start >= end:
                raise InvalidComponent(
                    f"copy-1 segment must ascend, got {start} -> {end}"
                )
            trav.extend(range(start << 2 | 3, end << 2 | 3, 4))
        else:
            if start <= end:
                raise InvalidComponent(
                    f"copy-2 segment must descend, got {start} -> {end}"
                )
            trav.extend(range((start - 1) << 2, (end - 1) << 2, -4))
    walk = tuple(reversed(trav))
    if not validate_band_walk(walk):
        raise InvalidComponent("segments do not close into a band walk")
    return _BandWalk(walk)
