"""Band walks and band modules over the gentle algebras on a double line.

For n vertices the quiver has arrows a_i, b_i : i+1 -> i (1 <= i <= n-1)
with relations b_i a_{i+1} = 0 and a_i b_{i+1} = 0.  Walks are cyclic
sequences of signed steps stored in written (composition) order: the
rightmost step is traversed first, and consecutive written steps x, y
compose when from(x) == to(y).

A band module of multiplicity one is its walk with one scalar: only the
arrows the walk uses are stored, each sending a basis vector to at most
one basis vector, and the scalar is stored once with its entry, so the
members of a family share their basis maps.  The gentle relations are
checked on every build in one pass over the walk.  All a-steps of a band
walk share one sign and all b-steps the other, and a walk and its inverse
give one module, so every module reads its walk with the a-steps as
arrows.  Hom dimensions count graph maps (Crawley-Boevey 1989, Krause
1991): a top of the source over a bottom of the target, a maximal common
subwalk of the two walks whose ends are admissible, and, when both
modules lie on one band, the one cycle if the parameters agree.  No
equation is built and the count is independent of the base field.
"""

from __future__ import annotations

import collections
import itertools
import re
from dataclasses import dataclass
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
    ZeroLambda,
)
from .words import is_primitive, least_rotation


@dataclass(frozen=True)
class Step:
    """One signed letter of a walk: arrow kind 'a' or 'b', its index and
    exponent +1 (the arrow) or -1 (its formal inverse)."""

    kind: str
    index: int
    exp: int

    def inverse(self) -> "Step":
        return Step(self.kind, self.index, -self.exp)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}{'-' if self.exp < 0 else ''}"


Walk = tuple[Step, ...]

# traversal endpoints: the arrow runs index+1 -> index, its inverse the
# other way
def step_from(s: Step) -> int:
    return s.index + 1 if s.exp > 0 else s.index


def step_to(s: Step) -> int:
    return s.index if s.exp > 0 else s.index + 1


def _walk_key(walk: Walk) -> list[tuple[str, int, int]]:
    return [(s.kind, s.index, 0 if s.exp > 0 else 1) for s in walk]


_TOKEN = re.compile(r"([ab])(\d+)(-?)$")


def walk_to_str(steps: Iterable[Step]) -> str:
    """Serialize a walk, written order, e.g. 'a1 b1- a1 a2 b2- b1-'."""
    return " ".join(str(s) for s in steps)


def walk_from_str(text: str) -> Walk:
    """Parse the serialization produced by walk_to_str."""
    steps = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise InvalidWalk(f"bad step token {token!r}")
        kind, index, minus = m.groups()
        steps.append(Step(kind, int(index), -1 if minus else 1))
    if not steps:
        raise InvalidWalk("empty walk")
    return tuple(steps)


def letter_cycle(i: int) -> Walk:
    """Open walk a_1 ... a_{i-1} b_{i-1}^- ... b_1^- for a letter i >= 2."""
    if i < 2:
        raise LetterOutOfRange(f"letter {i} has no cycle; letters start at 2")
    ups = [Step("a", k, 1) for k in range(1, i)]
    downs = [Step("b", k, -1) for k in range(i - 1, 0, -1)]
    return tuple(ups + downs)


def psi(w: Sequence[int], n: int | None = None) -> Walk:
    """Concatenated letter cycles of a primitive word over {2..n}."""
    word = tuple(w)
    if n is None:
        n = max(word, default=0)
    if any(letter < 2 or letter > n for letter in word):
        raise LetterOutOfRange(f"letters of {word} must lie in 2..{n}")
    if not is_primitive(word):
        raise NonPrimitive(f"{word} is a proper power")
    steps: list[Step] = []
    for letter in word:
        steps.extend(letter_cycle(letter))
    walk = tuple(steps)
    if not validate_band_walk(walk):
        raise InternalInconsistency(f"psi{word} is not a band walk")
    return walk


# the two sign patterns of a band walk, a-steps as arrows first
_ORIENTATIONS = ({("a", 1), ("b", -1)}, {("a", -1), ("b", 1)})


def validate_band_walk(steps: Sequence[Step], n: int | None = None) -> bool:
    """All band conditions: a composable primitive cycle whose a-steps
    share one sign and whose b-steps share the other.

    On a composable cycle the sign rule says the walk is reduced and
    avoids the relations and their inverses: two composable steps of one
    sign form a relation exactly when their kinds differ, and at a sign
    change composability forces equal indices, so the pair backtracks
    exactly when the kind stays.
    """
    walk = tuple(steps)
    if n is not None and any(s.index < 1 or s.index >= n for s in walk):
        return False
    if {(s.kind, s.exp) for s in walk} not in _ORIENTATIONS:
        return False
    if any(step_from(x) != step_to(y) for x, y in zip(walk, walk[1:] + walk[:1])):
        return False
    return is_primitive(walk)


def canonical_walk(steps: Sequence[Step]) -> Walk:
    """Minimal rotation under the order a < b, index order, +1 < -1."""
    walk = tuple(steps)
    k = least_rotation(_walk_key(walk))
    return walk[k:] + walk[:k]


def _inverse(walk: Walk) -> Walk:
    return tuple(s.inverse() for s in reversed(walk))


def canonical_band(steps: Sequence[Step], lam: Fraction | int) -> tuple[Walk, Fraction]:
    """Canonical (walk, parameter) of a band module, up to isomorphism.

    The walk is read with its a-steps as arrows, inverted when they are
    inverse arrows, then rotated by canonical_walk.  lam stays: all a-steps
    of a band walk share one sign and band_module puts lam on an a-step, so
    inverting the walk inverts the holonomy twice and M(w^-1, lam) is
    M(w, lam).
    """
    walk = tuple(steps)
    if any(s.kind == "a" and s.exp < 0 for s in walk):
        walk = _inverse(walk)
    return canonical_walk(walk), Fraction(lam)


def distinct_lambda(
    w1: Sequence[Step], lam1: Fraction | int, w2: Sequence[Step], lam2: Fraction | int
) -> Fraction:
    """lam2, or lam2 + 1 where (w2, lam2) would be the same band module as
    (w1, lam1), so that the two are distinct members of one family."""
    lam2 = Fraction(lam2)
    return lam2 + 1 if canonical_band(w1, lam1) == canonical_band(w2, lam2) else lam2


Arrow = dict[int, int]


@dataclass
class BandModule:
    """Exact-rational representation attached to a band walk.

    dims[i] is the dimension at vertex i+1.  arrows[(kind, index)] maps a
    basis index at vertex index+1 to a basis index at vertex index, for
    the arrows the walk uses; an absent arrow is zero.  Every entry is 1
    except the one at lam_at = (kind, index, source), the wrap-around step
    of the walk canonical_band picks, an a-step, which is lam.  codes[t] is
    traversal step t (from basis t to t + 1) as
    index << 2 | (kind b) << 1 | (inverse).  dataclasses.replace(module,
    lam=mu) is the member mu of the same family, sharing dims, arrows, walk
    and codes.
    """

    n: int
    dims: tuple[int, ...]
    arrows: dict[tuple[str, int], Arrow]
    lam: Fraction
    lam_at: tuple[str, int, int]
    walk: Walk
    codes: tuple[int, ...]

    def g_vector(self) -> tuple[int, ...]:
        """Top-minus-bottom counts per vertex, the turns of _turns."""
        g = [0] * self.n
        for vertex, turn in _turns(self.codes):
            g[vertex - 1] += turn
        return tuple(g)

    def matrix(self, kind: str, index: int) -> tuple[tuple[Fraction, ...], ...]:
        """Dense matrix of one arrow, shape dims[index-1] x dims[index]."""
        rows = [[Fraction(0)] * self.dims[index] for _ in range(self.dims[index - 1])]
        for col, row in self.arrows.get((kind, index), {}).items():
            rows[row][col] = self.lam if (kind, index, col) == self.lam_at else Fraction(1)
        return tuple(tuple(row) for row in rows)


def band_module(
    steps: Sequence[Step], lam: Fraction | int, n: int | None = None
) -> BandModule:
    """Band module of a walk with parameter lam (multiplicity 1), built on
    canonical_band(steps, lam): the a-steps are arrows, so two modules lie
    on one band exactly when their codes are equal."""
    walk = tuple(steps)
    if n is None:
        n = 1 + max((s.index for s in walk), default=0)
    if not validate_band_walk(walk, n):
        raise InvalidWalk(f"not a band walk: {walk_to_str(walk)}")
    walk, lam = canonical_band(walk, lam)
    if lam == 0:
        raise ZeroLambda("the band parameter must be non-zero")
    trav = walk[::-1]
    r = len(trav)
    visits = [step_from(s) for s in trav]
    dims = [0] * n
    index_in_vertex = []
    for v in visits:
        index_in_vertex.append(dims[v - 1])
        dims[v - 1] += 1
    arrows: dict[tuple[str, int], Arrow] = {}
    for t, s in enumerate(trav):
        here, there = index_in_vertex[t], index_in_vertex[(t + 1) % r]
        if s.exp < 0:
            here, there = there, here
        arrows.setdefault((s.kind, s.index), {})[here] = there
    _check_relations(arrows, r)
    lam_at = (s.kind, s.index, here)  # the loop ends on the wrap-around step
    codes = tuple(s.index << 2 | (s.kind == "b") << 1 | (s.exp < 0) for s in trav)
    return BandModule(n, tuple(dims), arrows, lam, lam_at, walk, codes)


def _check_relations(arrows: dict[tuple[str, int], Arrow], r: int) -> None:
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
    every component is a path or a cycle.  The free ones are the
    singletons that pair a top of m with a bottom of w, the maximal common
    walks of at least one step whose two ends are admissible (m leaves the
    end by an arrow out of it, w by an arrow into it), and the one cycle
    when m and w lie on one band, free when the parameters agree.  A
    common walk of m and the inverse of w would pair an a-step read as an
    arrow with one read as an inverse arrow, so there is none.
    """
    if m.n != w.n:
        raise DimensionMismatch(f"modules over different quivers: {m.n} != {w.n}")
    x, y = m.codes, w.codes
    tops = collections.Counter(v for v, turn in _turns(x) if turn > 0)
    free = sum(tops[v] for v, turn in _turns(y) if turn < 0)
    free += _admissible_walks(x, y)
    # one orientation and one rotation put lam on the same step of both
    # walks, so the cycle is free exactly when the parameters agree
    free += x == y and m.lam == w.lam
    return free


def _turns(codes: Sequence[int]) -> Iterator[tuple[int, int]]:
    # (vertex, 1) for each top of a cyclic traversal, (vertex, -1) for each
    # bottom: a top is left along both its steps by arrows out of it (it
    # is entered by an inverse step and left by an arrow), a bottom by
    # arrows into it; a positive step leaves index + 1, a negative one index
    for p, c in itertools.pairwise(itertools.chain(codes[-1:], codes)):
        if p & 1 != c & 1:
            yield (c >> 2) + (p & 1), (p & 1) - (c & 1)


def _admissible_walks(x: Sequence[int], y: Sequence[int]) -> int:
    # maximal common walks x[i:i+d] == y[j:j+d], d >= 1, with admissible
    # ends.  A start node is admissible exactly when x arrives at it by a
    # negative step and y by a positive one, so the steps before it differ
    # and each walk is found once, from its first step; an end node when x
    # goes on by a positive step and y by a negative one.  Fine-Wilf: a
    # common walk longer than both periods never ends, which only the
    # cycle of one band does, and no start lies on it.
    bound = len(x) + len(y)
    # repeated past any common walk, then a sentinel that matches nothing
    xs = [*x] * (bound // len(x) + 3) + [-1]
    ys = [*y] * (bound // len(y) + 3) + [-2]
    firsts: dict[int, list[int]] = {}
    for j in range(len(y)):
        if not y[j - 1] & 1:
            firsts.setdefault(y[j], []).append(j)
    free = 0
    for i in range(len(x)):
        if x[i - 1] & 1:
            for j in firsts.get(x[i], ()):
                a, b = i + 1, j + 1
                while xs[a] == ys[b]:
                    a += 1
                    b += 1
                if a - i > bound:
                    raise InternalInconsistency(f"a common walk outruns its bound {bound}")
                free += xs[a] & 1 < ys[b] & 1
    return free


def is_brick(m: BandModule) -> bool:
    """True iff the endomorphism space of m is one-dimensional."""
    return hom_dim(m, m) == 1


def ext1_dim(x: BandModule, y: BandModule) -> int:
    """dim Ext^1(x, y), which equals dim Hom(y, x) for band modules."""
    return hom_dim(y, x)


def g_vector_of_band(steps: Sequence[Step], n: int | None = None) -> tuple[int, ...]:
    """Top-minus-bottom vertex counts of the cyclic walk, read off its
    band module (see BandModule.g_vector)."""
    return band_module(steps, 1, n).g_vector()


def slalom_to_band_walk(component: Component) -> Walk:
    """Band walk of one closed multislalom component.

    Copy-1 segments from edge i up to edge j contribute b_i^- ... b_{j-1}^-;
    copy-2 segments from edge j down to edge i contribute a_{j-1} ... a_i.
    """
    trav: list[Step] = []
    for copy, start, end in component.segments:
        if copy == 1:
            if start >= end:
                raise InvalidComponent(
                    f"copy-1 segment must ascend, got {start} -> {end}"
                )
            trav.extend(Step("b", k, -1) for k in range(start, end))
        else:
            if start <= end:
                raise InvalidComponent(
                    f"copy-2 segment must descend, got {start} -> {end}"
                )
            trav.extend(Step("a", k, 1) for k in range(start - 1, end - 1, -1))
    walk = tuple(reversed(trav))
    if not validate_band_walk(walk):
        raise InvalidComponent(f"segments do not close into a band walk")
    return walk
