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
checked on every build in one pass over the walk.  Hom dimensions come
from the nullity of the intertwiner system.  Its equations have at most
two terms, so the nullity is a count of connected components of
unknowns, found in one walk over the links without any elimination (the
dimension is independent of the base field).
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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


def validate_band_walk(steps: Sequence[Step], n: int | None = None) -> bool:
    """All band conditions: composable cycle, reduced, no relation or
    inverse relation, primitive, at least one letter of each sign."""
    walk = tuple(steps)
    r = len(walk)
    if r == 0:
        return False
    if n is not None and any(s.index < 1 or s.index >= n for s in walk):
        return False
    for j in range(r):
        x, y = walk[j], walk[(j + 1) % r]
        if step_from(x) != step_to(y):
            return False
        if x.kind == y.kind and x.index == y.index and x.exp != y.exp:
            return False
        # relations are the alternating length-2 paths going up in index
        if x.exp > 0 and y.exp > 0:
            if x.kind != y.kind and y.index == x.index + 1:
                return False
        if x.exp < 0 and y.exp < 0:
            if x.kind != y.kind and x.index == y.index + 1:
                return False
    if not any(s.exp > 0 for s in walk) or not any(s.exp < 0 for s in walk):
        return False
    return is_primitive(walk)


def canonical_walk(steps: Sequence[Step]) -> Walk:
    """Minimal rotation under the order a < b, index order, +1 < -1."""
    walk = tuple(steps)
    k = least_rotation(_walk_key(walk))
    return walk[k:] + walk[:k]


def canonical_band(steps: Sequence[Step], lam: Fraction | int) -> tuple[Walk, Fraction]:
    """Canonical (walk, parameter) of a band module, up to isomorphism.

    Quotients the walk by rotation and inversion.  lam stays: band_module
    puts it on an a-step, all a-steps of a band walk share one sign (the
    arrow kind changes at every turn), so reversing the walk inverts the
    holonomy twice.
    """
    forward = canonical_walk(steps)
    backward = canonical_walk(tuple(s.inverse() for s in reversed(forward)))
    return min(forward, backward, key=_walk_key), Fraction(lam)


def distinct_lambda(
    w1: Sequence[Step], lam1: Fraction | int, w2: Sequence[Step], lam2: Fraction | int
) -> Fraction:
    """lam2, or lam2 + 1 where (w2, lam2) would be the same band module as
    (w1, lam1), so that the two are distinct members of one family."""
    lam2 = Fraction(lam2)
    return lam2 + 1 if canonical_band(w1, lam1) == canonical_band(w2, lam2) else lam2


Arrow = dict[int, int]
Scalar = Fraction | int


@dataclass
class BandModule:
    """Exact-rational representation attached to a band walk.

    dims[i] is the dimension at vertex i+1.  arrows[(kind, index)] maps a
    basis index at vertex index+1 to a basis index at vertex index, for
    the arrows the walk uses; an absent arrow is zero.  Every entry is 1
    except the one at lam_at = (kind, index, source), the wrap-around step
    of the canonical rotation, which is lam.  So
    dataclasses.replace(module, lam=mu) is the member mu of the same
    family, sharing dims, arrows and walk.
    """

    n: int
    dims: tuple[int, ...]
    arrows: dict[tuple[str, int], Arrow]
    lam: Fraction
    lam_at: tuple[str, int, int]
    walk: Walk

    def matrix(self, kind: str, index: int) -> tuple[tuple[Fraction, ...], ...]:
        """Dense matrix of one arrow, shape dims[index-1] x dims[index]."""
        rows = [[Fraction(0)] * self.dims[index] for _ in range(self.dims[index - 1])]
        for col, row in self.arrows.get((kind, index), {}).items():
            rows[row][col] = self.lam if (kind, index, col) == self.lam_at else Fraction(1)
        return tuple(tuple(row) for row in rows)


def band_module(
    steps: Sequence[Step], lam: Fraction | int, n: int | None = None
) -> BandModule:
    """Band module of a walk with parameter lam (multiplicity 1)."""
    walk = tuple(steps)
    if n is None:
        n = 1 + max((s.index for s in walk), default=0)
    if not validate_band_walk(walk, n):
        raise InvalidWalk(f"not a band walk: {walk_to_str(walk)}")
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroLambda("the band parameter must be non-zero")
    walk = canonical_walk(walk)
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
    return BandModule(n=n, dims=tuple(dims), arrows=arrows, lam=lam, lam_at=lam_at, walk=walk)


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


def is_brick(m: BandModule) -> bool:
    """True iff the endomorphism space of m is one-dimensional."""
    return hom_dim(m, m) == 1


def ext1_dim(x: BandModule, y: BandModule) -> int:
    """dim Ext^1(x, y), which equals dim Hom(y, x) for band modules."""
    return hom_dim(y, x)


def g_vector_of_band(steps: Sequence[Step], n: int | None = None) -> tuple[int, ...]:
    """Top-minus-bottom vertex counts of the cyclic walk.

    A visited vertex is on top when the incoming traversal step is inverse
    and the outgoing one direct, at the bottom in the opposite case.
    """
    walk = tuple(steps)
    if n is None:
        n = 1 + max((s.index for s in walk), default=0)
    if not validate_band_walk(walk, n):
        raise InvalidWalk(f"not a band walk: {walk_to_str(walk)}")
    trav = walk[::-1]
    g = [0] * n
    for t, cur in enumerate(trav):
        prev = trav[t - 1]
        vertex = step_from(cur)
        if prev.exp < 0 and cur.exp > 0:
            g[vertex - 1] += 1
        elif prev.exp > 0 and cur.exp < 0:
            g[vertex - 1] -= 1
    return tuple(g)


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
