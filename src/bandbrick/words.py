"""Words over ordered integer alphabets.

Rotations, primitivity, the Burrows-Wheeler transform and its inverse,
perfectly-clustering tests, and the bijection between words and multisets
of primitive necklaces (standard-permutation cycle construction).

A word is a tuple of positive integers; a necklace is represented by its
lexicographically minimal rotation; a necklace multiset is a sorted tuple
of such representatives with duplicates repeated.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, Sequence

from .errors import (
    EmptyWord, InternalInconsistency, MultipleCycles, NonPrimitive, NonPrimitiveNecklace
)

Word = tuple[int, ...]


def _as_word(w: Sequence[int]) -> Word:
    word = tuple(w)
    if not word:
        raise EmptyWord("word must be non-empty")
    return word


def rotations(w: Sequence[int]) -> list[Word]:
    """All cyclic rotations of w; index k rotates left by k.

    >>> rotations((1, 2))
    [(1, 2), (2, 1)]
    """
    word = _as_word(w)
    return [word[k:] + word[:k] for k in range(len(word))]


def is_primitive(w: Sequence[int]) -> bool:
    """True iff no rotation by 0 < k < |w| fixes w."""
    word = _as_word(w)
    r = len(word)
    return all(word[k:] + word[:k] != word for k in range(1, r))


def necklace(w: Sequence[int]) -> Word:
    """Canonical form of the conjugacy class of w: the minimal rotation."""
    return min(rotations(w))


def bw_transform(w: Sequence[int]) -> Word:
    """Last letters of the sorted rotations of w (duplicates kept)."""
    return tuple(rot[-1] for rot in sorted(rotations(w)))


def _weakly_decreasing(w: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(w, w[1:]))


def is_perfectly_clustering(w: Sequence[int]) -> bool:
    """True iff w is primitive and its transform is weakly decreasing."""
    word = _as_word(w)
    return is_primitive(word) and _weakly_decreasing(bw_transform(word))


def is_perfectly_clustering_by_factors(w: Sequence[int]) -> bool:
    """Circular-factor criterion, equivalent to the transform test.

    A primitive word fails iff it has circular factors aub and a'ub' with
    the same middle u, a < a' and b < b'.
    """
    word = _as_word(w)
    if not is_primitive(word):
        raise NonPrimitive(f"{word} is a proper power")
    r = len(word)
    doubled = word + word
    for length in range(2, r + 1):
        by_middle: dict[Word, list[tuple[int, int]]] = {}
        for p in range(r):
            factor = doubled[p : p + length]
            by_middle.setdefault(factor[1:-1], []).append((factor[0], factor[-1]))
        for ends in by_middle.values():
            for a, b in ends:
                if any(a < a2 and b < b2 for a2, b2 in ends):
                    return False
    return True


def standard_permutation(w: Sequence[int]) -> tuple[int, ...]:
    """Rank each position by letter value, ties broken left to right.

    >>> standard_permutation((2, 1, 1, 1, 3, 1, 2, 1))
    (6, 1, 2, 3, 8, 4, 7, 5)
    """
    word = _as_word(w)
    order = sorted(range(len(word)), key=lambda p: (word[p], p))
    st = [0] * len(word)
    for rank, p in enumerate(order, start=1):
        st[p] = rank
    return tuple(st)


def _inverse_cycles(st: Sequence[int]) -> list[list[int]]:
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


def phi(w: Sequence[int]) -> tuple[Word, ...]:
    """Multiset of primitive necklaces read off the cycles of st(w)^-1.

    >>> phi((1, 1, 1))
    ((1,), (1,), (1,))
    """
    word = _as_word(w)
    out = []
    for cyc in _inverse_cycles(standard_permutation(word)):
        cycle_word = tuple(word[p] for p in cyc)
        # cycles of the inverse standard permutation always give primitive
        # necklaces, so a failure here is a construction bug
        if not is_primitive(cycle_word):
            raise InternalInconsistency(f"cycle word {cycle_word} is a proper power")
        out.append(necklace(cycle_word))
    return tuple(sorted(out))


def _infinite_power_cmp(u: Word, v: Word) -> int:
    # u^inf vs v^inf; a first difference appears within |u| + |v| letters
    bound = len(u) + len(v)
    uu = (u * (bound // len(u) + 1))[:bound]
    vv = (v * (bound // len(v) + 1))[:bound]
    if uu < vv:
        return -1
    if uu > vv:
        return 1
    return 0


def phi_inverse(ms: Iterable[Sequence[int]]) -> Word:
    """Word whose necklace multiset is ms; inverts phi.

    Expands every necklace into its rotations, sorts all rows by the order
    of their infinite powers and reads the last column.  Rows with equal
    infinite powers end in the same letter, so their relative order does
    not matter.
    """
    rows: list[Word] = []
    for entry in ms:
        word = _as_word(entry)
        if not is_primitive(word):
            raise NonPrimitiveNecklace(f"{word} is a proper power")
        rows.extend(rotations(word))
    if not rows:
        raise EmptyWord("multiset must contain at least one necklace")
    rows.sort(key=cmp_to_key(_infinite_power_cmp))
    return tuple(row[-1] for row in rows)


def bw_inverse(w: Sequence[int]) -> Word:
    """Necklace whose transform is w, via the single cycle of st(w)^-1."""
    word = _as_word(w)
    cycles = _inverse_cycles(standard_permutation(word))
    if len(cycles) != 1:
        raise MultipleCycles(
            f"inverse standard permutation has {len(cycles)} cycles"
        )
    preimage = tuple(word[p] for p in cycles[0])
    if not is_primitive(preimage):
        raise InternalInconsistency(f"preimage {preimage} is a proper power")
    return necklace(preimage)
