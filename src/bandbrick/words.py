"""Words over ordered integer alphabets.

Rotations, primitivity, the Burrows-Wheeler transform and its inverse,
perfectly-clustering tests, and the bijection between words and multisets
of primitive necklaces (standard-permutation cycle construction).

A word is a tuple of positive integers; a necklace is represented by its
lexicographically minimal rotation; a necklace multiset is a sorted tuple
of such representatives with duplicates repeated.

No function here copies the rotations of its input (``rotations`` exists
for callers that want them).  ``least_rotation`` finds the minimal
rotation in one linear two-pointer scan, so ``necklace`` is O(|w|).
``is_primitive`` compares w with its shifts by |w|/p for the primes p
dividing |w|, O(|w| log |w|), and factors each length once: the primes
of the last few thousand lengths are kept.  ``bw_transform`` and
``phi_inverse`` order rotation start positions with one sort of byte
keys, each the first min(L, 64) letters read from a start around its
cycle, compared in C, L the two longest cycle lengths summed.  Only when
L is longer and two keys tie do their ranks seed prefix doubling,
O(|w| log^2 |w|): each round is one pass that packs the key pair of p
and p + span into one int, key[p] * base + key[p + span], and doubles
span.  ``phi_inverse`` sorts each distinct necklace once and emits the
letter of each sorted row once per copy.  The circular-factor test reads
the same sorted rows: the first two neighbours whose letters before them
ascend give a crossing aub, a'ub' (u their common prefix), and there is
a crossing only if some neighbours ascend, so it costs one sort plus one
common-prefix scan.

The cycles of ``phi`` and ``bw_inverse`` come from one letter order: the
positions stably sorted by letter are the inverse standard permutation,
so ``phi`` walks its cycles straight off that order, each from its
smallest position, which reads the necklace itself, and
``standard_permutation`` derives its ranks from it.  ``bw_inverse`` is
``phi``'s case of one cycle (the extended BWT of Mantaci, Restivo,
Rosone and Sciortino, TCS 2007).  The transform test walks one such
cycle, not the rotation sort: w is perfectly clustering iff the cycle
through position 0 of its letters sorted in decreasing order reads the
necklace of w, ``_cycle_through_zero``, so it costs a sort of the
letters plus O(|w|), and the circular-factor test, which reads the
rotation sort, stays a second engine beside it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
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


# is_primitive meets the same lengths again and again, so each length is
# factored once; the bound holds every length up to a few thousand letters
@functools.lru_cache(maxsize=4096)
def _prime_factors(r: int) -> tuple[int, ...]:
    primes = []
    p = 2
    while p * p <= r:
        if r % p == 0:
            primes.append(p)
            while r % p == 0:
                r //= p
        p += 1
    if r > 1:
        primes.append(r)
    return tuple(primes)


def is_primitive(w: Sequence[int]) -> bool:
    """True iff no rotation by 0 < k < |w| fixes w.

    The rotations fixing w form a subgroup of Z_|w|.  A non-trivial one
    contains the rotation by |w|/p for some prime p dividing |w|, and a
    rotation by a divisor d fixes w iff w has period d, so only those
    shifts are compared.
    """
    word = _as_word(w)
    r = len(word)
    for p in _prime_factors(r):
        if word[r // p :] == word[: r - r // p]:
            return False
    return True


def least_rotation(seq: Sequence) -> int:
    """Smallest k such that seq[k:] + seq[:k] is the minimal rotation.

    Two candidate starts i < j are compared letter by letter; a mismatch
    after k equal letters rules out the k + 1 starts beginning at the
    candidate with the larger letter, so the scan is linear.

    >>> least_rotation((2, 1, 1, 2, 1))
    1
    """
    word = _as_word(seq)
    r = len(word)
    doubled = word + word
    i, j, k = 0, 1, 0
    while j < r and k < r:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return i


def necklace(w: Sequence[int]) -> Word:
    """Canonical form of the conjugacy class of w: the minimal rotation."""
    word = _as_word(w)
    k = least_rotation(word)
    return word[k:] + word[:k]


# the letters a byte key reads from each start; at most this many, so a
# key costs a bounded slice however long its cycle
_SEED_SPAN = 64


def _rotation_order(cycles: Sequence[Sequence]) -> list[int]:
    """Positions of the cycles laid end to end, sorted by the endless
    reading around each position's own cycle, ties in position order.

    The first bound letters decide, the two longest cycle lengths summed:
    rotations of one cycle of length p that tie on p letters are equal,
    and rotations of cycles of lengths p and q that tie on p + q letters
    read equal forever (Fine-Wilf).

    Each letter is ranked densely into a fixed-width big-endian code, and
    each cycle's codes are followed by its first span - 1 letters, so the
    first span = min(bound, _SEED_SPAN) letters from a start are one
    slice of them, and one stable sort compares the slices in C; ties
    keep position order.  When span < bound and two slices are equal,
    their dense ranks seed prefix doubling: key[p] orders the first
    ``span`` letters from p, every key is below ``base``, and jump[p] is
    p moved ``span`` steps, so key[p] * base + key[jump[p]] orders
    2 * span letters and base squares.  Keys are re-ranked densely only
    when base passes 2**64 and another round follows, and the rounds stop
    once span reaches bound or every key is distinct.
    """
    bound = sum(sorted(map(len, cycles))[-2:])
    letters = [*itertools.chain.from_iterable(cycles)]
    alphabet = sorted(set(letters))
    width = (len(alphabet) - 1).bit_length() + 7 >> 3 or 1
    code = {a: i.to_bytes(width, "big") for i, a in enumerate(alphabet)}
    span = min(bound, _SEED_SPAN)
    pad, size = span - 1, span * width
    codes = b"".join(map(code.__getitem__, letters))
    keys: list[bytes] = []
    start = 0
    for cycle in cycles:
        end = start + len(cycle) * width
        # the cycle followed by its first span - 1 letters
        rows = codes[start:end] * (pad // len(cycle) + 1)
        rows += codes[start : start + pad % len(cycle) * width]
        keys += [rows[i : i + size] for i in range(0, end - start, width)]
        start = end
    n = len(keys)
    order = sorted(range(n), key=keys.__getitem__)
    if span >= bound:
        return order
    ranked = list(map(keys.__getitem__, order))
    # fresh[i]: sorted row i + 1 has a key unlike row i's
    fresh = list(map(operator.ne, ranked, itertools.islice(ranked, 1, None)))
    del keys, ranked
    if all(fresh):
        return order
    key = [0] * n
    for p, rank in zip(order, itertools.accumulate(fresh, initial=0)):
        key[p] = rank
    base = key[order[-1]] + 1
    jump: list[int] = []
    start = 0
    for cycle in cycles:
        end, shift = start + len(cycle), span % len(cycle)
        jump += range(start + shift, end)
        jump += range(start, start + shift)
        start = end
    while span < bound:
        distinct = set(key)
        if len(distinct) == n:
            break
        if base > 1 << 64 and 2 * span < bound:  # the last round is left to the final sort
            levels = {k: i for i, k in enumerate(sorted(distinct))}
            key = list(map(levels.__getitem__, key))
            base = len(levels)
        key = [a * base + b for a, b in zip(key, map(key.__getitem__, jump))]
        base *= base
        jump = list(map(jump.__getitem__, jump))
        span *= 2
    return sorted(range(n), key=key.__getitem__)


def bw_transform(w: Sequence[int]) -> Word:
    """Last letters of the sorted rotations of w (duplicates kept)."""
    word = _as_word(w)
    before = word[-1:] + word[:-1]  # the letter before each start
    return tuple(map(before.__getitem__, _rotation_order([word])))


def is_perfectly_clustering(w: Sequence[int]) -> bool:
    """True iff w is primitive and its transform is weakly decreasing.

    The transform of a primitive word is d exactly when the word is
    conjugate to ``bw_inverse(d)``, and that inverse exists exactly when
    st(d)^-1 is one cycle (Crochemore, Desarmenien and Perrin, TCS 2005).
    The only weakly decreasing word with w's letters is w's letters
    sorted in decreasing order, so w is perfectly clustering (Simpson and
    Puglisi, EJC 2008) iff w is primitive and that word's cycle through
    position 0 covers every position and reads the necklace of w.  The
    one comparison decides all three: every cycle of an inverse standard
    permutation reads a primitive word, and a proper power's necklace is
    not primitive, so the two never compare equal; a cycle that misses a
    position reads fewer letters than the necklace has.  One linear walk
    after a sort of the letters, no rotation sort and no primitivity
    pass.
    """
    word = _as_word(w)
    return _cycle_through_zero(sorted(word, reverse=True)) == necklace(word)


def _crossing(word: Word) -> tuple[int, Word, int, int, int] | None:
    """A crossing (a, u, b, a2, b2) of the primitive word, or None.

    aub and a2ub2 are circular factors with a < a2 and b < b2.  With the
    rotations sorted, such a pair puts ub... before ub2..., so the letters
    before the rows ascend somewhere between them; conversely two
    neighbouring rows p, q with word[p - 1] < word[q - 1] share a prefix
    u and then differ, b < b2.  Distinct rotations of one word hold the
    same letters, so they differ before their last one: |u| <= |w| - 2.
    """
    r = len(word)
    order = _rotation_order([word])
    for p, q in zip(order, order[1:]):
        if word[p - 1] < word[q - 1]:
            break
    else:
        return None
    doubled = word + word
    k = 0
    while k < r and doubled[p + k] == doubled[q + k]:
        k += 1
    if k > r - 2 or doubled[p + k] >= doubled[q + k]:
        raise InternalInconsistency(f"rows {p} and {q} of {word} are not a crossing")
    return word[p - 1], doubled[p : p + k], doubled[p + k], word[q - 1], doubled[q + k]


def is_perfectly_clustering_by_factors(w: Sequence[int]) -> bool:
    """Circular-factor criterion, equivalent to the transform test.

    A primitive word fails iff it has circular factors aub and a'ub' with
    the same middle u, a < a' and b < b' (see ``_crossing``).
    """
    word = _as_word(w)
    if not is_primitive(word):
        raise NonPrimitive(f"{word} is a proper power")
    return _crossing(word) is None


def _letter_order(word: Sequence[int]) -> list[int]:
    # positions sorted by letter, ties left to right (sort is stable): the
    # inverse of the standard permutation, 0-based
    return sorted(range(len(word)), key=word.__getitem__)


def _cycle_through_zero(word: Sequence[int]) -> Word:
    """The necklace ``phi`` reads off the cycle of st(word)^-1 through
    position 0, stepping from p to order[p] as ``phi`` does."""
    order = _letter_order(word)
    cycle = []
    p = order[0]
    while p:
        cycle.append(word[p])
        p = order[p]
    cycle.append(word[0])
    return tuple(cycle)


def standard_permutation(w: Sequence[int]) -> tuple[int, ...]:
    """Rank each position by letter value, ties broken left to right.

    >>> standard_permutation((2, 1, 1, 1, 3, 1, 2, 1))
    (6, 1, 2, 3, 8, 4, 7, 5)
    """
    word = _as_word(w)
    st = [0] * len(word)
    for rank, p in enumerate(_letter_order(word), start=1):
        st[p] = rank
    return tuple(st)


def phi(w: Sequence[int]) -> tuple[Word, ...]:
    """Multiset of primitive necklaces read off the cycles of st(w)^-1.

    The letter order is st(w)^-1 itself (order[k] is the position of rank
    k + 1), so each cycle steps from p to order[p].  Position p reads
    w[order[p]], w[order[order[p]]], ...; for p < q the stable sort gives
    w[order[p]] <= w[order[q]], and order[p] < order[q] on a tie, so by
    induction p's reading is at most q's on every length.  The positions
    of a cycle read the powers of its word's rotations, so its smallest
    position reads the least rotation, the necklace (Crochemore,
    Desarmenien and Perrin, TCS 2005).

    >>> phi((1, 1, 1))
    ((1,), (1,), (1,))
    >>> phi((2, 1, 1, 3, 2, 3, 1, 2))
    ((1, 1, 1, 3, 2), (2,), (2, 3))
    """
    word = _as_word(w)
    order = _letter_order(word)
    seen = bytearray(len(word))
    out = []
    start = 0
    while (start := seen.find(0, start)) >= 0:  # the next position no cycle has reached
        cycle = []
        p = start
        while not seen[p]:  # step first, so the read starts at order[start]
            seen[p] = 1
            p = order[p]
            cycle.append(word[p])
        cycle_word = tuple(cycle)
        # cycles of the inverse standard permutation always give primitive
        # necklaces, so a failure here is a construction bug
        if not is_primitive(cycle_word):
            raise InternalInconsistency(f"cycle word {cycle_word} is a proper power")
        out.append(cycle_word)
    return tuple(sorted(out))


def phi_inverse(ms: Iterable[Sequence[int]]) -> Word:
    """Word whose necklace multiset is ms; inverts phi.

    Lays each distinct necklace out once, sorts every rotation start by
    the infinite power read from it and emits the letter before each
    start once per copy of its necklace.  Repeating a row's letter gives
    what sorting every copy would: tied rows end in the same letter.
    """
    # a Counter keeps first occurrences in input order, so the entries are
    # still checked in the order given
    counts = collections.Counter(map(tuple, ms))
    before: list[int] = []  # the letter before each start
    copies: list[int] = []
    for word, k in counts.items():
        if not is_primitive(word):
            raise NonPrimitiveNecklace(f"{word} is a proper power")
        before.append(word[-1])
        before.extend(word[:-1])
        copies += [k] * len(word)
    if not before:
        raise EmptyWord("multiset must contain at least one necklace")
    order = _rotation_order(list(counts))
    if counts.total() == len(counts):  # no necklace repeats
        return tuple(map(before.__getitem__, order))
    return tuple([before[p] for p in order for _ in range(copies[p])])


def bw_inverse(w: Sequence[int]) -> Word:
    """Necklace whose transform is w: phi's case of a single cycle.

    >>> bw_inverse((2, 3, 3, 1, 1))
    (1, 3, 1, 3, 2)
    """
    necklaces = phi(w)
    if len(necklaces) != 1:
        raise MultipleCycles(f"inverse standard permutation has {len(necklaces)} cycles")
    return necklaces[0]
