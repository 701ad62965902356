"""Dyck-path model for g-vectors.

A valid g-vector (a_1, ..., a_n) encodes a labeled Dyck diagram: |a_i|
up-steps labeled i when a_i < 0, |a_i| down-steps labeled i when a_i > 0.
The canonical noncrossing (nested) matching of that diagram, used on two
copies of the diagram glued along label blocks in opposite orientation,
decomposes into closed components.  Following each component alternately
through both copies yields a circular word over the labels; erasing the
letter 1 relates these words to the necklace bijection of `words`.

The matching and the trace run on flat int lists over the step positions
(labels, chord partners, glued steps) with a bytearray of traced steps;
no other module reads them.  The one public trace is
reconstruct_multislalom, which returns the components; circular_words,
component_gvectors and render.render_dyck read them through it.  A
Component is its word and its chord ends: component_gvectors counts the
labels of the word, gentle.slalom_to_band_walk reads the segments of the
curve off it, and render draws each chord from its two ends.
single_component traces only the curve through the first step, which is
all a brick test reads: on the 160 valid g-vectors with n <= 5 and
entries in [-2, 2] it takes 4.2-4.5 us a call against 5.7-5.8 us for
reconstruct_multislalom (Python 3.11.7, 2 CPUs, best of 7).  The curves
of a diagram are mostly copies of a few words (on 100 seeded 1000-letter
words, 107 curves of 1.3 distinct words on average), so circular_words
and erase_ones canonicalize each distinct word once per call.  A diagram
holds at most MAX_STEPS steps: larger g-vectors raise GVectorTooLarge
before any step is built, while validate_gvector stays unbounded.
"""

from __future__ import annotations

import collections
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BadDimension, GVectorTooLarge, InternalInconsistency, InvalidGVector
from .words import necklace

GVector = tuple[int, ...]

# the most steps sum(|g_i|) a diagram may have.  Cost is linear in the
# steps: render of (-75000, 75000), its slowest shape at the bound, is the
# pin in tests/test_cli.py (its figures are in README's bounds table)
MAX_STEPS = 150_000


def validate_gvector(g: Sequence[int]) -> bool:
    """True iff proper prefix sums are <= 0, the total is 0 and g != 0."""
    entries = tuple(g)
    if len(entries) < 2:
        raise BadDimension("a g-vector needs at least 2 entries")
    total = 0
    for a in entries[:-1]:
        total += a
        if total > 0:
            return False
    return total + entries[-1] == 0 and any(entries)


def _check_gvector(g: Sequence[int]) -> GVector:
    entries = tuple(g)
    if not validate_gvector(entries):
        raise InvalidGVector(f"{entries} is not a valid g-vector")
    return entries


class Component(NamedTuple):
    """One closed curve of a multislalom: its word and its chords.

    word      labels written at each chord exit, in traversal order
    chords    entry, exit, entry, exit, ... of the curve on copy 1, in
              traversal order: (up-step, down-step) pairs of the matching

    The rest is read off the word: exit k alternates copies, starting on
    copy 1, and the label entered is the previous exit's, because glued
    steps share a label.  A Component is a named tuple: immutable,
    hashable and compared by its two fields.
    """

    word: tuple[int, ...]
    chords: tuple[int, ...]


def _bounded(g: Sequence[int]) -> GVector:
    # every diagram build passes here: validates g, and more than MAX_STEPS
    # steps raise GVectorTooLarge before any step is built
    entries = _check_gvector(g)
    size = sum(map(abs, entries))
    if size > MAX_STEPS:
        raise GVectorTooLarge(f"{size} Dyck steps exceed the bound of {MAX_STEPS}")
    return entries


def _int_diagram(entries: GVector) -> tuple[list[int], list[int], list[int]]:
    # flat int lists over the step positions: the label of each step, its
    # partner in the nested matching (a down-step closes the most recent
    # open up-step), and the glued step on the other copy (the k-th step of
    # a label block meets the (block size + 1 - k)-th step of that block)
    labels: list[int] = []
    partner: list[int] = []
    glued: list[int] = []
    opened: list[int] = []
    for label, a in enumerate(entries, start=1):
        start, size = len(labels), abs(a)
        labels += [label] * size
        glued += range(start + size - 1, start - 1, -1)
        if a < 0:
            opened += range(start, start + size)
            partner += [0] * size  # filled when the down-step closes it
        else:
            for pos in range(start, start + size):
                up = opened.pop()
                partner[up] = pos
                partner.append(up)
    if opened:
        raise InternalInconsistency(f"{len(opened)} up-steps left unmatched")
    return labels, partner, glued


def _trace(
    start: int, labels: list[int], partner: list[int], glued: list[int], visited: bytearray
) -> Component:
    # the closed curve through the up-step start: each round enters copy 1
    # at pos, leaves along its chord, crosses to the glued step on copy 2,
    # leaves along that chord and crosses back.  Collects the labels of the
    # exits and the copy-1 entry and exit, and marks each copy-1 entry visited
    word: list[int] = []
    chords: list[int] = []
    pos = start
    while True:
        visited[pos] = 1
        out = partner[pos]
        chords.append(pos)
        chords.append(out)
        back = partner[glued[out]]
        word.append(labels[out])
        word.append(labels[back])
        pos = glued[back]
        if pos == start:
            # tuple.__new__ skips the named tuple's Python-level __new__
            return tuple.__new__(Component, (tuple(word), tuple(chords)))


def reconstruct_multislalom(g: Sequence[int]) -> tuple[Component, ...]:
    """The closed components of the multislalom of g, in the order of
    their first up-steps.  More than MAX_STEPS steps raise
    GVectorTooLarge before any step is built."""
    entries = _bounded(g)
    labels, partner, glued = _int_diagram(entries)
    # every down-step is marked up front and each copy-1 entry as it is
    # traced, so the first 0 at or past a step is the next untraced up-step
    visited = bytearray().join((b"\1" if a > 0 else b"\0") * abs(a) for a in entries)
    components = []
    start = visited.find(0)
    while start >= 0:
        components.append(_trace(start, labels, partner, glued, visited))
        start = visited.find(0, start + 1)
    return tuple(components)


def single_component(g: Sequence[int]) -> Component | None:
    """The component of g when its multislalom has exactly one, else None.

    Traces only the curve through step 0, the first component of
    reconstruct_multislalom: g has one component exactly when the chord
    ends of that curve cover every step."""
    entries = _bounded(g)
    labels, partner, glued = _int_diagram(entries)
    component = _trace(0, labels, partner, glued, bytearray(len(labels)))
    return component if len(component.chords) == len(labels) else None


def _sorted_canonical(
    words: Iterable[tuple[int, ...]], canonical: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    # canonical(word) of every word, sorted; the curves of a diagram are
    # mostly copies of a few words, so each distinct word is canonicalized once
    done: dict[tuple[int, ...], tuple[int, ...]] = {}
    out = []
    for word in words:
        if word not in done:
            done[word] = canonical(word)
        out.append(done[word])
    return tuple(sorted(out))


def circular_words(g: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Multiset of circular label words, one per component, canonicalized."""
    return _sorted_canonical((c.word for c in reconstruct_multislalom(g)), necklace)


def _erased_necklace(word: tuple[int, ...]) -> tuple[int, ...]:
    kept = tuple(letter for letter in word if letter != 1)
    return necklace(kept) if kept else ()


def erase_ones(ms: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Erase the letter 1 from every circular word and re-canonicalize.
    The words may be tuples or lists."""
    return _sorted_canonical(map(tuple, ms), _erased_necklace)


def component_gvectors(g: Sequence[int]) -> tuple[GVector, ...]:
    """Per-label counts of each component's word, signed like the entries
    of g; they sum to g."""
    entries = tuple(g)
    out = []
    for c in reconstruct_multislalom(entries):  # validates and bounds g
        counts = collections.Counter(c.word)
        out.append(tuple(-counts[i] if a < 0 else counts[i] for i, a in enumerate(entries, 1)))
    return tuple(out)
