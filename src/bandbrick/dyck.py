"""Dyck-path model for g-vectors.

A valid g-vector (a_1, ..., a_n) encodes a labeled Dyck diagram: |a_i|
up-steps labeled i when a_i < 0, |a_i| down-steps labeled i when a_i > 0.
The canonical noncrossing (nested) matching of that diagram, used on two
copies of the diagram glued along label blocks in opposite orientation,
decomposes into closed components.  Following each component alternately
through both copies yields a circular word over the labels; erasing the
letter 1 relates these words to the necklace bijection of `words`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BadDimension, InternalInconsistency, InvalidGVector
from .words import necklace

GVector = tuple[int, ...]


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


@dataclass(frozen=True)
class DyckDiagram:
    """Labeled Dyck path: one ('u'|'d', label) pair per step."""

    steps: tuple[tuple[str, int], ...]
    n: int

    @property
    def word(self) -> str:
        return "".join(direction for direction, _ in self.steps)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for _, label in self.steps)

    @property
    def heights(self) -> tuple[int, ...]:
        """Path heights before each step, plus the final height."""
        out = [0]
        for direction, _ in self.steps:
            out.append(out[-1] + (1 if direction == "u" else -1))
        return tuple(out)


@dataclass(frozen=True)
class Component:
    """One closed curve of a multislalom.

    word      labels written at each chord exit, in traversal order
    gvector   per-label counts of the word, signed like the source entries
    segments  (copy, from_label, to_label) per chord traversal
    chords    up-step positions of the chords this curve uses on copy 1
    """

    word: tuple[int, ...]
    gvector: GVector
    segments: tuple[tuple[int, int, int], ...]
    chords: tuple[int, ...]


@dataclass(frozen=True)
class Multislalom:
    """Canonical nested matching of a Dyck diagram plus its components."""

    diagram: DyckDiagram
    matching: tuple[tuple[int, int], ...]
    components: tuple[Component, ...]


def to_dyck_diagram(g: Sequence[int]) -> DyckDiagram:
    """Labeled runs of the diagram; entries a_i = 0 contribute no steps."""
    entries = _check_gvector(g)
    steps = []
    for label, a in enumerate(entries, start=1):
        direction = "u" if a < 0 else "d"
        steps.extend([(direction, label)] * abs(a))
    return DyckDiagram(steps=tuple(steps), n=len(entries))


def _nested_matching(diagram: DyckDiagram) -> list[tuple[int, int]]:
    # stack matching: each down-step closes the most recent open up-step
    stack: list[int] = []
    pairs = []
    for pos, (direction, _) in enumerate(diagram.steps):
        if direction == "u":
            stack.append(pos)
        else:
            pairs.append((stack.pop(), pos))
    if stack:
        raise InternalInconsistency(f"{len(stack)} up-steps left unmatched")
    return sorted(pairs)


def _cross_copy_map(diagram: DyckDiagram) -> list[int]:
    # the k-th step of a label block on one copy is glued to the
    # (block size + 1 - k)-th step of the same block on the other copy
    ident = [0] * len(diagram.steps)
    start = 0
    labels = diagram.labels
    while start < len(labels):
        end = start
        while end + 1 < len(labels) and labels[end + 1] == labels[start]:
            end += 1
        for pos in range(start, end + 1):
            ident[pos] = start + end - pos
        start = end + 1
    return ident


def _trace_components(
    diagram: DyckDiagram, matching: Sequence[tuple[int, int]], signs: Sequence[int]
) -> tuple[Component, ...]:
    partner: dict[int, int] = {}
    for up, down in matching:
        partner[up] = down
        partner[down] = up
    ident = _cross_copy_map(diagram)
    labels = diagram.labels
    visited: set[tuple[int, int]] = set()
    components = []
    for start in sorted(partner):
        if diagram.steps[start][0] != "u" or (1, start) in visited:
            continue
        word: list[int] = []
        segments: list[tuple[int, int, int]] = []
        chords: list[int] = []
        copy, pos = 1, start
        while True:
            visited.add((copy, pos))
            exit_pos = partner[pos]
            if copy == 1:
                chords.append(min(pos, exit_pos))
            segments.append((copy, labels[pos], labels[exit_pos]))
            word.append(labels[exit_pos])
            copy, pos = 3 - copy, ident[exit_pos]
            if (copy, pos) == (1, start):
                break
        gvec = [0] * diagram.n
        for label in word:
            gvec[label - 1] += signs[label - 1]
        components.append(
            Component(
                word=tuple(word),
                gvector=tuple(gvec),
                segments=tuple(segments),
                chords=tuple(sorted(chords)),
            )
        )
    return tuple(components)


def reconstruct_multislalom(g: Sequence[int]) -> Multislalom:
    """Nested matching of the diagram of g and its closed components."""
    entries = _check_gvector(g)
    diagram = to_dyck_diagram(entries)
    matching = _nested_matching(diagram)
    signs = [-1 if a < 0 else 1 for a in entries]
    components = _trace_components(diagram, matching, signs)
    return Multislalom(
        diagram=diagram, matching=tuple(matching), components=components
    )


def circular_words(g: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Multiset of circular label words, one per component, canonicalized."""
    ms = reconstruct_multislalom(g)
    return tuple(sorted(necklace(c.word) for c in ms.components))


def erase_ones(ms: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Erase the letter 1 from every circular word and re-canonicalize."""
    erased = []
    for word in ms:
        kept = tuple(letter for letter in word if letter != 1)
        erased.append(necklace(kept) if kept else ())
    return tuple(sorted(erased))


def component_gvectors(g: Sequence[int]) -> tuple[GVector, ...]:
    """Signed per-label crossing counts of each component; they sum to g."""
    ms = reconstruct_multislalom(g)
    return tuple(c.gvector for c in ms.components)
