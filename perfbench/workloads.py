"""Workload items, the calls that run them, and the checks of their answers.

Each workload is a fixed list of items made from a seed.  An item runs as
one call into the bandbrick layers (``run_item``); its answer is then
checked outside the timed region by code of the benchmark's own
(``check_item``), which returns ``None`` when the answer is right and a
short reason when it is not.

Library functions are always looked up as module attributes at call time,
so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

from bandbrick import cli, dyck, gentle, render, words

WORKLOADS = ("brick-sweep", "fan-search", "long-words")
# the reference snippet of pace.py whose work each workload's time follows
REFERENCE = {"brick-sweep": "compute", "fan-search": "compute", "long-words": "copy"}

# Item counts are fixed by the seed and the run length, never by the
# machine's speed: a run of S seconds holds S times these nominal rates,
# a little below the seed commit's rates at the reference speed of
# pace.py.  A faster program finishes the same list sooner.
BRICK_ITEMS_PER_S = 30.0
LONG_ITEMS_PER_S = 5.0
FAN_PASS_S = 10.0

# brick-sweep strata: (alphabet, word length); n is the largest letter.
BRICK_STRATA = tuple(
    [((2, 3), length) for length in range(9, 13)]
    + [((2, 3, 4), length) for length in range(6, 9)]
)
BRICK_LAMBDAS = (1, 2, 3)
BRICK_WARMUP = 20

# fan-search: the distinct searches of 0.1 s to 6 s at the seed commit.
FAN_SEARCHES = ((3, 6), (4, 3), (5, 2), (4, 4), (5, 3), (6, 2))
# Warm-up searches run over two vertices, so no module they build is a
# module of a timed search.
FAN_WARMUP = ((2, 2), (2, 3))

# every run cycles through the alphabet sizes, so all seeds hold the same
# mix of costs and the same longest word
LONG_LENGTH = 1000
LONG_ALPHABETS = (2, 3, 4, 5, 6)
LONG_WARMUP = 2
# quintile edges of the rotation work (see _rotation_work) of random
# words of LONG_LENGTH letters; every run draws the same number of words
# from each quintile for each alphabet size, so run costs match across seeds
LONG_WORK_EDGES = (0, 322_000, 415_000, 518_000, 692_000, LONG_LENGTH**2 + 1)


# ---------------------------------------------------------------- helpers


def _rotations(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [w[k:] + w[:k] for k in range(len(w))]


def _min_rotation(w: tuple[int, ...]) -> tuple[int, ...]:
    return min(_rotations(w))


def _primitive(w: tuple[int, ...]) -> bool:
    r = len(w)
    return all(w[r - d :] + w[: r - d] != w for d in range(1, r) if r % d == 0)


def _ref_pcw(w: tuple[int, ...]) -> bool:
    """Transform test written independently of bandbrick.words."""
    if not _primitive(w):
        return False
    last = [rot[-1] for rot in sorted(_rotations(w))]
    return all(a >= b for a, b in zip(last, last[1:]))


def _cycles(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The letters of w along each cycle of its inverse standard permutation."""
    order = sorted(range(len(w)), key=lambda p: (w[p], p))
    seen = [False] * len(w)
    out = []
    for start in range(len(w)):
        if seen[start]:
            continue
        cycle = []
        p = start
        while not seen[p]:
            seen[p] = True
            cycle.append(w[p])
            p = order[p]
        out.append(tuple(cycle))
    return out


def _ref_phi(w: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Necklace multiset of w, written independently of bandbrick.words."""
    return tuple(sorted(_min_rotation(cycle) for cycle in _cycles(w)))


def _rotation_work(w: tuple[int, ...]) -> int:
    """Sum of squared necklace lengths of phi(w): the letters that copying
    every rotation of every necklace moves, which dominates long-words."""
    return sum(len(cycle) ** 2 for cycle in _cycles(w))


def _ref_witness(n: int) -> list[list[int]]:
    """The standard compatible family of the paper, from its formula."""
    family = []
    for i in range(1, (n - 1) // 2 + 1):
        vec = [0] * n
        vec[0], vec[i], vec[n - i] = -2, 1, 1
        family.append(vec)
    if n % 2 == 0:
        vec = [0] * n
        vec[0], vec[n // 2] = -1, 1
        family.append(vec)
    return sorted(family)


def gvector_of_counts(w: tuple[int, ...]) -> tuple[int, ...]:
    """(-s, a_2, ..., a_k): a_i counts letter i, s is their sum."""
    k = max(w)
    counts = [w.count(letter) for letter in range(2, k + 1)]
    return (-sum(counts),) + tuple(counts)


# ------------------------------------------------------------ generators


def brick_pool() -> list[tuple[tuple[int, ...], int]]:
    """One (necklace, n) per primitive conjugacy class in every stratum."""
    pool = []
    for letters, length in BRICK_STRATA:
        classes = {
            _min_rotation(w) for w in itertools.product(letters, repeat=length)
        }
        pool.extend(
            (w, max(letters)) for w in sorted(classes) if _primitive(w)
        )
    return pool


def _brick_items(rng: random.Random, seconds: float) -> tuple[list, list]:
    # stratified sample without replacement: every seed draws the same
    # number of classes from each stratum, so costs match across seeds
    pool = brick_pool()
    rng.shuffle(pool)
    warmup = pool[:BRICK_WARMUP]
    rest = pool[BRICK_WARMUP:]
    share = min(1.0, seconds * BRICK_ITEMS_PER_S / len(rest))
    items = []
    for letters, length in BRICK_STRATA:
        stratum = [
            it for it in rest if it[1] == max(letters) and len(it[0]) == length
        ]
        items.extend(stratum[: round(share * len(stratum))])
    rng.shuffle(items)
    return warmup, items


def _random_long_word(rng: random.Random, k: int, quintile: int) -> tuple[int, ...]:
    low, high = LONG_WORK_EDGES[quintile : quintile + 2]
    letters = range(1, k + 1)
    while True:
        w = tuple(rng.choices(letters, k=LONG_LENGTH))
        if max(w) > 1 and _primitive(w) and low <= _rotation_work(w) < high:
            return w


def _long_words(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    strata = len(LONG_ALPHABETS)
    kinds = [
        (LONG_ALPHABETS[i % strata], (i // strata) % (len(LONG_WORK_EDGES) - 1))
        for i in range(count)
    ]
    rng.shuffle(kinds)
    return [_random_long_word(rng, k, quintile) for k, quintile in kinds]


def make_items(workload: str, seed: int, seconds: float) -> tuple[list, list[list]]:
    """Warm-up items and the timed items, split into segments.

    Each segment runs in its own fresh worker process.  Only fan-search
    has more than one: one segment per pass over its searches, so that no
    state built by one pass can serve a later one.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "brick-sweep":
        warmup, items = _brick_items(rng, seconds)
        return warmup, [items]
    if workload == "fan-search":
        passes = max(1, round(seconds / FAN_PASS_S))
        segments = []
        for _ in range(passes):
            order = list(FAN_SEARCHES)
            rng.shuffle(order)
            segments.append(order)
        return list(FAN_WARMUP), segments
    if workload == "long-words":
        # the warm-up stream has its own generator, so it never repeats
        # a timed word
        warm_rng = random.Random(f"{workload}:{seed}:warmup")
        warmup = _long_words(warm_rng, LONG_WARMUP)
        count = max(1, round(seconds * LONG_ITEMS_PER_S))
        return warmup, [_long_words(rng, count)]
    raise ValueError(f"unknown workload {workload!r}")


def items_hash(warmup: list, segments: list[list]) -> str:
    text = json.dumps([warmup, segments], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------- item calls


def _run_brick(item):
    w, n = item
    pcw = words.is_perfectly_clustering(w)
    walk = gentle.psi(w, n)
    bricks = [
        gentle.is_brick(gentle.band_module(walk, Fraction(lam), n))
        for lam in BRICK_LAMBDAS
    ]
    return pcw, bricks


def _run_fan(item):
    n, box = item
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["fan", "maxcompat", "--n", str(n), "--box", str(box), "--json"]
        )
    return code, out.getvalue()


def _run_long(w):
    bwt = words.bw_transform(w)
    back = words.bw_inverse(bwt)
    neck = words.necklace(w)
    prim = words.is_primitive(w)
    ms = words.phi(w)
    again = words.phi_inverse(ms)
    g = gvector_of_counts(w)
    erased = dyck.erase_ones(dyck.circular_words(g))
    svg = render.render_dyck(g)
    return back, neck, prim, again, erased, svg


RUNNERS = {"brick-sweep": _run_brick, "fan-search": _run_fan, "long-words": _run_long}


def run_item(workload: str, item):
    return RUNNERS[workload](item)


# ----------------------------------------------------------------- checks


def _check_brick(item, answer) -> str | None:
    w, _ = item
    pcw, bricks = answer
    if len(set(bricks)) != 1:
        return f"brick answer depends on lambda: {bricks}"
    if pcw != _ref_pcw(w):
        return f"transform test says {pcw}, reference says {not pcw}"
    if pcw != bricks[0]:
        return f"transform test says {pcw}, module brick test says {bricks[0]}"
    return None


def _check_fan(item, answer) -> str | None:
    n, _ = item
    code, text = answer
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return f"output is not JSON: {text[:80]!r}"
    if data.get("size") != math.ceil((n - 1) / 2):
        return f"size {data.get('size')} != ceil((n-1)/2)"
    if sorted(data.get("max_clique", [])) != _ref_witness(n):
        return f"witness {data.get('max_clique')} is not the standard family"
    return None


def _check_long(w, answer) -> str | None:
    back, neck, prim, again, erased, svg = answer
    if neck != _min_rotation(w):
        return "necklace is not the minimal rotation"
    if back != neck:
        return "bw_inverse(bw_transform(w)) != necklace(w)"
    if prim is not True:
        return "a primitive word was called non-primitive"
    if again != w:
        return "phi_inverse(phi(w)) != w"
    g = gvector_of_counts(w)
    ordered = tuple(
        letter for letter in range(len(g), 1, -1) for _ in range(g[letter - 1])
    )
    if erased != _ref_phi(ordered):
        return "erased circular words != phi of the sorted word"
    try:
        ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    return None


CHECKS = {"brick-sweep": _check_brick, "fan-search": _check_fan, "long-words": _check_long}


def check_item(workload: str, item, answer) -> str | None:
    return CHECKS[workload](item, answer)
