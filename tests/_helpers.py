"""Helpers that more than one test file uses: the environment of a child
interpreter, the capture bypass for report lines, the g-vector draws of
the trace and render tests, and the mirror sigma of a g-vector.
"""

import itertools
import os
import random
import sys
from pathlib import Path

import bandbrick
from bandbrick import dyck


def _child_env():
    # this environment, with the package under test first on the path of a
    # child interpreter
    return {**os.environ, "PYTHONPATH": str(Path(bandbrick.__file__).resolve().parents[1])}


def _report(config, line):
    # bypass output capture so the line reaches the real stdout
    capman = config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _small_valid_gvectors():
    # all 498 valid g-vectors with n <= 5 and entries in [-3, 3]
    for n in range(2, 6):
        for g in itertools.product(range(-3, 4), repeat=n):
            if dyck.validate_gvector(g):
                yield g


def _long_words_gvectors(count=20):
    # letter counts of seeded 1000-letter words over {1..k}, k from 2 to 6
    rng = random.Random(1100)
    out = []
    for i in range(count):
        letters = range(1, 2 + i % 5 + 1)
        w = rng.choices(letters, k=1000)
        counts = [w.count(letter) for letter in range(2, max(letters) + 1)]
        out.append((-sum(counts),) + tuple(counts))
    return out


def _sigma(g):
    return tuple(-a for a in reversed(g))
