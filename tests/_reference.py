"""The pairwise scan of graph maps, a second engine beside the joint sort,
the dense arrow matrices the elimination engine reads, and perfectly
clustering words built by construction.

gentle counts Hom, tests bricks past gentle._SCAN_STEPS and builds the
fan search's compatibility graph from one joint rotation sort of the
codes (gentle._joint_sort).  The scan below reads no sort, so the tests
that hold those readers to it check the sort's shared front end too.
"""

import collections
from fractions import Fraction

from bandbrick import words
from bandbrick.errors import MultipleCycles


def _scan_graph_maps(x, y):
    # the pairwise scan, a second engine for hom_dim's count by the joint
    # sort: yields (i, j, d) for each maximal common walk x[i:i+d] ==
    # y[j:j+d], d >= 0, with admissible ends.  A start is
    # a position x enters by an inverse and y by an arrow, and of the two
    # steps that leave a vertex the arrow has code c and the inverse c + 7,
    # so x's step c starts a walk against y's steps c and c + 7; the walk
    # ends where x goes on by an arrow and y by an inverse.  Quadratic in
    # the steps on nearly periodic walks
    starts = collections.defaultdict(list)  # the positions y enters by an arrow
    for j, c in enumerate(y):
        if not y[j - 1] & 1:
            starts[c].append(j)
    bound = len(x) + len(y)
    xs = [*x] * (bound // len(x) + 3) + [-1]
    ys = [*y] * (bound // len(y) + 3) + [-2]
    for i, c in enumerate(x):
        if x[i - 1] & 1:
            for j in starts[c] + starts[c + 7]:
                a, b = i, j
                while xs[a] == ys[b]:
                    a += 1
                    b += 1
                assert a - i <= bound, "a common walk outruns both periods"
                if xs[a] & 1 < ys[b] & 1:
                    yield i, j, a - i


def _scan_hom_dim(m, w):
    # Hom(m, w) by the pairwise scan, plus the cycle when both lie on one
    # band, named by its canonical walk, and the parameters agree; walks of
    # two lengths are read no further
    return sum(1 for _ in _scan_graph_maps(m.codes, w.codes)) + (
        len(m.codes) == len(w.codes) and m.walk == w.walk and m.lam == w.lam
    )


def dense_matrices(module):
    # every arrow of a module as dense rows of Fractions, keyed by (kind,
    # index), expanded from the sparse basis maps BandModule.matrices()
    # yields: a zero wherever no entry is listed
    dense = {}
    for key, ((rows, cols), entries) in module.matrices():
        matrix = [[Fraction(0)] * cols for _ in range(rows)]
        for (row, col), value in entries.items():
            matrix[row][col] = value
        dense[key] = tuple(map(tuple, matrix))
    return dense


def perfectly_clustering_word(rng, length):
    # bw_inverse of a weakly decreasing word that uses each of 5, 4, 3, 2
    # and whose standard permutation is one cycle.  None of 4 or 5 letters
    # is (of 6 letters, 2 of the 10 are), so shorter lengths are refused
    # rather than drawn from forever
    if length < 6:
        raise ValueError(f"a perfectly clustering word here needs 6 letters, not {length}")
    while True:
        cuts = sorted(rng.sample(range(1, length), 3))
        runs = [b - a for a, b in zip([0, *cuts], [*cuts, length])]
        decreasing = [letter for letter, run in zip((5, 4, 3, 2), runs) for _ in range(run)]
        try:
            return words.bw_inverse(decreasing)
        except MultipleCycles:
            continue
