"""Acceptance gate: every criterion runs and prints one status line."""

import json
import subprocess
import sys
from unittest import mock

import pytest

from bandbrick import acceptance, cli, dyck, forms, gentle, words

from _helpers import _child_env, _report


@pytest.fixture(scope="module")
def verify_all():
    # every suite runs once, through the command users run, under -O: the
    # package has no assert and never reads __debug__, so -O strips nothing
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bandbrick", "verify", "all", "--json"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode in (0, 1) and proc.stderr == "", proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert [r["name"] for r in results] == acceptance.suite_names()
    return {r["name"]: r for r in results}


@pytest.mark.parametrize(
    "number,name",
    [(number, name) for number, name, _ in acceptance.SUITES],
    ids=acceptance.suite_names(),
)
def test_criterion(number, name, verify_all, request):
    result = verify_all[name]
    ok = result["ok"] and result["cases"] > 0 and result["failures"] == 0
    verdict = "PASS" if ok else "FAIL"
    _report(request.config, f"ACCEPTANCE {number} ({name}): {verdict} {result['seconds']:.3f} s")
    assert ok, f"criterion {number} ({name}): {result['detail']}"
    assert type(result["seconds"]) is float and result["seconds"] >= 0


def _edge_of_nonzero_form(f):
    # one more edge, between the first and the last brick of each box, whose
    # Euler form is 3; no clique grows, so only the form check sees it
    def orthogonal(modules):
        adj = f(modules)
        if len(adj) > 1:
            adj[0] |= 1 << len(adj) - 1
            adj[-1] |= 1
        return adj

    return orthogonal


# one planted fault per suite, as (suite, module, attribute, fault of the
# original function); hom_dim + 1 everywhere cancels in the Euler
# difference and in the duality, so within hom-euler only the End check
# sees it.  A sort that finds a map on every diagonal reaches christoffel
# only through its Fibonacci slopes, the walks past gentle._SCAN_STEPS
_FAULTS = [
    ("golden", words, "bw_transform", lambda f: lambda w: f(w)[::-1]),
    ("brick-pcw", gentle, "is_brick", lambda f: lambda m: True),
    ("brick-pcw", words, "is_perfectly_clustering", lambda f: lambda w: not f(w)),
    ("brick-pcw", words, "is_perfectly_clustering_by_factors", lambda f: lambda w: not f(w)),
    ("curves-words", dyck, "erase_ones", lambda f: lambda ms: f(ms)[1:]),
    ("hom-euler", forms, "euler_form", lambda f: lambda x, y: f(x, y) + 1),
    ("hom-euler", gentle, "hom_dim", lambda f: lambda m, w: f(m, w) + 1),
    ("bricks-n4", forms, "is_brick_gvector_n4", lambda f: lambda g: not f(g)),
    ("max-compat", forms, "witness_family", lambda f: lambda n: f(n)[:-1]),
    ("max-compat", gentle, "hom_orthogonal", _edge_of_nonzero_form),
    ("necklace-bound", words, "phi", lambda f: lambda w: tuple(sorted((a,) for a in w))),
    ("christoffel", forms, "euler_form", lambda f: lambda x, y: f(x, y) + 1),
    ("christoffel", gentle, "hom_orthogonal", lambda f: lambda modules: [0] * len(modules)),
    ("witness", forms, "compatible", lambda f: lambda g1, g2: True),
    ("structural", dyck, "component_gvectors", lambda f: lambda g: f(g)[1:]),
]


@pytest.mark.parametrize(
    "name,module,attribute,fault",
    _FAULTS,
    ids=[f"{name}-{attribute}" for name, _, attribute, _ in _FAULTS],
)
def test_a_planted_fault_fails_the_suite(name, module, attribute, fault, capsys):
    # verify runs the suite once; the spy keeps the record and its verdict
    number = next(num for num, suite, _ in acceptance.SUITES if suite == name)
    seen = []
    verdict = acceptance.verdict

    def spy(record):
        seen.append((record, verdict(record)))
        return seen[-1][1]

    with mock.patch.object(module, attribute, fault(getattr(module, attribute))):
        with mock.patch.object(acceptance, "verdict", spy):
            code = cli.main(["verify", name])
    [((summary, cases, failures), (ok, detail))] = seen
    assert not ok and 1 <= len(failures) <= cases
    assert detail == f"{summary}; failed: {failures[:5]}"
    assert (code, capsys.readouterr().out) == (1, f"criterion {number} ({name}): FAIL ({detail})\n")


def test_max_compat_enumerates_each_box_once():
    # five box-2 searches, each read for its witness, bricks and graph, then (3, 4)
    enumerate_bricks = forms._enumerate_brick_gvectors
    with mock.patch.object(forms, "_enumerate_brick_gvectors", wraps=enumerate_bricks) as spy:
        acceptance.max_compat(0)
    assert [c.args for c in spy.call_args_list] == [(3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (3, 4)]
