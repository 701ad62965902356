"""Command-line interface: encodings, output formats, exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandbrick
from bandbrick import acceptance, cli, dyck, errors, gentle, words
from bandbrick.cli import main

from _helpers import _child_env, _report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# `band module 2332 --lambda 3/2`, recorded before the sparse module storage
MODULE_2332_TEXT = """\
n: 3
lambda: 3/2
dims: 4,6,2
a1: [['0', '0', '0', '0', '0', '3/2'], ['1', '0', '0', '0', '0', '0'], ['0', '1', '0', '0', '0', '0'], ['0', '0', '0', '1', '0', '0']]
a2: [['0', '0'], ['0', '0'], ['0', '0'], ['1', '0'], ['0', '0'], ['0', '1']]
b1: [['1', '0', '0', '0', '0', '0'], ['0', '1', '0', '0', '0', '0'], ['0', '0', '1', '0', '0', '0'], ['0', '0', '0', '0', '1', '0']]
b2: [['0', '0'], ['0', '0'], ['1', '0'], ['0', '0'], ['0', '1'], ['0', '0']]
"""

MODULE_2332_JSON = (
    '{"n": 3, "lambda": "3/2", "dims": [4, 6, 2], '
    '"arrows": {"a1": [["0", "0", "0", "0", "0", "3/2"], ["1", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"]], '
    '"a2": [["0", "0"], ["0", "0"], ["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"]], '
    '"b1": [["1", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0"], ["0", "0", "0", "0", "1", "0"]], '
    '"b2": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]]}}\n'
)


class TestWordCommands:
    def test_bw_letters(self, capsys):
        code, out, _ = run(capsys, "bw", "acab")
        assert (code, out) == (0, "cbaa\n")

    def test_bw_digits(self, capsys):
        code, out, _ = run(capsys, "bw", "1312")
        assert (code, out) == (0, "3211\n")

    def test_bw_csv(self, capsys):
        code, out, _ = run(capsys, "bw", "1,3,1,2")
        assert (code, out) == (0, "3,2,1,1\n")

    def test_bw_json(self, capsys):
        code, out, _ = run(capsys, "bw", "acab", "--json")
        assert code == 0
        assert json.loads(out) == [3, 2, 1, 1]

    def test_bw_inverse(self, capsys):
        code, out, _ = run(capsys, "bw-inverse", "ccccbbbaaa")
        assert (code, out) == (0, "acacacbbbc\n")

    def test_pcw_methods_agree(self, capsys):
        for method in ["bw", "factors", "both"]:
            code, out, _ = run(capsys, "pcw", "acacacbbbc", "--method", method)
            assert (code, out) == (0, "true\n")

    def test_pcw_both_on_a_long_word(self, capsys):
        # 2,000 letters, perfectly clustering: bw_inverse of 501 fives, 500
        # fours, 500 threes and 499 twos, whose standard permutation is one
        # cycle; the cubic factor loop took over 120 s on such a word
        runs = ((5, 501), (4, 500), (3, 500), (2, 499))
        word = words.bw_inverse([letter for letter, run in runs for _ in range(run)])
        start = time.perf_counter()
        code, out, _ = run(capsys, "pcw", "".join(map(str, word)), "--method", "both")
        assert time.perf_counter() - start < _TIME_LIMIT_S
        assert (code, out) == (0, "true\n")

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "phi", "baacbcab")
        assert (code, out) == (0, "(aaacb) (b) (bc)\n")

    def test_phi_inverse(self, capsys):
        code, out, _ = run(capsys, "phi-inverse", "[[1,1,1,3,2],[2],[2,3]]")
        assert (code, out) == (0, "21132312\n")

    def test_phi_round_trip_json(self, capsys):
        code, out, _ = run(capsys, "phi", "baacbcab", "--json")
        ms = json.loads(out)
        code2, out2, _ = run(capsys, "phi-inverse", json.dumps(ms))
        assert (code, code2) == (0, 0)
        assert out2 == "21132312\n"


class TestGVecCommands:
    def test_check(self, capsys):
        code, out, _ = run(capsys, "gvec", "check", "-3,-1,3,-2,3")
        assert (code, out) == (0, "true\n")

    def test_words_json(self, capsys):
        code, out, _ = run(capsys, "gvec", "words", "-3,-1,3,-2,3", "--json")
        assert code == 0
        assert json.loads(out) == [[1, 3, 1, 5, 4, 5, 4, 5], [1, 3, 2, 3]]

    def test_dyck(self, capsys):
        assert run(capsys, "gvec", "dyck", "-1,-1,2") == (0, "steps: uudd\nlabels: 1,2,3,3\n", "")
        assert run(capsys, "gvec", "dyck", "-1,-1,2", "--json") == (
            0, '{"steps": "uudd", "labels": [1, 2, 3, 3]}\n', ""
        )
        # zero entries add no steps
        assert run(capsys, "gvec", "dyck", "-2,0,0,2") == (0, "steps: uudd\nlabels: 1,1,4,4\n", "")
        assert run(capsys, "gvec", "dyck", "-2,0,0,2", "--json") == (
            0, '{"steps": "uudd", "labels": [1, 1, 4, 4]}\n', ""
        )

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "gvec", "decompose", "-3,-1,3,-2,3")
        assert code == 0
        assert out == "-2,0,1,-2,3\n-1,-1,2,0,0\n"


class TestBandCommands:
    def test_walk(self, capsys):
        code, out, _ = run(capsys, "band", "walk", "23223")
        assert code == 0
        assert out == "a1 b1- a1 a2 b2- b1- a1 b1- a1 b1- a1 a2 b2- b1-\n"

    def test_module_json(self, capsys):
        code, out, _ = run(capsys, "band", "module", "2", "--lambda", "5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["dims"] == [1, 1]
        assert data["arrows"]["a1"] == [["5"]]
        assert data["arrows"]["b1"] == [["1"]]

    def test_module_golden(self, capsys):
        # multi-visit module: arrow order a1, a2, b1, b2, zero entries kept
        code, out, _ = run(capsys, "band", "module", "2332", "--lambda", "3/2")
        assert code == 0
        assert out == MODULE_2332_TEXT
        code, out, _ = run(capsys, "band", "module", "2332", "--lambda", "3/2", "--json")
        assert code == 0
        assert out == MODULE_2332_JSON

    def test_module_honours_n(self, capsys):
        code, out, _ = run(capsys, "band", "module", "2", "--n", "3")
        assert code == 0
        assert out.startswith("n: 3\nlambda: 1\ndims: 1,1,0\n")

    def test_walk_and_brick_honour_n(self, capsys):
        code, out, _ = run(capsys, "band", "walk", "2", "--n", "3", "--json")
        assert code == 0
        assert json.loads(out) == {"walk": "a1 b1-", "gvector": [-1, 1, 0]}
        code, out, _ = run(capsys, "band", "brick", "2", "--n", "3")
        assert (code, out) == (0, "true\n")

    def test_brick(self, capsys):
        code, out, _ = run(capsys, "band", "brick", "23223")
        assert (code, out) == (0, "true\n")

    def test_brick_false(self, capsys):
        code, out, _ = run(capsys, "band", "brick", "2233")
        assert (code, out) == (0, "false\n")

    def test_hom_with_walk_specs(self, capsys):
        code, out, _ = run(capsys, "band", "hom", "a1 b1-", "a1 a2 b2- b1-", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["hom_xy"] - data["hom_yx"] == data["euler"]

    def test_hom_same_band_distinct_lambda(self, capsys):
        # the second pair is one walk and its inverse: the same family
        for spec1, spec2 in [("23", "23"), ("a1 b1-", "b1 a1-")]:
            code, out, _ = run(capsys, "band", "hom", spec1, spec2, "--json")
            assert code == 0
            data = json.loads(out)
            assert data == {"hom_xy": 0, "hom_yx": 0, "ext1_xy": 0, "ext1_yx": 0, "euler": 0}

    def test_hom_golden(self, capsys):
        # recorded before Ext was read off the two Hom dimensions
        code, out, _ = run(capsys, "band", "hom", "2", "23", "--lambda1", "3/2")
        assert code == 0
        assert out == "hom_xy: 1\nhom_yx: 0\next1_xy: 0\next1_yx: 1\neuler: 1\n"
        code, out, _ = run(capsys, "band", "hom", "2332", "2", "--lambda2=-2/5", "--json")
        assert code == 0
        assert out == (
            '{"hom_xy": 0, "hom_yx": 2, "ext1_xy": 2, "ext1_yx": 0, "euler": -2}\n'
        )

    def test_hom_honours_n_zero(self, capsys):
        code, out, err = run(capsys, "band", "hom", "a1 b1-", "a1 a2 b2- b1-", "--n", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: InvalidWalk")


class TestFanCommands:
    def test_brick4(self, capsys):
        code, out, _ = run(capsys, "fan", "brick4", "-2,-1,-3,6")
        assert (code, out) == (0, "true\n")

    def test_brick4_false(self, capsys):
        code, out, _ = run(capsys, "fan", "brick4", "-2,0,0,2")
        assert (code, out) == (0, "false\n")

    def test_maxcompat(self, capsys):
        code, out, _ = run(capsys, "fan", "maxcompat", "--n", "3", "--box", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"size": 1, "max_clique": [[-2, 1, 1]]}

    @pytest.mark.parametrize("n, box", [("0", "1"), ("1", "2"), ("-3", "2"), ("3", "0")])
    def test_maxcompat_bad_size(self, capsys, n, box):
        code, out, err = run(capsys, "fan", "maxcompat", "--n", n, "--box", box)
        assert (code, out) == (1, "")
        assert err.startswith("error: BadDimension: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_maxcompat_too_large(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "fan", "maxcompat", "--n", "12", "--box", "3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: SearchTooLarge: ")
        assert err.count("\n") == 1

    def test_maxcompat_has_no_seed(self, capsys):
        code, _, _ = run(capsys, "fan", "maxcompat", "--n", "3", "--box", "2", "--seed", "1")
        assert code == 2

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "-2,1,0,1", "-1,0,1,0")
        assert (code, out) == (0, "0\n")


class TestVerify:
    def test_named_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "witness")
        assert code == 0
        assert "criterion 9 (witness): PASS" in out

    def test_numbered_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "9", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["results"][0]["name"] == "witness"
        assert (data["results"][0]["cases"], data["results"][0]["failures"]) == (6, 0)

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == 2
        assert "unknown suite" in err

    @pytest.mark.parametrize(
        "suite, numbers",
        [("7", [7]), ("007", [7]), ("010", [10]), ("necklace-bound", [7]),
         ("all", list(range(1, 11))), ("0", []), ("", []), ("100", []), ("+7", []),
         (" 7", []), ("7 ", []), ("\u0667", []), ("\u06607", []), ("x7", [])],
    )
    def test_selection(self, capsys, monkeypatch, suite, numbers):
        # a name, or a criterion number after any leading zeros, compared as
        # strings; stand-in suites, so that only the selection runs
        monkeypatch.setattr(acceptance, "SUITES", [
            (num, name, lambda seed: ("stand-in", 1, [])) for num, name, _ in acceptance.SUITES
        ])
        code, out, err = run(capsys, "verify", suite, "--json")
        if numbers:
            assert code == 0 and [r["criterion"] for r in json.loads(out)["results"]] == numbers
        else:
            assert (code, out) == (2, "") and "unknown suite" in json.loads(err)["message"]

    def test_text_carries_no_time(self, capsys):
        code, out, _ = run(capsys, "verify", "witness")
        assert (code, out) == (
            0,
            "criterion 9 (witness): PASS "
            "(orthogonal pair rejected by Hom test; midpoint is a brick)\n",
        )


class TestRender:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "render", "-1,1")
        assert code == 0
        assert out.startswith("<svg")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        code, out, _ = run(capsys, "render", "-1,-1,2", "-o", str(target))
        assert code == 0
        assert target.read_text().startswith("<svg")
        assert out == f"{target}\n"

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(capsys, "render", "-1,1", "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: cannot write")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra", [[], ["--json"], ["-o", "out.svg"]])
    def test_overflowing_unit_refused(self, capsys, tmp_path, extra):
        # 4 units of 5e307 overflow a float; nothing is written
        extra = [str(tmp_path / a) if a == "out.svg" else a for a in extra]
        code, out, err = run(capsys, "render", "-1,1", "--unit", "5e307", *extra)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        if "--json" in extra:
            assert json.loads(err)["error"] == "DrawingTooLarge"
        else:
            assert err.startswith("error: DrawingTooLarge: ")
        assert list(tmp_path.iterdir()) == []

    def test_largest_unit_admitted(self, capsys):
        code, out, err = run(capsys, "render", "-1,1", "--unit", "4e307")
        assert (code, err) == (0, "")
        assert out.startswith("<svg")
        assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize(
        "argv, width",
        [(["-1,1", "--unit", "0.001"], "0.08"), (["-1,1", "--width", "1e-300"], "0.08"),
         (["--width", "480", "--", "-75000,75000"], "3000.04")],
        ids=["unit", "width", "bound"],
    )
    def test_too_small_unit_refused(self, capsys, argv, width):
        # two decimals would print every column at one x
        code, out, err = run(capsys, "render", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: DrawingTooSmall: ")
        assert err.endswith(f"use --unit 0.02 or --width {width} or more\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["-1,1", "--unit", "0.02"], ["-1,1", "--width", "0.08"]], ids=["unit", "width"]
    )
    def test_smallest_unit_admitted(self, capsys, argv):
        code, out, err = run(capsys, "render", *argv)
        assert (code, err) == (0, "")
        assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="0.08" height="0.08"')

    @pytest.mark.parametrize(
        "flag, value", [("--unit", "0"), ("--unit", "-1"), ("--width", "-5"), ("--width", "0")]
    )
    def test_non_positive_size(self, capsys, flag, value):
        code, out, err = run(capsys, "render", "-1,1", flag, value)
        assert (code, out) == (2, "")
        assert "must be a positive number" in err


class TestErrorsAndFormats:
    def test_mixed_encoding_usage_error(self, capsys):
        code, _, err = run(capsys, "bw", "a1b")
        assert code == 2
        assert "usage error" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "bw-inverse", "cba")
        assert code == 1
        assert "MultipleCycles" in err

    def test_phi_inverse_checks_entries_in_order(self, capsys):
        for multiset, line in (
            ("[[1,1],[]]", "error: NonPrimitiveNecklace: (1, 1) is a proper power\n"),
            ("[[],[1,1]]", "error: EmptyWord: word must be non-empty\n"),
        ):
            assert run(capsys, "phi-inverse", multiset) == (1, "", line)

    @pytest.mark.parametrize("multiset", ["[[true]]", "[[true,2]]", "[[2],[true]]"])
    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_phi_inverse_rejects_booleans(self, capsys, multiset, extra):
        # JSON true is a Python bool, an int subclass, but not a letter
        code, out, err = run(capsys, "phi-inverse", multiset, *extra)
        assert (code, out) == (2, "")
        message = "multiset must be a JSON array of arrays of positive integers"
        if extra:
            assert json.loads(err) == {"error": "UsageError", "message": message, "exit": 2}
        else:
            assert err == f"usage error: {message}\n"

    def test_non_primitive_factors_method(self, capsys):
        code, _, err = run(capsys, "pcw", "2323", "--method", "factors")
        assert code == 1
        assert "NonPrimitive" in err

    def test_invalid_gvector(self, capsys):
        code, _, err = run(capsys, "gvec", "words", "1,-1")
        assert code == 1
        assert "InvalidGVector" in err

    def test_zero_letter_rejected(self, capsys):
        code, _, err = run(capsys, "bw", "102")
        assert code == 2
        assert "digits 1-9" in err

    def test_env_var_json(self, capsys, monkeypatch):
        monkeypatch.setenv("BANDBRICK_FORMAT", "json")
        code, out, _ = run(capsys, "bw", "acab")
        assert code == 0
        assert json.loads(out) == [3, 2, 1, 1]

    def test_json_errors(self, capsys, monkeypatch):
        # under --json a domain or usage error is one JSON line on stderr
        monkeypatch.delenv("BANDBRICK_FORMAT", raising=False)
        for argv, expected in (
            (["gvec", "dyck", "1,2", "--json"],
             {"error": "InvalidGVector", "message": "(1, 2) is not a valid g-vector", "exit": 1}),
            (["bw", "a1b", "--json"],
             {"error": "UsageError",
              "message": "cannot read word 'a1b': use a-z, digits 1-9, or comma-separated integers",
              "exit": 2}),
            # argparse errors of the subcommand, before and after --json
            (["bw", "--json"],
             {"error": "UsageError", "message": "the following arguments are required: word",
              "exit": 2}),
            (["band", "brick", "2", "--n", "x", "--json"],
             {"error": "UsageError", "message": "argument --n: must be an integer: 'x'", "exit": 2}),
            (["bw", "abc", "extra", "--js"],
             {"error": "UsageError", "message": "unrecognized arguments: extra", "exit": 2}),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, json.loads(err)) == (expected["exit"], "", expected), argv
            assert err.count("\n") == 1

    def test_text_errors_unchanged(self, capsys, monkeypatch):
        monkeypatch.delenv("BANDBRICK_FORMAT", raising=False)
        assert run(capsys, "gvec", "dyck", "1,2") == (
            1, "", "error: InvalidGVector: (1, 2) is not a valid g-vector\n"
        )
        assert run(capsys, "bw", "abc", "extra") == (
            2, "", "usage: bandbrick [-h] command ...\n"
            "bandbrick: error: unrecognized arguments: extra\n"
        )
        # --json after -- is a word, not the flag
        code, out, err = run(capsys, "bw", "--", "--json")
        assert (code, out) == (2, "") and err.startswith("usage error: cannot read word '--json'")

    def test_errors_before_the_subcommand_read_only_the_environment(self, capsys, monkeypatch):
        # the top-level parser has no --json, so it answers in text unless
        # BANDBRICK_FORMAT asks for JSON
        monkeypatch.delenv("BANDBRICK_FORMAT", raising=False)
        for argv in (["--json", "gvec", "dyck", "1,2"], ["gvec", "bogus", "1,2", "--json"], []):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith("usage: bandbrick"), argv
        monkeypatch.setenv("BANDBRICK_FORMAT", "json")
        code, out, err = run(capsys, "--json", "gvec", "dyck", "1,2")
        assert (code, out, json.loads(err)) == (
            2, "", {"error": "UsageError", "message": "unrecognized arguments: --json", "exit": 2}
        )
        code, out, err = run(capsys, "euler", "1,-1", "x")
        assert (code, out, json.loads(err)["error"]) == (2, "", "UsageError")

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_bad_lambda(self, capsys):
        code, _, err = run(capsys, "band", "module", "2", "--lambda", "x")
        assert code == 2
        assert "usage error" in err

    def test_zero_lambda_domain_error(self, capsys):
        code, _, err = run(capsys, "band", "module", "2", "--lambda", "0")
        assert code == 1
        assert "ZeroLambda" in err

    @pytest.mark.parametrize(
        "argv",
        [["module", "2", "--lambda", "1e5000"], ["brick", "2", "--lambda", "1e10000000"],
         ["module", "2", "--lambda", "1.5"], ["brick", "2", "--lambda", "1_0"],
         ["module", "2", "--lambda", "+3"], ["module", "2", "--lambda", " 3/2"],
         ["hom", "2", "2", "--lambda1", "3/-2"]],
    )
    def test_lambda_is_an_integer_or_p_over_q(self, capsys, argv):
        # Fraction() reads exponents, and 1e10000000 would build 10**10000000
        start = time.perf_counter()
        code, out, err = run(capsys, "band", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "joined",
        [["module", "2", "--lambda=-2/3"], ["brick", "23", "--lambda=-2/3"],
         ["hom", "2", "2", "--lambda1=-2/3", "--lambda2=-5/7"]],
        ids=["module", "brick", "hom"],
    )
    def test_a_negative_fraction_is_a_value(self, capsys, joined):
        # argparse reads "-2/3" as a value, as it reads "-2", so the spaced
        # form prints what the = form prints
        spaced = [part for arg in joined for part in arg.split("=")]
        code, out, err = run(capsys, "band", *joined)
        assert code == 0 and err == "" and out
        assert run(capsys, "band", *spaced) == (code, out, err)


_words = st.one_of(
    st.text("abcdef", min_size=1, max_size=6),
    st.text("123456", min_size=1, max_size=6),
    st.lists(st.integers(1, 7), min_size=1, max_size=5).map(
        lambda w: ",".join(map(str, w))
    ),
)
_walks = st.lists(
    st.builds(
        "{}{}{}".format,
        st.sampled_from("ab"),
        st.one_of(st.integers(1, 4), st.just(10**9)),
        st.sampled_from(["", "-"]),
    ),
    min_size=1,
    max_size=8,
).map(" ".join)
_junk = st.sampled_from(["", " ", "-", "0", "a0", "a1 c2", "1,,2", "-3,1", "ab-", "--", "x"])
_specs = st.one_of(_words, _walks, _junk)
# a number of 5,000 digits, past Python's int-string conversion limit
_LONG = "1" * 5000
_lambdas = st.sampled_from(
    ["0", "1", "-1", "3/2", "-2/3", "1/0", "x", "nan", "1e5000", "1e10000000", _LONG, "1.5"]
)


@st.composite
def _band_argv(draw):
    op = draw(st.sampled_from(["walk", "module", "brick", "hom"]))
    argv = ["band", op, draw(_specs)]
    if op == "hom":
        argv.append(draw(_specs))
        for flag in ("--lambda1", "--lambda2"):
            if draw(st.booleans()):
                argv += [flag, draw(_lambdas)]
    elif op != "walk" and draw(st.booleans()):
        argv += ["--lambda", draw(_lambdas)]
    if draw(st.booleans()):
        argv += ["--n", str(draw(st.one_of(st.integers(-2, 8), st.sampled_from([100, 10**9]))))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


_huge_entries = st.sampled_from(["1000000000", "-1000000000", _LONG, f"-{_LONG}"])
_gvectors = st.one_of(
    st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(lambda g: ",".join(map(str, g))),
    st.lists(st.one_of(st.integers(-6, 6).map(str), _huge_entries), min_size=1, max_size=6).map(
        ",".join
    ),
    _junk,
)
_multisets = st.one_of(
    st.lists(st.lists(st.integers(1, 4), max_size=4), max_size=3).map(json.dumps),
    st.sampled_from(["", "[]", "[[]]", "[1]", "[[0]]", "[[1.5]]", '[["a"]]', "{}", "[[true]]", "x"]),
)
_sizes = st.one_of(st.integers(-2, 7), st.sampled_from([100, 10**9]))
_boxes = st.one_of(st.integers(-2, 3), st.sampled_from([100, 10**9]))
_numbers = st.sampled_from(["40", "0.5", "0", "-1", "1e308", "inf", "nan", "x"])
_SUITE_NAMES = {"all", *acceptance.suite_names()}
_NUMBERS = {str(num) for num, _, _ in acceptance.SUITES}
# no draw selects a suite: a number with leading zeros names one too
_suites = st.text("abcx019-_ ", max_size=6).filter(
    lambda name: name not in _SUITE_NAMES and name.lstrip("0") not in _NUMBERS
)
# the slowest admitted search drawn here, (6, 3), takes about 0.4 s
_TIME_LIMIT_S = 5


@st.composite
def _command_argv(draw, out_dir):
    cmd = draw(st.sampled_from(
        ["bw", "bw-inverse", "pcw", "phi", "phi-inverse", "gvec", "euler", "fan", "render",
         "verify"]
    ))
    if cmd in ("bw", "bw-inverse", "phi"):
        argv = [cmd, draw(st.one_of(_words, _junk))]
    elif cmd == "pcw":
        argv = [cmd, draw(st.one_of(_words, _junk))]
        if draw(st.booleans()):
            argv += ["--method", draw(st.sampled_from(["bw", "factors", "both", "x"]))]
    elif cmd == "phi-inverse":
        argv = [cmd, draw(_multisets)]
    elif cmd == "gvec":
        op = draw(st.sampled_from(["check", "dyck", "words", "decompose"]))
        argv = [cmd, op, draw(_gvectors)]
    elif cmd == "euler":
        argv = [cmd, draw(_gvectors), draw(_gvectors)]
    elif cmd == "fan":
        if draw(st.booleans()):
            argv = [cmd, "brick4", draw(_gvectors)]
        else:
            argv = [cmd, "maxcompat", "--n", str(draw(_sizes)), "--box", str(draw(_boxes))]
    elif cmd == "render":
        argv = [cmd, draw(_gvectors)]
        if draw(st.booleans()):
            name = draw(st.sampled_from(["out.svg", "", "missing/out.svg"]))
            argv += ["-o", str(out_dir / name)]
        for flag in ("--unit", "--width"):
            if draw(st.booleans()):
                argv += [flag, draw(_numbers)]
        if draw(st.booleans()):
            argv += ["--palette-seed", str(draw(st.integers(-5, 5)))]
    else:
        argv = [cmd, draw(_suites)]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", "x"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _check_accepted_output(argv, out, env_json):
    # what an accepted render or phi-inverse prints is well formed
    if argv[0] == "render":
        svg = Path(argv[argv.index("-o") + 1]).read_text() if "-o" in argv else out
        assert "inf" not in svg and "nan" not in svg, argv
        size = re.match(r'<svg xmlns="[^"]*" width="([^"]*)" height="([^"]*)"', svg)
        assert "0.00" not in size.groups(), argv
    elif argv[0] == "phi-inverse":
        if env_json or "--json" in argv:
            letters = json.loads(out)
            assert all(type(v) is int and v >= 1 for v in letters), argv
        else:
            assert re.fullmatch(r"[A-Za-z0-9,]+\n", out), argv


def _run_main(argv, env_json):
    # main under BANDBRICK_FORMAT=json or without it; (code, out, err, seconds)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("BANDBRICK_FORMAT", None)
        if env_json:
            os.environ["BANDBRICK_FORMAT"] = "json"
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _check_error_line(argv, env_json, code, err):
    # a failure prints one line on stderr: JSON when the format is set (the
    # environment, or --json among the subcommand's tokens before any --)
    if code == 0:
        return
    own = argv[: argv.index("--")] if "--" in argv else argv
    if env_json or "--json" in own:
        data = json.loads(err)
        assert err.count("\n") == 1 and set(data) == {"error", "message", "exit"}, argv
        assert data["exit"] == code, argv
        expected = errors.DomainError if code == 1 else cli.UsageError
        cls = cli.UsageError if data["error"] == "UsageError" else getattr(errors, data["error"])
        assert issubclass(cls, expected), argv
    else:
        assert err.startswith(("usage", "error: ")) and not err.startswith("{"), argv


@pytest.fixture(scope="module")
def render_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("render")


class TestExitContract:
    @pytest.mark.parametrize(
        "spec1, spec2", [("a1 b1-", "b1 b1-"), ("b1 b2-", "a1 b1-"), ("b1", "a1 b1-")]
    )
    def test_hom_rejects_a_non_band_before_choosing_lambda(self, capsys, spec1, spec2):
        # the second parameter is chosen only once both walks are bands
        code, out, err = run(capsys, "band", "hom", spec1, spec2)
        assert (code, out) == (1, "")
        assert err.startswith("error: InvalidWalk: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["band", "brick", "2", "--n", "1000000000"],
         ["band", "hom", "a1000000000 b1000000000-", "a1 b1-"]],
    )
    def test_huge_quiver_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: QuiverTooLarge: ")
        assert err.count("\n") == 1

    def test_walk_step_bound(self, capsys, monkeypatch):
        # 2332 has 12 steps: admitted at a bound of 12, refused at 11
        monkeypatch.setattr(gentle, "MAX_WALK_STEPS", 12)
        for op in ("walk", "brick", "module"):
            code, _, _ = run(capsys, "band", op, "2332")
            assert code == 0
        code, _, _ = run(capsys, "band", "hom", "2332", "2332")
        assert code == 0
        monkeypatch.setattr(gentle, "MAX_WALK_STEPS", 11)
        for argv in [["band", "walk", "2332"], ["band", "brick", "2332"],
                     ["band", "module", "2332"], ["band", "hom", "2", "2332"]]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: WalkTooLarge: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["band", "walk", "3000000,2"], ["band", "brick", "2,1000001"],
         ["band", "hom", "2", "3000000,2"]],
    )
    def test_huge_walk_is_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: WalkTooLarge: ") and err.count("\n") == 1

    def test_listing_vertex_bound(self, capsys, monkeypatch):
        start = time.perf_counter()
        code, out, err = run(capsys, "band", "module", "2", "--n", "1000001", "--json")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "QuiverTooLarge" and err.count("\n") == 1
        monkeypatch.setattr(cli, "MAX_LISTED_VERTICES", 5)
        code, out, _ = run(capsys, "band", "module", "2", "--n", "5")
        assert code == 0 and out.startswith("n: 5\n")
        code, out, err = run(capsys, "band", "module", "2", "--n", "6")
        assert (code, out) == (1, "")
        assert err.startswith("error: QuiverTooLarge: ")
        # brick and hom keep gentle.MAX_VERTICES
        code, out, _ = run(capsys, "band", "brick", "2", "--n", "6")
        assert (code, out) == (0, "true\n")

    def test_listing_entry_bound(self, capsys, monkeypatch):
        # 2 followed by 1000 threes: dims 1001, 2001, 1000, 8,008,002 entries
        code, out, err = run(capsys, "band", "module", ",".join(["2"] + ["3"] * 1000))
        assert (code, out) == (1, "")
        assert err.startswith("error: ListingTooLarge: ") and err.count("\n") == 1
        # 2332 lists 2 * (4 * 6 + 6 * 2) = 72 entries
        monkeypatch.setattr(cli, "MAX_LISTED_ENTRIES", 72)
        code, out, _ = run(capsys, "band", "module", "2332", "--lambda", "3/2")
        assert (code, out) == (0, MODULE_2332_TEXT)
        monkeypatch.setattr(cli, "MAX_LISTED_ENTRIES", 71)
        code, out, err = run(capsys, "band", "module", "2332", "--json")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ListingTooLarge"

    @pytest.mark.parametrize(
        "argv",
        [["verify", _LONG], ["phi-inverse", f"[[{_LONG}]]"], ["band", "hom", f"a{_LONG}", "a1"],
         ["gvec", "check", f"{_LONG},-1"], ["euler", f"{_LONG},-{_LONG}", "1,-1"],
         ["pcw", f"2,{_LONG}"], ["band", "walk", f"2,{_LONG}"]],
        ids=["verify", "phi-inverse", "band-hom", "gvec-check", "euler", "pcw", "band-walk"],
    )
    def test_number_past_the_int_string_limit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (1, 2) and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["bw", "\u0662\u0663"], ["pcw", "\u0662,\u0663"], ["verify", "\u0663"],
         ["fan", "maxcompat", "--n", "\u0663", "--box", "2"],
         ["render", "--unit", "\u0663", "-1,1"], ["band", "module", "2", "--lambda", "\u0663"]],
        ids=["bw", "pcw", "verify", "maxcompat-n", "render-unit", "band-lambda"],
    )
    def test_non_ascii_digits_are_usage_errors(self, capsys, argv):
        # Arabic-Indic digits, which \d, int(), float() and Fraction() would read
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, "")

    def test_non_ascii_walk_index_is_an_invalid_walk(self, capsys):
        code, out, err = run(capsys, "band", "hom", "a\u0661 b\u0661-", "a1 b1-")
        assert (code, out) == (1, "")
        assert err.startswith("error: InvalidWalk: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["gvec", "dyck"], ["gvec", "words"], ["gvec", "decompose"], ["render"]],
        ids=["gvec-dyck", "gvec-words", "gvec-decompose", "render"],
    )
    def test_gvector_past_the_step_bound(self, capsys, argv):
        half = dyck.MAX_STEPS // 2 + 1
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, f"-{half},{half}")
        assert time.perf_counter() - start < _TIME_LIMIT_S
        assert (code, out) == (1, "")
        assert err.startswith("error: GVectorTooLarge: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, expected",
        [(["gvec", "check", "-1000000000,1000000000"], "true\n"),
         (["euler", "-1000000000,1000000000", "-1,1"], "0\n"),
         (["fan", "brick4", "-1000000000,1,0,999999999"], "true\n")],
        ids=["gvec-check", "euler", "fan-brick4"],
    )
    def test_gvector_commands_without_a_diagram_stay_unbounded(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    @given(_band_argv(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_band_commands_exit_cleanly(self, argv, env_json):
        code, _, err, seconds = _run_main(argv, env_json)
        assert seconds < _TIME_LIMIT_S, argv
        assert code in (0, 1, 2), argv
        _check_error_line(argv, env_json, code, err)

    @given(st.data(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_command_exits_cleanly(self, render_dir, data, env_json):
        # exit 0, 1 or 2, nothing escaping main, and no unbounded work
        argv = data.draw(_command_argv(render_dir))
        code, out, err, seconds = _run_main(argv, env_json)
        assert seconds < _TIME_LIMIT_S, argv
        assert code in (0, 1, 2), argv
        _check_error_line(argv, env_json, code, err)
        if code == 0:
            _check_accepted_output(argv, out, env_json)


# one argv for each of the 18 subcommands that print a result
_RESULT_ARGV = [
    ["bw", "2,1,1"], ["bw-inverse", "cbaa"], ["pcw", "2,1,1"], ["phi", "baacbcab"],
    ["phi-inverse", "[[1,1,1,3,2],[2],[2,3]]"], ["gvec", "check", "-3,-1,3"],
    ["gvec", "dyck", "-1,-1,2"], ["gvec", "words", "-1,-1,2"],
    ["gvec", "decompose", "-3,-1,3,-2,3"], ["band", "walk", "23223"],
    ["band", "module", "2", "--lambda", "-2/3"], ["band", "brick", "23223"],
    ["band", "hom", "a1 b1-", "a1 a2 b2- b1-"], ["euler", "-1,1", "-1,1"],
    ["fan", "brick4", "-1,1,0,0"], ["fan", "maxcompat", "--n", "3", "--box", "2"],
    ["verify", "golden"], ["render", "-1,1"],
]


def _run_to_a_closed_pipe(flags, argv):
    # stdout is a pipe whose read end closes before the child starts; both
    # ends are closed here, so no descriptor is left for -X dev to report
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, *flags, "-m", "bandbrick", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv",
    _RESULT_ARGV,
    ids=[argv[0] + (f"-{argv[1]}" if argv[0] in ("gvec", "band", "fan") else "")
         for argv in _RESULT_ARGV],
)
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # buffered, a short result reaches the pipe at main's flush, where the
    # closed pipe raises; the exit code is 128 + SIGPIPE, which is not a
    # domain error's 1
    proc = _run_to_a_closed_pipe([], argv)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_a_closed_stdout_raises_at_print_unbuffered():
    # unbuffered, the first print raises, before main's flush
    proc = _run_to_a_closed_pipe(["-u"], ["band", "module", "2332"])
    assert (proc.returncode, proc.stderr) == (141, "")


def test_band_brick_on_a_long_random_word():
    # a walk this long is tested by the rotation sort, not the scan; the
    # full End count of this word took about 20 s
    rng = random.Random(10_000)
    word = "".join(rng.choice("2345") for _ in range(10_000))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bandbrick", "band", "brick", word],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < _TIME_LIMIT_S
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "false\n", "")


def _fibonacci_letters(length):
    a, b = "a", "ab"
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


# each size bound pinned by its worst known admitted input, which must
# exit 0 inside the 5 s contract and below _PIN_PEAK_RSS_MB; README's
# bounds table quotes each pin's time and peak RSS
_BOUND_PINS = {
    # dyck.MAX_STEPS: render of its slowest shape at the bound
    "render-max-steps": ["render", "--", "-75000,75000"],
    # cli.MAX_LISTED_ENTRIES: 2 followed by 450 threes lists 1,623,602
    # entries, as text and as JSON; 500 threes are refused
    "band-module-max-listed-entries": ["band", "module", "2" + "3" * 450],
    "band-module-max-listed-entries-json": ["band", "module", "2" + "3" * 450, "--json"],
    # gentle.MAX_VERTICES: a band across the 10^6-vertex quiver
    "band-hom-max-vertices": ["band", "hom", "a1000000 b1000000-", "a1000000 b1000000-"],
    # gentle.MAX_WALK_STEPS: a 2 followed by 18,749 fives, the largest
    # nearly periodic walk admitted (149,994 steps), whose brick test sorts
    "band-brick-max-walk-steps": ["band", "brick", "2" + "5" * 18_749],
    # and its Hom counts, which sort: against itself, one band, whose
    # second member is not sorted again, and against a 3 followed by
    # 18,748 fives (149,988 steps)
    "band-hom-max-walk-steps": ["band", "hom", "2" + "5" * 18_749, "2" + "5" * 18_749],
    "band-hom-max-walk-steps-two-bands": ["band", "hom", "2" + "5" * 18_749, "3" + "5" * 18_748],
    # forms.MAX_SEARCH_PREFIXES: the slowest admitted search
    "maxcompat-max-search-prefixes": ["fan", "maxcompat", "--n", "3", "--box", "70"],
    # the word commands' only bound is Linux's 131,072 bytes per argument:
    # both pcw methods on a 131,000-letter Fibonacci word, nearly all of it
    # the factor test's rotation sort, whose keys the word's repeats outrun
    "pcw-longest-argument": ["pcw", "--method", "both", _fibonacci_letters(131_000)],
}

# the peak RSS every pin stays below, on Python 3.10 to 3.13 (README's
# bounds table gives each pin's peak, and the margin)
_PIN_PEAK_RSS_MB = 150

# runs `python -m bandbrick` on its arguments, with stdout to /dev/null,
# and prints the exit code, the wall time and the peak RSS in KB that
# os.wait4 reads for that one child (RUSAGE_CHILDREN would keep the largest
# peak of every child reaped so far).  A child's peak RSS counts the peak
# of the process that spawned it, so a pin runs under this small launcher,
# not under the test process.  A pin still running after 50 s is killed
_PIN_LAUNCHER = """\
import os, signal, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "bandbrick", *sys.argv[1:]], stdout=subprocess.DEVNULL)
signal.signal(signal.SIGALRM, lambda *_: proc.kill())
signal.alarm(50)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, time.perf_counter() - start, usage.ru_maxrss)
"""


def _run_pin(argv):
    # (exit code, stderr, seconds, peak RSS in MB) of one pin's command
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PIN_LAUNCHER, *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, seconds, peak_kb = proc.stdout.split()
    return int(code), proc.stderr, float(seconds), int(peak_kb) / 1024


@pytest.mark.parametrize("name, argv", _BOUND_PINS.items(), ids=list(_BOUND_PINS))
def test_a_size_bound_admits_its_pinned_input_in_time(name, argv, request):
    # each pin's figures reach the log, also when an assertion fails
    code, err, seconds, peak_mb = _run_pin(argv)
    _report(request.config, f"PIN {seconds:6.2f} s {peak_mb:6.1f} MB exit {code} {name}")
    assert (code, err) == (0, "")
    assert seconds < _TIME_LIMIT_S
    assert peak_mb < _PIN_PEAK_RSS_MB


# imports the CLI as the benchmark worker does (no site, the package on
# PYTHONPATH) and prints the modules loaded, runs one command that
# succeeds and prints its exit code and the modules loaded, then runs
# verify golden
_CLI_PROBE = """\
import sys
import bandbrick.cli
print(*sorted(sys.modules))
code = bandbrick.cli.main(["bw", "2,1,1"])
print(code, *sorted(sys.modules))
sys.exit(bandbrick.cli.main(["verify", "golden"]))
"""


@pytest.fixture(scope="module")
def cli_probe():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CLI_PROBE],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    imported, out, commanded, verdict = proc.stdout.split("\n", 3)
    code, *commanded = commanded.split()
    return types.SimpleNamespace(
        returncode=proc.returncode,
        err=proc.stderr,
        imported=set(imported.split()),
        out=out,
        code=int(code),
        commanded=set(commanded),
        verdict=verdict,
    )


def test_cli_import_leaves_the_suites_unloaded(cli_probe):
    # only verify needs the acceptance suites and the xml parser they use,
    # only render the renderer, and only JSON output the json codec
    assert (cli_probe.returncode, cli_probe.err) == (0, ""), cli_probe.verdict
    assert [m for m in ("bandbrick.acceptance", "xml.etree.ElementTree", "bandbrick.render",
                        "json") if m in cli_probe.imported] == []
    assert cli_probe.verdict.startswith("criterion 1 (golden): PASS")


def test_cli_import_leaves_dataclasses_and_inspect_unloaded(cli_probe):
    assert (cli_probe.returncode, cli_probe.err) == (0, "")
    assert [m for m in ("dataclasses", "inspect") if m in cli_probe.imported] == []


def test_a_command_leaves_shutil_unloaded(cli_probe):
    # argparse's stock formatter imports shutil to read the terminal width
    # whenever the parser adds an argument; cli's reads it only for help
    # and usage text, which a command that succeeds never formats
    assert (cli_probe.out, cli_probe.code, cli_probe.err) == ("2,1,1", 0, "")
    assert [m for m in ("dataclasses", "inspect", "shutil", "bandbrick.render", "json")
            if m in cli_probe.commanded] == []


def test_package_exports_load_on_first_use(monkeypatch):
    # import bandbrick loads no layer; each export is read from its defining
    # module on every access, so a binding replaced there shows here too
    script = "import sys, bandbrick\nprint([m for m in sys.modules if m.startswith('bandbrick.')])\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    star = {}
    exec("from bandbrick import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == bandbrick.__all__
    assert set(bandbrick.__all__) <= set(dir(bandbrick))
    for name in bandbrick.__all__:
        module = sys.modules[star[name].__module__]
        assert getattr(bandbrick, name) is vars(module)[name] is star[name]
        replacement = object()
        monkeypatch.setattr(module, name, replacement)
        assert getattr(bandbrick, name) is replacement
    with pytest.raises(AttributeError, match="^module 'bandbrick' has no attribute 'nothing'$"):
        bandbrick.nothing


@pytest.mark.parametrize("columns", ["30", "80", "150"])
def test_help_text_is_the_stock_formatters(monkeypatch, columns):
    # every parser's help and usage, as argparse's own formatter and its
    # naming of the subcommands give them
    monkeypatch.setenv("COLUMNS", columns)

    def texts(parser):
        found = [parser.format_help(), parser.format_usage()]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    found += texts(sub)
        return found

    ours = texts(cli.build_parser())
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    monkeypatch.setattr(cli._Parser, "add_subparsers", argparse.ArgumentParser.add_subparsers)
    stock = texts(cli.build_parser())
    assert len(ours) > 30 and ours == stock


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    # main builds its parser on the first call and reuses it: each call
    # still prints what the first call of a fresh process prints
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser()
    per_tree = len(built)
    built.clear()
    cli._shared_parser.cache_clear()

    for argv in (
        ["fan", "maxcompat", "--n", "4", "--box", "2", "--json"],
        ["fan", "maxcompat", "--n", "3", "--box", "2"],
        ["bw", "acab"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "bandbrick", *argv],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
    assert per_tree > 1 and len(built) == per_tree
    assert built.count("bandbrick") == 1
