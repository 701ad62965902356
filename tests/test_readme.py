"""The command-line examples of README.md print what the README shows, and
its bounds table names every size-bound pin."""

import itertools
import pathlib
import shlex

import pytest

from bandbrick.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    # every `$ bandbrick ...` line inside a sh block with the output lines
    # below it, up to the next command or the end of the block
    examples, current, in_block = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = line == "```sh", None
        elif in_block and line.startswith("$ "):
            current = (shlex.split(line[2:], comments=True), [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(argv, output) for argv, output in examples if argv[0] == "bandbrick" and output]


EXAMPLES = _examples()


def test_examples_found():
    assert len(EXAMPLES) >= 16


@pytest.mark.parametrize("argv, output", EXAMPLES, ids=[" ".join(a[1:3]) for a, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, argv, output):
    monkeypatch.delenv("BANDBRICK_FORMAT", raising=False)
    code = main(argv[1:])
    assert (code, capsys.readouterr().out) == (0, "\n".join(output) + "\n")


def test_bounds_table_names_every_pin():
    # README's bounds table is the one place for each size-bound pin's
    # figures: a row per _BOUND_PINS key of tests/test_cli.py, each with
    # its time and its peak RSS
    from test_cli import _BOUND_PINS

    lines = README.read_text().splitlines()
    start = lines.index("| pin | bound | pinned input | time | peak RSS |")
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        pin, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[pin.strip("`")] = cells
    assert sorted(rows) == sorted(_BOUND_PINS)
    assert all(len(cells) == 4 and all(cells) for cells in rows.values()), rows
