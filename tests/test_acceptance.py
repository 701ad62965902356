"""Acceptance gate: every criterion runs and prints one status line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bandbrick
from bandbrick import acceptance


def _report(config, line):
    # bypass output capture so the line reaches the real stdout
    capman = config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@pytest.mark.parametrize(
    "number,name,suite",
    acceptance.SUITES,
    ids=[name for _, name, _ in acceptance.SUITES],
)
def test_criterion(number, name, suite, request):
    ok, detail = suite(0)
    status = "PASS" if ok else "FAIL"
    _report(request.config, f"ACCEPTANCE {number} ({name}): {status}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.mark.parametrize("name", ["golden", "witness", "hom-euler", "brick-pcw", "max-compat"])
def test_suite_passes_under_optimize(name):
    # python -O strips assert statements; the invariants must still be checked
    env = {**os.environ, "PYTHONPATH": str(Path(bandbrick.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bandbrick.cli", "verify", name],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
