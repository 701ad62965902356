"""bandbrick benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload brick-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every segment of the workload runs in a
fresh worker interpreter with a fixed PYTHONHASHSEED, one after another.
With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` the workload runs untraced and then traced, and the
last line carries the per-layer metrics.  The line before it records the
run's provenance.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKER_TIMEOUT_S = 170
HASH_SEED = "0"
# fresh interpreters timed for setup_s, half before the workload and half
# after it, so that one slow stretch of the machine cannot hold them all.
# They start as a user's would, with site, and time only the import, then
# read the reference clock of pace.py to scale it.
SETUP_SAMPLES = 8
SETUP_READINGS = 25
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import bandbrick.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import pace\n"
    "print(t, t * pace.speed('compute', int(sys.argv[3])))\n"
)
P90_MIN_ITEMS = 100


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _import_seconds() -> tuple[float, float]:
    """Wall seconds of one import, and the same at the reference speed."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), str(SETUP_READINGS)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"import bandbrick.cli failed:\n{proc.stderr}")
    wall, scaled = map(float, proc.stdout.split())
    return wall, scaled


def _run_worker(args, segment: int, trace: bool, spans: Path | None) -> dict:
    cmd = [
        sys.executable,
        "-S",
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--segment", str(segment),
    ]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=_child_env(), timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _run_segments(args, count: int, trace: bool) -> dict:
    """Run every segment in its own worker and merge what they report."""
    merged: dict = {"walls": [], "scaled": [], "failed": 0, "problems": [],
                    "pcw": 0, "peak_rss_mb": 0.0, "totals": []}
    out_dir = ROOT / ".perfbench"
    if trace:
        out_dir.mkdir(exist_ok=True)
    for segment in range(count):
        spans = None
        if trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}-seg{segment}.jsonl"
        part = _run_worker(args, segment, trace, spans)
        merged["walls"] += part["walls"]
        if part["scaled"] is not None:
            merged["scaled"] += part["scaled"]
        merged["failed"] += part["failed"]
        merged["problems"] += part["problems"]
        merged["pcw"] += part["pcw"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], part["peak_rss_mb"])
        if "totals" in part:
            merged["totals"].append(part["totals"])
    return merged


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bandbrick").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timings(setup: list[float], lat: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000,
    }


def end_to_end(run: dict, setup: list[tuple[float, float]]) -> dict:
    """Every end-to-end metric, its times at the reference speed."""
    times = _timings([scaled for _, scaled in setup], run["scaled"])
    units = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms"}
    metrics = {name: _metric(value, units[name]) for name, value in times.items()}
    attempted = len(run["scaled"])
    metrics["peak_rss_mb"] = _metric(run["peak_rss_mb"], "MB")
    metrics["ok_frac"] = _metric((attempted - run["failed"]) / attempted, "1")
    return metrics


def wall_times(run: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    """The same times as measured, unscaled, for the provenance line."""
    return _timings([wall for wall, _ in setup], run["walls"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandbrick" / "__init__.py").is_file():
        print(f"error: no bandbrick sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    warmup, segments = workloads.make_items(args.workload, args.seed, args.seconds)

    try:
        if args.trace:
            import tracer

            plain = _run_segments(args, len(segments), trace=False)
            run = _run_segments(args, len(segments), trace=True)
            values = tracer.layer_metrics(
                tracer.merge_totals(run["totals"]),
                sum(run["walls"]),
                sum(plain["walls"]),
            )
            units = tracer.metric_units()
            metrics = {name: _metric(values[name], units[name]) for name in units}
            run["failed"] += plain["failed"]
            run["problems"] += plain["problems"]
        else:
            _import_seconds()  # compiles the sources once, untimed
            setup = [_import_seconds() for _ in range(SETUP_SAMPLES // 2)]
            run = _run_segments(args, len(segments), trace=False)
            setup += [_import_seconds() for _ in range(SETUP_SAMPLES // 2)]
            metrics = end_to_end(run, setup)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(run["walls"])
    for problem in run["problems"]:
        print(f"failed item: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_hash(),
        "items_sha256": workloads.items_hash(warmup, segments),
        "items": attempted,
        "segments": len(segments),
        "p90_samples_beyond": attempted - int(0.9 * attempted),
        "p90_is_tail": attempted >= P90_MIN_ITEMS,
    }
    if args.workload == "brick-sweep":
        info["pcw_items"] = run["pcw"]
    if not args.trace:
        info["wall"] = wall_times(run, setup)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
