"""One benchmark segment in a fresh interpreter.

    python3 -S perfbench/worker.py --workload W --seed N --seconds S
        --segment K [--trace]

Builds the items from the seed, warms up on the warm-up stream, collects
garbage, then times each item of segment K and checks its answer outside
the timed region.  Untraced, ``Pace`` samples the machine's speed
throughout, and each item's time is also reported scaled to the
reference speed.  With ``--trace`` the tracer wraps the layers first and
one warm-up item is run under ``sys.setprofile`` to prove that every
binding is wrapped; no speed is sampled then.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--segment", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args()

    workload = args.workload
    warmup, segments = workloads.make_items(workload, args.seed, args.seconds)
    items = segments[args.segment]
    problems: list[str] = []

    pace = Pace(workloads.REFERENCE[workload])
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        missed = tr.profile_check(lambda: workloads.run_item(workload, warmup[0]))
        problems.extend(f"unwrapped calls: {m}" for m in missed)
    else:
        pace.start()
    for item in warmup:
        workloads.run_item(workload, item)
    if tr is not None:
        tr.reset()

    gc.collect()
    walls: list[float] = []
    scaled: list[float] = []
    failed = 0
    pcw = 0
    for item in items:
        mark = pace.mark()
        try:
            answer = workloads.run_item(workload, item)
        except Exception as exc:  # a raising item is a failed item
            answer = exc
        wall, at_ref = pace.since(mark)
        walls.append(wall)
        scaled.append(at_ref)
        if isinstance(answer, Exception):
            failed += 1
            problems.append(f"{item!r:.80}: {type(answer).__name__}: {answer}")
            continue
        reason = workloads.check_item(workload, item, answer)
        if reason is not None:
            failed += 1
            problems.append(f"{item!r:.80}: {reason}")
        elif workload == "brick-sweep" and answer[0]:
            pcw += 1

    pace.stop()
    result = {
        "walls": walls,
        "scaled": scaled if tr is None else None,
        "failed": failed,
        "problems": problems[:20],
        "pcw": pcw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tr is not None:
        tr.uninstall()
        result["totals"] = tr.totals()
        if args.spans:
            tr.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
