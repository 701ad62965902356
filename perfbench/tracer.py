"""Spans and counters around the calls into each bandbrick layer.

``Tracer.install`` replaces every binding of each traced function (the
defining module, modules that imported it by name, and the package
re-exports) with a wrapper that records one span per call: function,
start, end and the span that called it.  Spans stay in memory until
``write_spans``.  Counters are computed from each call's arguments and
result.  Nothing is wrapped unless ``install`` is called.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

TRACED = {
    "words": (
        "bw_transform",
        "bw_inverse",
        "phi",
        "phi_inverse",
        "necklace",
        "rotations",
        "is_primitive",
        "is_perfectly_clustering",
    ),
    "dyck": (
        "reconstruct_multislalom",
        "circular_words",
        "erase_ones",
        "validate_gvector",
    ),
    "gentle": ("psi", "band_module", "hom_dim", "is_brick", "validate_band_walk"),
    "forms": ("is_brick_gvector", "compatible", "euler_form", "max_compatible_search"),
    "render": ("render_dyck",),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

COUNTERS = (
    ("gentle.band_module.distinct_ratio", "1"),
    ("gentle.band_module.basis", "count"),
    ("gentle.hom_dim.unknowns", "count"),
    ("gentle.hom_dim.rank", "count"),
    ("dyck.reconstruct_multislalom.distinct_ratio", "1"),
    ("words.letters", "count"),
    ("render.render_dyck.bytes", "bytes"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for layer in TRACED:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "1"
    units.update(COUNTERS)
    units["trace.overhead"] = "1"
    return units


def _letters(arg) -> int:
    if isinstance(arg, (tuple, list)):
        if arg and isinstance(arg[0], (tuple, list)):
            return sum(len(w) for w in arg)
        return len(arg)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (function index, start, end, parent span)
        self.stack: list[int] = []
        self.counts = {name: 0 for name, _ in COUNTERS}
        self.modules_seen: set = set()
        self.slaloms_seen: set = set()
        self.module_calls = 0
        self.slalom_calls = 0
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- counters

    def _count(self, name: str, args, result) -> None:
        layer = name.split(".", 1)[0]
        if layer == "words":
            self.counts["words.letters"] += _letters(args[0]) if args else 0
        elif name == "gentle.band_module":
            self.module_calls += 1
            self.modules_seen.add((result.walk, result.lam, result.n))
            self.counts["gentle.band_module.basis"] += sum(result.dims)
        elif name == "gentle.hom_dim":
            x, y = args[0], args[1]
            unknowns = sum(a * b for a, b in zip(x.dims, y.dims))
            self.counts["gentle.hom_dim.unknowns"] += unknowns
            self.counts["gentle.hom_dim.rank"] += unknowns - result
        elif name == "dyck.reconstruct_multislalom":
            self.slalom_calls += 1
            self.slaloms_seen.add(tuple(args[0]))
        elif name == "render.render_dyck":
            self.counts["render.render_dyck.bytes"] += len(result)

    # -------------------------------------------------------- wrapping

    def _wrap(self, index: int, name: str, fn):
        spans, stack, count = self.spans, self.stack, self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append(None)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (index, start, end, parent)
            count(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in bandbrick."""
        package = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "bandbrick" or key.startswith("bandbrick.")
        ]
        for index, name in enumerate(FUNCTIONS):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"bandbrick.{layer}"], fn_name)
            self.originals[name] = original
            wrapper = self._wrap(index, name, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts = {name: 0 for name, _ in COUNTERS}
        self.modules_seen.clear()
        self.slaloms_seen.clear()
        self.module_calls = self.slalom_calls = 0

    # ------------------------------------------------------- reporting

    def call_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(FUNCTIONS, 0)
        for index, *_ in self.spans:
            counts[FUNCTIONS[index]] += 1
        return counts

    def profile_check(self, run) -> list[str]:
        """Run ``run()`` under ``sys.setprofile`` as well and return the
        functions whose wrapper count differs from the interpreter's count
        of calls into the original code.  A difference means a binding
        was missed."""
        codes = {fn.__code__: name for name, fn in self.originals.items()}
        seen = dict.fromkeys(FUNCTIONS, 0)

        def profile(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    seen[name] += 1

        before = self.call_counts()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        after = self.call_counts()
        return [
            f"{name}: wrapped {after[name] - before[name]}, profiled {seen[name]}"
            for name in FUNCTIONS
            if after[name] - before[name] != seen[name]
        ]

    def totals(self) -> dict:
        """Per-function calls, inclusive and self seconds, plus counters,
        as raw sums that segments can add up."""
        calls = dict.fromkeys(FUNCTIONS, 0)
        incl = dict.fromkeys(FUNCTIONS, 0.0)
        child = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs = dict.fromkeys(FUNCTIONS, 0.0)
        for k, (index, start, end, parent) in enumerate(self.spans):
            name = FUNCTIONS[index]
            calls[name] += 1
            incl[name] += end - start
            selfs[name] += end - start - child[k]
        return {
            "calls": calls,
            "s": incl,
            "self_s": selfs,
            "counts": dict(self.counts),
            "module_calls": self.module_calls,
            "modules_distinct": len(self.modules_seen),
            "slalom_calls": self.slalom_calls,
            "slaloms_distinct": len(self.slaloms_seen),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, start, end, parent in self.spans:
                fh.write(json.dumps([FUNCTIONS[index], start, end, parent]) + "\n")


def merge_totals(parts: list[dict]) -> dict:
    """Sum segment totals key by key."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                slot = out.setdefault(key, {})
                for k, v in value.items():
                    slot[k] = slot.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(totals: dict, busy_s: float, untraced_busy_s: float) -> dict:
    """The per-layer metrics, ``{name: value}``, from merged totals."""
    values: dict[str, float] = {}
    for name in FUNCTIONS:
        values[f"{name}.calls"] = totals["calls"][name]
        values[f"{name}.s"] = totals["s"][name]
        values[f"{name}.self_s"] = totals["self_s"][name]
    for layer, fns in TRACED.items():
        own = sum(totals["self_s"][f"{layer}.{fn}"] for fn in fns)
        values[f"{layer}.self_s"] = own
        values[f"{layer}.share"] = own / busy_s
    values.update(totals["counts"])

    def ratio(distinct: int, calls: int) -> float:
        return distinct / calls if calls else 0.0

    values["gentle.band_module.distinct_ratio"] = ratio(
        totals["modules_distinct"], totals["module_calls"]
    )
    values["dyck.reconstruct_multislalom.distinct_ratio"] = ratio(
        totals["slaloms_distinct"], totals["slalom_calls"]
    )
    values["trace.overhead"] = busy_s / untraced_busy_s - 1
    return values
