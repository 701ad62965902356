"""Determinism of the benchmark's item lists and strictness of its checks."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SECONDS = 30


def _items(workload, seed):
    return workloads.make_items(workload, seed, SECONDS)


def test_same_seed_same_items():
    for workload in workloads.WORKLOADS:
        first = workloads.items_hash(*_items(workload, 7))
        assert first == workloads.items_hash(*_items(workload, 7))


def test_other_seed_changes_items():
    for workload in ("brick-sweep", "long-words"):
        warm1, segs1 = _items(workload, 1)
        warm2, segs2 = _items(workload, 2)
        assert segs1 != segs2 and warm1 != warm2
        # same amount of work from every stratum or length range
        assert len(segs1[0]) == len(segs2[0])


def test_other_seed_only_reorders_fan_search():
    warm1, segs1 = _items("fan-search", 1)
    warm2, segs2 = _items("fan-search", 2)
    assert warm1 == warm2
    assert segs1 != segs2
    for a, b in zip(segs1, segs2):
        assert sorted(a) == sorted(b) == sorted(workloads.FAN_SEARCHES)


def test_brick_sweep_one_word_per_conjugacy_class():
    warmup, (items,) = _items("brick-sweep", 3)
    keys = [(workloads._min_rotation(w), n) for w, n in warmup + items]
    assert len(keys) == len(set(keys))
    assert all(w == workloads._min_rotation(w) for w, _ in items)


def test_long_words_fill_every_alphabet_and_quintile_equally():
    _, (items,) = _items("long-words", 5)
    edges = workloads.LONG_WORK_EDGES
    counts = {}
    for w in items:
        work = workloads._rotation_work(w)
        quintile = max(i for i in range(len(edges) - 1) if edges[i] <= work)
        key = (max(w), quintile)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == len(workloads.LONG_ALPHABETS) * (len(edges) - 1)
    assert len(set(counts.values())) == 1


def test_pace_scales_by_speed_and_leaves_out_its_own_time():
    clock = pace.Pace("compute")
    assert clock.since(clock.mark())[1] is None  # never started
    clock.start()
    try:
        mark = clock.mark()
        for _ in range(100):  # about 40 ms, several timer ticks
            pace.reading("compute")
        wall, scaled = clock.since(mark)
    finally:
        clock.stop()
    start, spent, first = mark
    assert len(clock.readings) > first
    assert 0 < wall < clock.mark()[0] - start
    speeds = [clock.ref_s / r for r in clock.readings[max(0, first - 5) :]]
    assert min(speeds) * wall <= scaled <= max(speeds) * wall


def test_warmup_is_disjoint_from_timed_items():
    for workload in ("brick-sweep", "long-words"):
        warmup, segments = _items(workload, 4)
        timed = {json.dumps(item) for seg in segments for item in seg}
        assert not timed & {json.dumps(item) for item in warmup}


def test_checks_accept_right_answers():
    w, n = (2, 3), 3  # perfectly clustering, so a brick
    assert workloads.check_item("brick-sweep", (w, n), (True, [True] * 3)) is None
    answer = (0, json.dumps({"size": 2, "max_clique": workloads._ref_witness(4)}))
    assert workloads.check_item("fan-search", (4, 3), answer) is None
    word = (1, 3, 2, 2, 3, 1, 3)
    answer = workloads.run_item("long-words", word)
    assert workloads.check_item("long-words", word, answer) is None


def test_checks_count_corrupted_answers():
    item = ((2, 3), 3)
    assert workloads.check_item("brick-sweep", item, (False, [False] * 3))
    assert workloads.check_item("brick-sweep", item, (True, [True, False, True]))
    wrong = workloads._ref_witness(4)
    wrong[0] = [-1, 1, 0, 0]
    bad = (0, json.dumps({"size": 2, "max_clique": wrong}))
    assert workloads.check_item("fan-search", (4, 3), bad)
    assert workloads.check_item("fan-search", (4, 3), (1, ""))
    word = (1, 3, 2, 2, 3, 1, 3)
    back, neck, prim, again, erased, svg = workloads.run_item("long-words", word)
    for corrupt in (
        (back[::-1], neck, prim, again, erased, svg),
        (back, neck, prim, again[1:] + again[:1], erased, svg),
        (back, neck, prim, again, erased[1:], svg),
        (back, neck, prim, again, erased, svg[:-8]),
    ):
        assert workloads.check_item("long-words", word, corrupt)


def test_every_per_layer_metric_is_reported():
    tr = tracer.Tracer()
    tr.install()
    try:
        missed = tr.profile_check(
            lambda: workloads.run_item("brick-sweep", ((2, 2, 3), 3))
        )
        totals = tr.totals()
    finally:
        tr.uninstall()
    assert missed == []
    values = tracer.layer_metrics(totals, 1.0, 1.0)
    assert set(values) == set(tracer.metric_units())
    assert values["gentle.band_module.distinct_ratio"] == 1.0
    assert values["gentle.band_module.calls"] == 3
