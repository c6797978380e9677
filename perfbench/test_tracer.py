"""Self-checks of the benchmark's span bookkeeping and metric table.

Run with: python3 -m pytest perfbench/test_tracer.py
"""

import itertools
import json
import types
from pathlib import Path

import pytest

import run
from tracer import (
    END, NAME, PARENT, START, VALUE, Tracer, percentile, self_times, summarize,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent


def _ticking_clock(step=10):
    counter = itertools.count(0, step)
    return lambda: next(counter)


def test_self_time_of_nested_spans():
    tr = Tracer("t", clock=_ticking_clock())
    leaf = tr.wrap("leaf", lambda: None)
    inner1 = tr.wrap("inner1", lambda: None)
    inner2 = tr.wrap("inner2", lambda: leaf())

    def body():
        inner1()
        inner2()

    tr.wrap("outer", body)()
    # clock reads: outer 0, inner1 10-20, inner2 30, leaf 40-50, inner2 60, outer 70
    by_name = {rec[NAME]: (rec, s) for rec, s in zip(tr.spans, self_times(tr.spans))}
    assert [rec[NAME] for rec in tr.spans] == ["outer", "inner1", "inner2", "leaf"]
    assert by_name["outer"][0][PARENT] == -1
    assert tr.spans[by_name["leaf"][0][PARENT]][NAME] == "inner2"
    assert (by_name["outer"][0][START], by_name["outer"][0][END]) == (0, 70)
    assert {n: s for n, (_, s) in by_name.items()} == {
        "outer": 30, "inner1": 10, "inner2": 20, "leaf": 10}
    # self times partition the root's duration
    assert sum(self_times(tr.spans)) == 70


def test_span_closes_when_the_call_raises():
    tr = Tracer("t", clock=_ticking_clock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    tr.wrap("after", lambda: None)()
    assert tr.spans[0][END] > tr.spans[0][START]
    assert tr.spans[1][PARENT] == -1


@pytest.mark.parametrize("n, q", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    summary = summarize([["a", -1, 0, v * 10**6, None] for v in range(1, 101)])
    assert summary["a"]["n"] == 100
    assert summary["a"]["tail_q"] == 90.0
    assert summary["a"]["tail_ms"] == 90.0


def test_install_shares_one_wrapper_and_restore_puts_originals_back():
    def fn(x):
        return x + 1

    class Box:
        def size(self, k):
            return k * 2

    caller_a = types.SimpleNamespace(fn=fn)
    caller_b = types.SimpleNamespace(fn=fn)
    original_size = Box.__dict__["size"]
    tr = Tracer("t", clock=_ticking_clock())
    tr.install([
        (caller_a, "fn", "layer.fn", None, lambda out: out),
        (caller_b, "fn", "layer.fn", None, lambda out: out),
        (Box, "size", "layer.size", lambda box, k: k, None),
    ])
    try:
        assert caller_a.fn is caller_b.fn
        assert caller_a.fn(1) == 2 and caller_b.fn(2) == 3
        assert Box().size(4) == 8
    finally:
        tr.restore()
    assert caller_a.fn is fn and caller_b.fn is fn
    assert Box.__dict__["size"] is original_size
    assert [(r[NAME], r[VALUE]) for r in tr.spans] == [
        ("layer.fn", 2), ("layer.fn", 3), ("layer.size", 4)]
    Box().size(1)
    assert len(tr.spans) == 3


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
