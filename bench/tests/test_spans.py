"""Span arithmetic (nested self time, union coverage across threads) and bookkeeping."""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
from spans import LayerStats, Span, Tracer, layer_stats, self_times, union_length  # noqa: E402


def test_union_length_counts_overlap_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 4.0), (2.0, 6.0), (8.0, 9.0)]) == pytest.approx(7.0)
    assert union_length([(0.0, 10.0), (1.0, 2.0)]) == pytest.approx(10.0)
    assert union_length([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0)]) == pytest.approx(3.0)


def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, "outer", 0.0, 10.0, None, 1),
        Span(1, "inner", 1.0, 3.0, 0, 1),
        Span(2, "inner", 2.0, 5.0, 0, 1),   # overlaps its sibling
        Span(3, "inner", 6.0, 7.0, 0, 1),
        Span(4, "leaf", 6.5, 6.8, 3, 1),    # grandchild: not subtracted from outer
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[3] == pytest.approx(1.0 - 0.3)
    assert selfs[4] == pytest.approx(0.3)
    stats = layer_stats(spans)
    assert stats["inner"].calls == 3
    assert stats["inner"].busy_s == pytest.approx(6.0)
    assert stats["inner"].wall_s == pytest.approx(5.0)
    assert stats["inner"].self_s == pytest.approx(6.0 - 0.3)


def test_spans_from_two_threads_union_and_busy():
    spans = [
        Span(0, "extract", 0.0, 4.0, None, 101),
        Span(1, "extract", 2.0, 6.0, None, 202),
        Span(2, "extract", 8.0, 9.0, None, 101),
    ]
    st = layer_stats(spans)["extract"]
    assert st.busy_s == pytest.approx(9.0)
    assert st.wall_s == pytest.approx(7.0)
    assert st.self_s == pytest.approx(9.0)


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))
    outer = tracer.wrap("outer", lambda: inner(), attrs=lambda a, k, r: {"n": 2})
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["outer"].attrs == {"n": 2}
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end
    assert by_name["inner"].end <= by_name["outer"].end


def test_tracer_threads_overlap():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    work = tracer.wrap("work", lambda: (barrier.wait(), time.sleep(0.2)))
    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert {s.parent for s in tracer.spans} == {None}
    assert len({s.thread for s in tracer.spans}) == 2
    st = layer_stats(tracer.spans)["work"]
    assert st.calls == 2
    assert st.wall_s < st.busy_s


def test_layer_metrics_derives_conv_rate_and_pool_speedup():
    stats = {
        "nnet.conv.forward": LayerStats(calls=3, busy_s=1.0, self_s=1.0, attrs={"flop": 2e9}),
        "nnet.conv.backward": LayerStats(calls=3, busy_s=3.0, self_s=3.0, attrs={"flop": 4e9}),
        "features.extract": LayerStats(calls=10, busy_s=4.0, wall_s=2.0, self_s=4.0),
    }
    setup = {"synth.generate_benchmark": LayerStats(calls=1, busy_s=0.5, self_s=0.5)}
    m = layers.layer_metrics(stats, setup, serial_extract_s=3.0)
    assert m["nnet.conv.calls"] == 6
    assert m["nnet.conv.gflop"] == pytest.approx(6.0)
    assert m["nnet.conv.gflop_per_s"] == pytest.approx(1.5)
    assert m["cli.pool_speedup"] == pytest.approx(1.5)
    assert m["synth.generate_benchmark_s"] == pytest.approx(0.5)
    assert m["boosting.best_split.calls"] == 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(m) | {"cli.import_s", "trace.overhead_s"} == {d["name"] for d in declared}


def test_compare_counts_flags_a_changed_count():
    previous = run.ROOT / ".bench_work" / "compare-counts-test.json"
    previous.parent.mkdir(parents=True, exist_ok=True)
    counts = {k: 7 for k in layers.EXACT_COUNTS}
    previous.write_text(json.dumps({"code_digest": "abc", "metrics": counts}))
    try:
        same = {"code_digest": "abc", "metrics": dict(counts), "problems": []}
        run.compare_counts(previous, same)
        assert same["problems"] == []
        changed = {"code_digest": "abc", "problems": [],
                   "metrics": {**counts, "boosting.tree_nodes": 8}}
        run.compare_counts(previous, changed)
        assert "boosting.tree_nodes" in changed["problems"][0]
        other_code = {"code_digest": "def", "problems": [],
                      "metrics": {**counts, "boosting.tree_nodes": 8}}
        run.compare_counts(previous, other_code)
        assert other_code["problems"] == []
    finally:
        previous.unlink()


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    p, value = run.tail([float(i) for i in range(20)])
    assert p == 50
    assert value == pytest.approx(9.5)


def test_child_env_sets_thread_variables_to_nproc(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.delenv("CPB_THREADS", raising=False)
    env = run.child_env(2)
    assert {k: env[k] for k in run.THREAD_VARS} == dict.fromkeys(run.THREAD_VARS, "2")
