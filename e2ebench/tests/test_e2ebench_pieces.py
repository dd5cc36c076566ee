"""Unit tests of the benchmark's own pieces (no daemon, no pool).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

from common import percentile, require_program, tail  # noqa: E402

require_program()

import inputs  # noqa: E402
import tracer  # noqa: E402
from report import Outcome  # noqa: E402
from service import READ_RATE, WRITE_RATE, make_plan, run_lane  # noqa: E402


# -- the tail helper -----------------------------------------------------


def test_tail_refuses_fewer_than_ten_samples_beyond():
    assert tail(list(range(39))) is None  # p75 leaves 9.75 beyond
    pct, value = tail(list(range(40)))
    assert pct == 75.0 and value == percentile(list(range(40)), 75.0)


def test_tail_takes_the_highest_supported_percentile():
    assert tail([float(i) for i in range(1000)])[0] == 99.0
    assert tail([float(i) for i in range(10000)])[0] == 99.9
    assert tail([float(i) for i in range(200)])[0] == 95.0


def test_report_omits_an_unsupported_tail_and_says_why():
    out = Outcome(workload="w")
    out.tail("op", [1.0] * 20, "ms")
    name, value, _, samples, note = out.rows[-1]
    assert name == "op_tail_ms" and value is None and samples == 20
    assert "omitted" in note


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 99) == 5


# -- the generators --------------------------------------------------------


def test_dbg_instances_are_deterministic_and_distinct():
    assert inputs.dbg_text(3) == inputs.dbg_text(3)
    assert inputs.dbg_text(3) != inputs.dbg_text(4)


def test_multi_component_instances_are_deterministic_and_distinct():
    assert inputs.multi_component_text(5) == inputs.multi_component_text(5)
    assert inputs.multi_component_text(5) != inputs.multi_component_text(6)


def test_no_input_repeats_within_a_run():
    ops = {inputs.instance_seed(7, i) for i in range(500)}
    warmups = {inputs.warmup_seed(i) for i in range(3)}
    assert len(ops) == 500 and not ops & warmups


def test_service_plan_is_deterministic_per_seed():
    from repro.graph.oem import loads_oem

    db = loads_oem(inputs.dbg_text(2))
    first = make_plan(db, 2, 5.0, start=100.0)
    assert first == make_plan(db, 2, 5.0, start=100.0)
    assert first != make_plan(db, 3, 5.0, start=100.0)
    reads, writes = first
    assert len(reads) == int(5.0 * READ_RATE) == 200
    assert len(writes) == int(5.0 * WRITE_RATE) == 7
    kinds = [batch[0]["op"] for _, (_, batch) in writes]
    assert kinds[:3] == ["remove-link", "add-link", "add-object"]
    assert writes[0][1][1][0]["src"] == writes[1][1][1][0]["src"]


# -- the open-loop lane ----------------------------------------------------


def test_lane_times_requests_from_their_due_time():
    start = time.perf_counter() + 0.01
    plan = [(start + 0.01 * i, i) for i in range(5)]

    def slow(_request):
        time.sleep(0.03)  # three due intervals per request

    samples = run_lane(plan, slow)
    lateness = [s.lateness for s in samples]
    assert lateness == sorted(lateness)  # the backlog grows
    assert lateness[-1] >= 0.08
    for sample in samples:
        assert sample.latency >= sample.lateness + 0.03
        assert sample.latency == pytest.approx(sample.done - sample.due)


def test_lane_runs_its_after_hook_outside_the_timed_window():
    start = time.perf_counter()
    plan = [(start, 0), (start + 0.01, 1)]
    samples = run_lane(plan, lambda _: None,
                       after=lambda sample: time.sleep(0.03))
    assert all(s.latency < 0.02 for s in samples[:1])
    assert samples[1].lateness >= 0.015  # the hook made it late


def test_lane_runs_its_before_hook_ahead_of_the_due_time():
    start = time.perf_counter() + 0.05
    calls = []
    plan = [(start, 0), (start + 0.01, 1)]

    def slow(_request):
        time.sleep(0.03)  # the second request is late

    samples = run_lane(plan, slow, lead=0.02,
                       before=lambda: calls.append(time.perf_counter()))
    assert len(calls) == 1  # skipped for the late request
    assert start - 0.021 <= calls[0] < start
    assert samples[0].lateness < 0.01


def test_lane_waits_for_requests_not_yet_due():
    start = time.perf_counter() + 0.05
    samples = run_lane([(start, None)], lambda _: None)
    assert samples[0].sent >= start
    assert samples[0].lateness < 0.02


# -- span arithmetic -------------------------------------------------------


def _span(span_id, name, start, end, parent=None, op=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "thread": 1}


def test_self_time_is_duration_minus_children():
    spans = [
        _span(0, "a:root", 0.0, 10.0),
        _span(1, "b:child", 1.0, 4.0, parent=0),
        _span(2, "c:grandchild", 2.0, 3.0, parent=1),
        _span(3, "b:child", 5.0, 9.0, parent=0),
    ]
    depth = tracer.depths(spans)
    per_name, rest = tracer.attribute(spans, 0.0, 10.0,
                                      lambda s: depth[s["id"]])
    assert per_name == {"a:root": 3.0, "b:child": 6.0, "c:grandchild": 1.0}
    assert rest == 0.0


def test_uncovered_wall_is_unattributed_and_totals_add_up():
    spans = [_span(0, "a:x", 2.0, 5.0), _span(1, "a:x", 6.0, 7.0)]
    per_name, rest = tracer.attribute(spans, 0.0, 10.0, lambda s: 0)
    assert per_name == {"a:x": 4.0}
    assert rest == 6.0
    clipped, clipped_rest = tracer.attribute(spans, 4.0, 6.5, lambda s: 0)
    assert clipped["a:x"] + clipped_rest == pytest.approx(2.5)


def test_rank_decides_between_concurrent_spans():
    spans = [_span(0, "service:read", 0.0, 4.0),
             _span(1, "delta:refresh", 1.0, 3.0)]
    per_name, _ = tracer.attribute(
        spans, 0.0, 4.0, lambda s: s["name"].startswith("delta"))
    assert per_name == {"service:read": 2.0, "delta:refresh": 2.0}


def test_worker_gfp_counts_under_perfect_outside_the_wall_split(tmp_path):
    import json

    import layers

    # One 10 s op: the coordinator waits 8 s in SharedWorkerPool.run and
    # runs one pool task itself for 1 s (a fallback); the workers' GFP
    # timer reads 13 s, that 1 s included.
    rows = [[0, "parallel:stage1", 0.0, 9.0, None, "op0", 1],
            [1, "parallel:pool_run", 0.5, 8.5, 0, "op0", 1],
            [2, "perfect:gfp", 2.0, 3.0, 1, "op0", 1]]
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({"fields": tracer.FIELDS, "spans": rows}))
    reply = {"start": 0.0, "end": 10.0, "perf": {
        "counters": {},
        "timers": {"parallel.shard_stage1": {"seconds": 13.0}}}}
    out = Outcome(workload="sharded-extract")
    layers.batch_report(out, [reply], str(spans), span_cost=0.0)
    metric = {name: value for name, (value, _) in out.layer_metrics.items()}
    assert metric["parallel.worker_busy_ms"] == pytest.approx(12000.0)
    assert metric["perfect.busy_ms"] == pytest.approx(13000.0)
    assert metric["parallel.busy_ms"] == pytest.approx(8000.0)
    assert metric["unattributed_ms"] == pytest.approx(1000.0)
    split = [row for row in out.layer_rows if row.startswith("  perfect ")]
    assert split and "1000.00 ms" in split[0]


def test_install_records_nested_spans_of_an_extraction():
    from repro.core.pipeline import SchemaExtractor
    from repro.graph.oem import loads_oem

    text = inputs.dbg_text(0)
    recorder = tracer.Tracer()
    saved = _snapshot_entry_points()
    try:
        tracer.install(recorder)
        token = recorder.set_op("op0")
        started = time.perf_counter()
        import repro.graph.oem as oem

        SchemaExtractor(oem.loads_oem(text)).extract(k=6)
        ended = time.perf_counter()
        recorder.reset_op(token)
    finally:
        _restore_entry_points(saved)
    spans = [dict(zip(tracer.FIELDS, row)) for row in recorder.spans]
    names = {tracer.layer_of(s["name"]) for s in spans}
    assert {"graph", "perfect", "clustering", "recast", "defect"} <= names
    assert all(s["op"] == "op0" for s in spans)
    depth = tracer.depths(spans)
    per_name, rest = tracer.attribute(spans, started, ended,
                                      lambda s: depth[s["id"]])
    assert sum(per_name.values()) + rest == pytest.approx(ended - started)
    assert SchemaExtractor(loads_oem(text)).extract(k=6).chosen_k == 6


def _snapshot_entry_points():
    import importlib

    saved = []
    for module_name, path, _ in tracer.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            saved.append((owner, attr, owner.__dict__[attr]))
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.startswith("repro") and loaded is not None:
            for key, value in list(vars(loaded).items()):
                if callable(value):
                    saved.append((loaded, key, value))
    return saved


def _restore_entry_points(saved):
    for owner, attr, value in saved:
        setattr(owner, attr, value)
