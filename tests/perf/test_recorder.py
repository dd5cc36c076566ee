"""Unit tests for the performance-instrumentation substrate."""

import json

import pytest

from repro.perf import NULL_RECORDER, PerfRecorder, resolve


class TestCounters:
    def test_incr_defaults_and_accumulates(self):
        perf = PerfRecorder()
        perf.incr("x.a")
        perf.incr("x.a", 4)
        assert perf.counter("x.a") == 5

    def test_unknown_counter_is_zero(self):
        assert PerfRecorder().counter("never") == 0

    def test_aggregate_increments(self):
        """Hot loops batch increments; the total must match."""
        perf = PerfRecorder()
        for batch in (3, 0, 7):
            perf.incr("x.batched", batch)
        assert perf.counter("x.batched") == 10


class TestPeaks:
    def test_peak_keeps_high_water_mark(self):
        perf = PerfRecorder()
        perf.peak("heap", 10)
        perf.peak("heap", 3)
        perf.peak("heap", 12)
        assert perf.peak_value("heap") == 12

    def test_unknown_peak_is_zero(self):
        assert PerfRecorder().peak_value("never") == 0.0


class TestTimers:
    def test_span_accumulates_time_and_count(self):
        perf = PerfRecorder()
        with perf.span("work"):
            pass
        with perf.span("work"):
            pass
        assert perf.elapsed("work") >= 0.0
        assert perf.to_dict()["timers"]["work"]["count"] == 2

    def test_nested_and_distinct_spans(self):
        perf = PerfRecorder()
        with perf.span("outer"):
            with perf.span("inner"):
                pass
        timers = perf.to_dict()["timers"]
        assert set(timers) == {"outer", "inner"}
        assert timers["outer"]["seconds"] >= timers["inner"]["seconds"]

    def test_span_records_on_exception(self):
        perf = PerfRecorder()
        with pytest.raises(ValueError):
            with perf.span("broken"):
                raise ValueError("boom")
        assert perf.to_dict()["timers"]["broken"]["count"] == 1

    def test_add_time_direct(self):
        perf = PerfRecorder()
        perf.add_time("t", 0.5)
        perf.add_time("t", 0.25)
        assert perf.elapsed("t") == pytest.approx(0.75)


class TestExport:
    def test_to_dict_shape_and_sorting(self):
        perf = PerfRecorder()
        perf.incr("b.two")
        perf.incr("a.one")
        perf.peak("p", 7)
        with perf.span("s"):
            pass
        report = perf.to_dict()
        assert list(report) == ["counters", "peaks", "timers"]
        assert list(report["counters"]) == ["a.one", "b.two"]
        assert report["peaks"] == {"p": 7}

    def test_dumps_is_valid_json(self):
        perf = PerfRecorder()
        perf.incr("x", 2)
        assert json.loads(perf.dumps())["counters"]["x"] == 2

    def test_write_json_roundtrip(self, tmp_path):
        perf = PerfRecorder()
        perf.incr("x", 3)
        perf.peak("p", 1.5)
        path = tmp_path / "perf.json"
        perf.write_json(str(path))
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["counters"] == {"x": 3}
        assert loaded["peaks"] == {"p": 1.5}

    def test_summary_mentions_everything(self):
        perf = PerfRecorder()
        perf.incr("gfp.checks", 42)
        perf.peak("parallel.peak_shard_objects", 9)
        with perf.span("stage"):
            pass
        text = perf.summary()
        assert "gfp.checks" in text
        assert "parallel.peak_shard_objects" in text
        assert "stage" in text

    def test_empty_summary(self):
        assert PerfRecorder().summary() == "(no perf data recorded)"

    def test_clear(self):
        perf = PerfRecorder()
        perf.incr("x")
        perf.peak("p", 1)
        perf.add_time("t", 0.1)
        perf.clear()
        assert perf.to_dict() == {"counters": {}, "peaks": {}, "timers": {}}


class TestNullRecorder:
    def test_null_recorder_records_nothing(self):
        NULL_RECORDER.incr("x", 100)
        NULL_RECORDER.peak("p", 100)
        NULL_RECORDER.add_time("t", 100.0)
        with NULL_RECORDER.span("s"):
            pass
        assert NULL_RECORDER.to_dict() == {
            "counters": {}, "peaks": {}, "timers": {},
        }

    def test_enabled_flag(self):
        assert PerfRecorder().enabled is True
        assert NULL_RECORDER.enabled is False

    def test_resolve(self):
        assert resolve(None) is NULL_RECORDER
        live = PerfRecorder()
        assert resolve(live) is live

    def test_null_span_is_shared_and_inert(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")
