"""The traced run's per-layer split (``--trace 1``).

Layers are named after the ``repro`` modules whose entry points
``tracer.py`` wraps.  Per op, the op's wall time is split over the
spans recorded during it (each instant to the innermost active span),
so the layers' self times plus ``unattributed_ms`` add up to the op
wall.  Work in pool workers is outside that split: ``perfect.busy_ms``
adds the workers' GFP time (the program's ``parallel.shard_stage1``
timer) to the coordinator's, and ``parallel.worker_busy_ms`` reports
the workers' part alone.  Counts come from the program's own
:class:`PerfRecorder`:
passed in through ``perf=`` for batch ops, scraped from ``/status``
for the daemon.  Every workload reports every metric below; a layer a
workload never enters reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

import tracer
from report import Outcome

#: The layers whose self times partition an op's wall.
LAYERS = ("graph", "perfect", "sensitivity", "clustering", "recast",
          "defect", "delta", "parallel", "service")

#: Every per-layer metric, with its unit (the BENCHMARK.json list).
#: Times and counts are per op; ratios are over the whole traced run.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("graph.parse_ms", "ms"),
    ("graph.partition_ms", "ms"),
    ("perfect.busy_ms", "ms"),
    ("perfect.satisfaction_checks", "count"),
    ("sensitivity.busy_ms", "ms"),
    ("sensitivity.samples", "count"),
    ("clustering.busy_ms", "ms"),
    ("clustering.heap_pops", "count"),
    ("clustering.stale_pop_ratio", "ratio"),
    ("recast.busy_ms", "ms"),
    ("recast.memo_hit_ratio", "ratio"),
    ("defect.busy_ms", "ms"),
    ("delta.busy_ms", "ms"),
    ("delta.visited_ratio", "ratio"),
    ("parallel.busy_ms", "ms"),
    ("parallel.pool_open_ms", "ms"),
    ("parallel.pool_close_ms", "ms"),
    ("parallel.payload_bytes", "bytes"),
    ("parallel.worker_busy_ms", "ms"),
    ("parallel.coordinator_wait_ms", "ms"),
    ("parallel.reconcile_ms", "ms"),
    ("parallel.fallbacks", "count"),
    ("service.busy_ms", "ms"),
    ("service.handle_lookup_ms", "ms"),
    ("service.handle_classify_ms", "ms"),
    ("service.handle_mutate_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.refresh_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.refused", "count"),
    ("op_wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
)

_FALLBACK_COUNTERS = ("parallel.pool_fallbacks", "parallel.pool_respawns",
                      "parallel.reconcile_fallbacks",
                      "parallel.cluster_fallbacks")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _by_layer(per_name: Dict[str, float]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for name, seconds in per_name.items():
        totals[tracer.layer_of(name)] += seconds
    return totals


def _durations(spans: Iterable[Dict[str, Any]], prefix: str) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"].startswith(prefix))


def _inside(spans: List[Dict[str, Any]], prefix: str, ancestor: str
            ) -> float:
    """Seconds of ``prefix`` spans that run under an ``ancestor`` span."""
    by_id = {span["id"]: span for span in spans}
    total = 0.0
    for span in spans:
        if not span["name"].startswith(prefix):
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and not parent["name"].startswith(ancestor):
            parent = by_id.get(parent["parent"])
        if parent is not None:
            total += span["end"] - span["start"]
    return total


def _emit(out: Outcome, values: Dict[str, float],
          split: Dict[str, float]) -> None:
    """Fill every metric (0 where the workload has none) and the rows.

    ``split`` holds each layer's self time (ms per op) in the op's wall.
    """
    for name, unit in METRICS:
        out.layer(name, float(values.get(name, 0.0)), unit)
    wall = values.get("op_wall_ms", 0.0)
    out.layer_rows.append(
        f"== per-layer split, mean per op (op wall {wall:.1f} ms)")
    shares = [(layer, split.get(layer, 0.0)) for layer in LAYERS]
    shares.append(("unattributed", values.get("unattributed_ms", 0.0)))
    for layer, ms in shares:
        out.layer_rows.append(
            f"  {layer:<12} {ms:10.2f} ms  {100 * _ratio(ms, wall):5.1f}%")
    workers = values.get("parallel.worker_busy_ms", 0.0)
    if workers:
        out.layer_rows.append(
            f"  (pool workers' GFP, outside the split: {workers:.2f} ms, "
            "counted in perfect.busy_ms and parallel.worker_busy_ms)")
    out.layer_rows.append("== per-layer metrics")
    for name, unit in METRICS:
        out.layer_rows.append(
            f"  {name:<30} {float(values.get(name, 0.0)):16.4f} {unit}")


def batch_report(out: Outcome, traced: List[Dict[str, Any]],
                 spans_path: str, span_cost: float) -> None:
    """Per-layer split of the measured ops of a batch workload."""
    spans = tracer.load_spans(spans_path)
    by_op: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_op[span["op"]].append(span)
    layer_s: Dict[str, float] = defaultdict(float)
    unattributed = wall = 0.0
    counters: Dict[str, float] = defaultdict(float)
    timers: Dict[str, float] = defaultdict(float)
    extra = defaultdict(float)
    span_count = 0
    for op_index, reply in enumerate(traced):
        op_spans = by_op.get(f"op{op_index}", [])
        span_count += len(op_spans)
        # A pool task the coordinator ran itself (a pool fallback) feeds
        # parallel.shard_stage1 too; leave it to the coordinator's share.
        extra["coordinator_shards"] += _inside(op_spans, "perfect:",
                                               "parallel:pool_run")
        depth = tracer.depths(op_spans)
        per_name, rest = tracer.attribute(
            op_spans, reply["start"], reply["end"],
            lambda span: depth[span["id"]])
        for name, seconds in per_name.items():
            layer_s[name] += seconds
        unattributed += rest
        wall += reply["end"] - reply["start"]
        extra["pool_open"] += _durations(op_spans, "parallel:pool_open")
        extra["pool_close"] += _durations(op_spans, "parallel:pool_close")
        extra["reconcile"] += _durations(op_spans, "parallel:reconcile")
        for name, value in reply["perf"]["counters"].items():
            counters[name] += value
        for name, entry in reply["perf"]["timers"].items():
            timers[name] += entry["seconds"]
    ops = max(len(traced), 1)
    layers = _by_layer(layer_s)
    per_op_ms = lambda seconds: 1000.0 * seconds / ops  # noqa: E731
    worker_gfp = max(timers["parallel.shard_stage1"]
                     - extra["coordinator_shards"], 0.0)
    values = {
        "graph.parse_ms": per_op_ms(layer_s.get("graph:parse", 0.0)),
        "graph.partition_ms": per_op_ms(layer_s.get("graph:partition", 0.0)),
        "perfect.satisfaction_checks":
            counters["gfp.satisfaction_checks"] / ops,
        "sensitivity.samples": counters["sweep.samples"] / ops,
        "clustering.heap_pops": counters["merge.heap_pops"] / ops,
        "clustering.stale_pop_ratio":
            _ratio(counters["merge.stale_pops"], counters["merge.heap_pops"]),
        "recast.memo_hit_ratio": _ratio(
            counters["recast.memo_hits"],
            counters["recast.memo_hits"] + counters["recast.evaluations"]),
        "parallel.pool_open_ms": per_op_ms(extra["pool_open"]),
        "parallel.pool_close_ms": per_op_ms(extra["pool_close"]),
        "parallel.payload_bytes": counters["parallel.payload_bytes"] / ops,
        "parallel.worker_busy_ms": per_op_ms(worker_gfp),
        "parallel.coordinator_wait_ms":
            per_op_ms(layer_s.get("parallel:pool_run", 0.0)),
        "parallel.reconcile_ms": per_op_ms(extra["reconcile"]),
        "parallel.fallbacks":
            sum(counters[name] for name in _FALLBACK_COUNTERS) / ops,
        "op_wall_ms": per_op_ms(wall),
        "unattributed_ms": per_op_ms(unattributed),
        "unattributed_pct": 100.0 * _ratio(unattributed, wall),
        "trace_overhead_pct": 100.0 * _ratio(span_count * span_cost, wall),
    }
    split = {layer: per_op_ms(layers.get(layer, 0.0)) for layer in LAYERS}
    for layer in LAYERS:
        if layer != "graph":
            values[f"{layer}.busy_ms"] = split[layer]
    values["perfect.busy_ms"] += per_op_ms(worker_gfp)
    _emit(out, values, split)


#: Span names on the daemon's write path (writer task, refresh thread).
_WRITER_PREFIXES = ("service:write_batch", "service:apply_batch",
                    "service:refresh", "service:queue_submit", "delta:",
                    "clustering:", "recast:", "defect:", "perfect:",
                    "sensitivity:")


def _inherit_ops(spans: List[Dict[str, Any]]) -> None:
    """Give spans without an op id their parent's (parents open first)."""
    by_id = {span["id"]: span for span in spans}
    for span in sorted(spans, key=lambda s: s["id"]):
        parent = by_id.get(span["parent"])
        if span["op"] is None and parent is not None:
            span["op"] = parent["op"]


def _mean_duration_ms(spans: Iterable[Dict[str, Any]], name: str) -> float:
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return 1000.0 * sum(durations) / len(durations) if durations else 0.0


def service_report(out: Outcome, writes, spans_path: str,
                   before: Dict[str, float], after: Dict[str, float],
                   status: Dict[str, Any]) -> None:
    """Per-layer split of service-mixed's writes (due time to fresh).

    A write's wall is split over the daemon spans active during it;
    spans on the write path (its own request, the writer task and the
    refresh thread) rank above reads served meanwhile, and within a
    rank the innermost span wins.  Reads that hold the event loop
    while the write waits are therefore attributed to the service
    layer rather than left unattributed.
    """
    spans = tracer.load_spans(spans_path)
    with open(spans_path + ".cost", encoding="utf-8") as handle:
        span_cost = float(handle.read())
    _inherit_ops(spans)
    depth = tracer.depths(spans)
    done = [s for s in writes if s.result["ok"]]
    ops = max(len(done), 1)
    layer_s: Dict[str, float] = defaultdict(float)
    unattributed = wall = 0.0
    span_count = 0
    for sample in done:
        rid = sample.result["rid"]

        def rank(span, rid=rid):
            on_path = (span["op"] == rid
                       or span["name"].startswith(_WRITER_PREFIXES))
            return (on_path, depth[span["id"]])

        window = [s for s in spans
                  if s["end"] > sample.due and s["start"] < sample.done]
        span_count += len(window)
        per_name, rest = tracer.attribute(window, sample.due, sample.done,
                                          rank)
        for name, seconds in per_name.items():
            layer_s[name] += seconds
        unattributed += rest
        wall += sample.done - sample.due
    layers = _by_layer(layer_s)
    diff = {name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in set(after) | set(before)}
    submits = sorted((s for s in spans if s["name"] == "service:queue_submit"),
                     key=lambda s: s["start"])
    batches = sorted((s for s in spans if s["name"] == "service:write_batch"),
                     key=lambda s: s["start"])
    waits = [b["start"] - s["end"] for s, b in zip(submits, batches)]
    cache = status.get("cache", {})
    requests = status.get("requests", {})
    refreshes = max(status.get("refreshes", 0), 1)
    per_op_ms = lambda seconds: 1000.0 * seconds / ops  # noqa: E731
    values = {
        "graph.parse_ms": per_op_ms(layer_s.get("graph:parse", 0.0)),
        "graph.partition_ms": per_op_ms(layer_s.get("graph:partition", 0.0)),
        "perfect.satisfaction_checks":
            diff.get("gfp.satisfaction_checks", 0.0) / ops,
        "sensitivity.samples": diff.get("sweep.samples", 0.0) / ops,
        "clustering.heap_pops": diff.get("merge.heap_pops", 0.0) / ops,
        "clustering.stale_pop_ratio": _ratio(
            diff.get("merge.stale_pops", 0.0),
            diff.get("merge.heap_pops", 0.0)),
        "recast.memo_hit_ratio": _ratio(
            diff.get("recast.memo_hits", 0.0),
            diff.get("recast.memo_hits", 0.0)
            + diff.get("recast.evaluations", 0.0)),
        "delta.visited_ratio": _ratio(
            diff.get("delta.objects_visited", 0.0),
            refreshes * status.get("objects", 0)),
        "parallel.fallbacks":
            sum(diff.get(name, 0.0) for name in _FALLBACK_COUNTERS) / ops,
        "service.handle_lookup_ms":
            _mean_duration_ms(spans, "service:handle:lookup"),
        "service.handle_classify_ms":
            _mean_duration_ms(spans, "service:handle:classify"),
        "service.handle_mutate_ms":
            _mean_duration_ms(spans, "service:handle:mutate"),
        "service.queue_wait_ms":
            1000.0 * sum(waits) / len(waits) if waits else 0.0,
        "service.refresh_ms": _mean_duration_ms(spans, "service:refresh"),
        "service.cache_hit_ratio": _ratio(
            cache.get("hits", 0),
            cache.get("hits", 0) + cache.get("misses", 0)),
        "service.refused": float(
            requests.get("rate_limited", 0) + requests.get("overloaded", 0)
            + requests.get("deadline_expired", 0)),
        "op_wall_ms": per_op_ms(wall),
        "unattributed_ms": per_op_ms(unattributed),
        "unattributed_pct": 100.0 * _ratio(unattributed, wall),
        "trace_overhead_pct": 100.0 * _ratio(span_count * span_cost, wall),
    }
    split = {layer: per_op_ms(layers.get(layer, 0.0)) for layer in LAYERS}
    for layer in LAYERS:
        if layer != "graph":
            values[f"{layer}.busy_ms"] = split[layer]
    _emit(out, values, split)
