"""Prometheus text-format exposition for the daemon (stdlib only).

``GET /status?format=prometheus`` renders the same operational
snapshot the JSON ``/status`` serves — session epoch/staleness, queue
depth and high-water, breaker state, request counters — plus the
process :class:`~repro.perf.PerfRecorder`'s counters and cumulative
span times (the ``parallel.*`` pool family included), as
`text exposition format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_.

No client library: the format is lines of ``name{labels} value``, and
the daemon only exports gauges and counters, so a renderer is ~80
lines and pulls in nothing the container doesn't already have.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.perf import PerfRecorder

#: Content type pinning the exposition-format version, per the spec.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Breaker states as a numeric gauge (alerts key off ``> 0``).
_BREAKER_STATES = {"closed": 0, "open": 1, "half-open": 2}


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sanitize(name: str) -> str:
    """A perf-counter key as a metric-safe label value base."""
    return _escape_label(name)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return "0"


class _Lines:
    """Accumulates one metric family at a time (HELP/TYPE then samples)."""

    def __init__(self) -> None:
        self._out: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._out.append(f"# HELP {name} {help_text}")
        self._out.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, value: Any, labels: Optional[Dict[str, str]] = None
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(val)}"'
                for key, val in sorted(labels.items())
            )
            self._out.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self._out.append(f"{name} {_format_value(value)}")

    def render(self) -> str:
        return "\n".join(self._out) + "\n"


def render_prometheus(
    status: Dict[str, Any], perf: Optional[PerfRecorder] = None
) -> str:
    """The daemon's ``/status`` snapshot as Prometheus text format.

    ``status`` is exactly what :meth:`SchemaService._status` builds;
    ``perf`` (when recording) contributes ``repro_perf_counter`` /
    ``repro_perf_seconds`` series keyed by the recorder's dotted names,
    so the pool counters are scrapeable without a schema change
    here.
    """
    lines = _Lines()

    lines.family("repro_ready", "gauge", "1 when the writer loop is up.")
    lines.sample("repro_ready", status.get("ready", False))
    lines.family("repro_epoch", "counter", "Adopted refresh epoch.")
    lines.sample("repro_epoch", status.get("epoch", 0))
    lines.family(
        "repro_stale", "gauge", "1 when answers lag unrefreshed mutations."
    )
    lines.sample("repro_stale", status.get("stale", False))
    lines.family(
        "repro_pending_changes", "gauge",
        "Net mutations awaiting a differential refresh.",
    )
    lines.sample("repro_pending_changes", status.get("pending", 0))
    lines.family(
        "repro_jobs", "gauge", "Worker processes of the initial extract."
    )
    lines.sample("repro_jobs", status.get("jobs", 1))
    lines.family("repro_objects", "gauge", "Complex objects in the database.")
    lines.sample("repro_objects", status.get("objects", 0))
    lines.family("repro_schema_k", "gauge", "Adopted schema size k.")
    lines.sample("repro_schema_k", status.get("k") or 0)
    lines.family("repro_schema_defect", "gauge", "Adopted typing defect.")
    lines.sample("repro_schema_defect", status.get("defect", 0))
    lines.family(
        "repro_refreshes_total", "counter", "Refreshes adopted since boot."
    )
    lines.sample("repro_refreshes_total", status.get("refreshes", 0))
    lines.family(
        "repro_failed_refreshes_total", "counter",
        "Refresh attempts that raised.",
    )
    lines.sample(
        "repro_failed_refreshes_total", status.get("failed_refreshes", 0)
    )

    queue = status.get("queue") or {}
    lines.family(
        "repro_queue_depth", "gauge", "Writes waiting in the mutation queue."
    )
    lines.sample("repro_queue_depth", queue.get("depth", 0))
    lines.family("repro_queue_capacity", "gauge", "Mutation queue bound.")
    lines.sample("repro_queue_capacity", queue.get("capacity", 0))
    lines.family(
        "repro_queue_high_water", "gauge", "Deepest the queue has been."
    )
    lines.sample("repro_queue_high_water", queue.get("high_water", 0))
    lines.family(
        "repro_queue_submitted_total", "counter", "Writes accepted since boot."
    )
    lines.sample("repro_queue_submitted_total", queue.get("submitted", 0))
    lines.family(
        "repro_queue_rejected_total", "counter",
        "Writes bounced with 503 backpressure.",
    )
    lines.sample("repro_queue_rejected_total", queue.get("rejected", 0))

    breaker = status.get("breaker") or {}
    lines.family(
        "repro_breaker_state", "gauge",
        "Refresh breaker: 0 closed, 1 open, 2 half-open.",
    )
    lines.sample(
        "repro_breaker_state",
        _BREAKER_STATES.get(str(breaker.get("state", "closed")), 0),
    )
    lines.family(
        "repro_breaker_failures", "gauge",
        "Consecutive refresh failures observed.",
    )
    lines.sample("repro_breaker_failures", breaker.get("failures", 0))
    lines.family(
        "repro_breaker_trips_total", "counter",
        "Times the breaker has opened.",
    )
    lines.sample("repro_breaker_trips_total", breaker.get("trips", 0))

    requests = status.get("requests") or {}
    lines.family(
        "repro_requests_total", "counter", "Requests by disposition."
    )
    for kind in sorted(requests):
        lines.sample(
            "repro_requests_total", requests[kind], {"kind": str(kind)}
        )

    if perf is not None and perf.enabled:
        snapshot = perf.to_dict()
        counters = snapshot.get("counters") or {}
        timers = snapshot.get("timers") or {}
        lines.family(
            "repro_perf_counter", "counter",
            "PerfRecorder counters (pool, Stage 1, kernels...).",
        )
        for name in sorted(counters):
            lines.sample(
                "repro_perf_counter", counters[name], {"name": _sanitize(name)}
            )
        lines.family(
            "repro_perf_seconds", "counter",
            "PerfRecorder cumulative span seconds.",
        )
        for name in sorted(timers):
            lines.sample(
                "repro_perf_seconds", timers[name], {"name": _sanitize(name)}
            )

    return lines.render()
