"""Lightweight performance instrumentation: counters, peaks, spans.

The ROADMAP's north star is an extractor that runs "as fast as the
hardware allows"; the prerequisite is *measurement*.  This module is
the measurement substrate threaded through the hot loops of the
pipeline — the Stage 1 greatest-fixpoint engine, the Stage 2 greedy
merger, the sensitivity sweep and the pipeline driver — without
perturbing them:

* a :class:`PerfRecorder` collects named **counters** (monotone work
  tallies such as ``gfp.object_checks``), **peaks** (high-water marks
  such as ``parallel.peak_shard_objects``) and **timers** (wall-clock spans opened
  with :meth:`PerfRecorder.span`);
* the module-level :data:`NULL_RECORDER` is a no-op subclass used as
  the default everywhere, so uninstrumented callers pay one attribute
  lookup and a no-op call per event — nothing else;
* :meth:`PerfRecorder.to_dict` / :meth:`PerfRecorder.write_json`
  export a machine-readable report (the ``--perf-report`` CLI flag and
  the ``BENCH_pipeline.json`` regression trajectory are both this
  format).

Instrumentation conventions
---------------------------
Counter names are dotted ``<stage>.<metric>`` strings.  Hot loops
record *aggregates* (one ``incr(name, n)`` per batch) rather than one
call per innermost operation, so that even the live recorder stays out
of the profile.  The recorder is not thread-safe by design — one
recorder per extraction, like one :class:`~repro.runtime.budget.Budget`.

>>> perf = PerfRecorder()
>>> perf.incr("gfp.object_checks", 3)
>>> with perf.span("pipeline.stage1"):
...     pass
>>> perf.counter("gfp.object_checks")
3
>>> sorted(perf.to_dict()["timers"])
['pipeline.stage1']
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional


class _SpanTimer:
    """Context manager measuring one wall-clock span (re-entrant safe:
    each ``span()`` call makes a fresh instance)."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "PerfRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._recorder.add_time(
            self._name, time.perf_counter() - self._start
        )


class _NullSpan:
    """The shared do-nothing span of :data:`NULL_RECORDER`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class PerfRecorder:
    """Collects counters, peak values and wall-clock timers.

    Attributes
    ----------
    enabled:
        ``True`` for a live recorder; ``False`` on the
        :data:`NULL_RECORDER` no-op.  Instrumented code may branch on
        it to skip *computing* an expensive metric, but plain
        ``incr``/``peak``/``span`` calls are safe either way.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._peaks: Dict[str, float] = {}
        # name -> [total_seconds, enter_count]
        self._timers: Dict[str, list] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        """Record ``value`` as a high-water mark for ``name``."""
        current = self._peaks.get(name)
        if current is None or value > current:
            self._peaks[name] = value

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` of wall-clock time under ``name``.

        ``count`` is how many spans the seconds represent — 1 for a
        live span, possibly more when merging another recorder.
        """
        entry = self._timers.get(name)
        if entry is None:
            self._timers[name] = [seconds, count]
        else:
            entry[0] += seconds
            entry[1] += count

    def merge_dict(self, snapshot: Dict[str, Any]) -> None:
        """Fold another recorder's :meth:`to_dict` export into this one.

        Used by the parallel extractor: worker processes serialise
        their recorders back to the parent, which merges them so
        ``--perf-report`` stays truthful under parallelism.  Counters
        and timers add; peaks take the maximum.  Implemented on top of
        :meth:`incr` / :meth:`peak` / :meth:`add_time`, so merging into
        the :data:`NULL_RECORDER` is a no-op.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.incr(name, value)
        for name, value in snapshot.get("peaks", {}).items():
            self.peak(name, value)
        for name, entry in snapshot.get("timers", {}).items():
            self.add_time(name, entry["seconds"], count=entry["count"])

    def span(self, name: str):
        """A context manager timing one span under ``name``.

        Spans with the same name accumulate (total seconds + count),
        so per-iteration spans stay readable in the report.
        """
        return _SpanTimer(self, name)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def peak_value(self, name: str) -> float:
        """Current high-water mark of ``name`` (0.0 if never recorded)."""
        return self._peaks.get(name, 0.0)

    def elapsed(self, name: str) -> float:
        """Total seconds accumulated under timer ``name``."""
        entry = self._timers.get(name)
        return entry[0] if entry is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The full report as plain JSON-serialisable data."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "peaks": dict(sorted(self._peaks.items())),
            "timers": {
                name: {"seconds": entry[0], "count": entry[1]}
                for name, entry in sorted(self._timers.items())
            },
        }

    def dumps(self, indent: Optional[int] = 2) -> str:
        """The report as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write the JSON report to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps() + "\n")

    def summary(self) -> str:
        """Human-readable multi-line report (the CLI ``-v`` output)."""
        lines = []
        for name, entry in sorted(self._timers.items()):
            lines.append(
                f"{name:<28} {entry[0] * 1000:10.1f} ms"
                f"  ({entry[1]} span(s))"
            )
        for name, value in sorted(self._counters.items()):
            lines.append(f"{name:<28} {value:>13}")
        for name, value in sorted(self._peaks.items()):
            lines.append(f"{name:<28} {value:>13g}  (peak)")
        return "\n".join(lines) if lines else "(no perf data recorded)"

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self._counters.clear()
        self._peaks.clear()
        self._timers.clear()


class _NullRecorder(PerfRecorder):
    """The do-nothing recorder; every hook is a constant-time no-op."""

    enabled = False

    def incr(self, name: str, n: int = 1) -> None:
        return None

    def peak(self, name: str, value: float) -> None:
        return None

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        return None

    def span(self, name: str):
        return _NULL_SPAN


#: Shared no-op recorder used as the default by every instrumented API.
NULL_RECORDER = _NullRecorder()


def resolve(perf: Optional[PerfRecorder]) -> PerfRecorder:
    """``perf`` itself, or :data:`NULL_RECORDER` when ``None``.

    The one-liner every instrumented function calls on its optional
    ``perf`` parameter.
    """
    return NULL_RECORDER if perf is None else perf
