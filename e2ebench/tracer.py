"""Layer spans recorded from the benchmark's own files.

:func:`install` wraps the program's layer entry points (the table in
the README) so every call records a span: id, name, start, end,
parent span, op id and thread.  Spans stay in memory until the process
writes them out with :meth:`Tracer.dump`.  Nothing here runs in a
measured run: only ``--trace 1`` installs the wrappers.

A span's name is ``<layer>:<entry point>``.  :func:`attribute` splits
an op's wall time over the spans active during it, giving each instant
to the highest-ranked active span; with ranks equal to nesting depth
that is exactly each span's self time (its duration minus the part its
children cover), and the instants no span covers are the op's
unattributed remainder.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(module, attribute path, span name)`` for every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.oem", "loads_oem", "graph:parse"),
    ("repro.graph.partition", "partition_database", "graph:partition"),
    ("repro.core.perfect", "minimal_perfect_typing", "perfect:gfp"),
    ("repro.core.sensitivity", "sensitivity_sweep", "sensitivity:sweep"),
    ("repro.core.clustering", "GreedyMerger.step", "clustering:step"),
    ("repro.core.clustering", "GreedyMerger.run_to", "clustering:run_to"),
    ("repro.core.clustering", "GreedyMerger.result", "clustering:result"),
    ("repro.core.recast", "recast", "recast:recast"),
    ("repro.core.defect", "compute_defect", "defect:compute"),
    ("repro.core.delta", "Stage1Maintainer.apply", "delta:apply"),
    ("repro.core.incremental", "IncrementalTyper.refresh", "delta:refresh"),
    ("repro.parallel.pool", "SharedWorkerPool.__init__", "parallel:pool_open"),
    ("repro.parallel.pool", "SharedWorkerPool.close", "parallel:pool_close"),
    ("repro.parallel.pool", "SharedWorkerPool.run", "parallel:pool_run"),
    ("repro.parallel.extractor", "parallel_stage1", "parallel:stage1"),
    ("repro.parallel.merge", "merge_shard_typings", "parallel:reconcile"),
    ("repro.service.http", "read_request", "service:read_request"),
    ("repro.service.app", "SchemaService.handle_connection",
     "service:connection"),
    ("repro.service.app", "SchemaService.handle", "service:handle"),
    ("repro.service.app", "SchemaService._write_batch",
     "service:write_batch"),
    ("repro.service.queue", "MutationQueue.submit", "service:queue_submit"),
    ("repro.service.session", "DatasetSession.lookup", "service:lookup"),
    ("repro.service.session", "DatasetSession.classify", "service:classify"),
    ("repro.service.session", "DatasetSession.apply_batch",
     "service:apply_batch"),
    ("repro.service.session", "DatasetSession.refresh", "service:refresh"),
)

#: Span fields, in the order :meth:`Tracer.dump` writes them.
FIELDS = ("id", "name", "start", "end", "parent", "op", "thread")

_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2ebench_parent", default=None
)
_OP: contextvars.ContextVar = contextvars.ContextVar(
    "e2ebench_op", default=None
)


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def route_of(path: str) -> str:
    """``/lookup/x`` -> ``lookup``; the route label of a request path."""
    return path.strip("/").split("/", 1)[0] or "root"


class Tracer:
    """An in-memory span log (thread-safe appends under the GIL)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()

    def open(self, name: str) -> list:
        span = [next(self._ids), name, time.perf_counter(), None,
                _PARENT.get(), _OP.get(), threading.get_ident()]
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: list) -> None:
        span[3] = time.perf_counter()
        if span[5] is None:
            span[5] = _OP.get()

    @staticmethod
    def set_op(op: Optional[str]) -> contextvars.Token:
        return _OP.set(op)

    @staticmethod
    def reset_op(token: contextvars.Token) -> None:
        _OP.reset(token)

    def dump(self, path: str) -> None:
        finished = [span for span in self.spans if span[3] is not None]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "spans": finished}, handle)


def load_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return [dict(zip(payload["fields"], row)) for row in payload["spans"]]


def _wrap(tracer: Tracer, fn: Callable, name: str) -> Callable:
    if name == "service:handle":
        @functools.wraps(fn)
        async def handle(self, request, *args, **kwargs):
            _OP.set(request.header("x-request-id"))
            span = tracer.open(f"{name}:{route_of(request.path)}")
            token = _PARENT.set(span[0])
            try:
                return await fn(self, request, *args, **kwargs)
            finally:
                _PARENT.reset(token)
                tracer.close(span)
        return handle

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span = tracer.open(name)
            token = _PARENT.set(span[0])
            try:
                return await fn(*args, **kwargs)
            finally:
                _PARENT.reset(token)
                tracer.close(span)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        token = _PARENT.set(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            _PARENT.reset(token)
            tracer.close(span)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry point, in its module and at every import site.

    Modules that did ``from x import f`` hold their own reference, so
    each loaded ``repro`` module is scanned for the original function
    and pointed at the wrapper too.  Methods are patched on the class.
    """
    for module_name, path, name in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, original, name))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, original, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------


def depths(spans: Iterable[Dict[str, Any]]) -> Dict[int, int]:
    """Nesting depth of every span (roots are 0)."""
    by_id = {span["id"]: span for span in spans}
    memo: Dict[int, int] = {}

    def depth(span_id: int) -> int:
        if span_id in memo:
            return memo[span_id]
        chain = []
        current: Optional[int] = span_id
        while current is not None and current not in memo:
            chain.append(current)
            parent = by_id[current]["parent"]
            current = parent if parent in by_id else None
        base = -1 if current is None else memo[current]
        for offset, item in enumerate(reversed(chain)):
            memo[item] = base + 1 + offset
        return memo[span_id]

    for span_id in by_id:
        depth(span_id)
    return memo


def attribute(
    spans: Iterable[Dict[str, Any]],
    start: float,
    end: float,
    rank: Callable[[Dict[str, Any]], Any],
) -> Tuple[Dict[str, float], float]:
    """Split ``[start, end]`` among ``spans``; seconds per span name.

    Each instant goes to the active span with the highest
    ``rank(span)``; instants with no active span are returned as the
    unattributed remainder.  The per-name totals plus the remainder add
    up to ``end - start`` exactly.
    """
    events: List[Tuple[float, int, int]] = []
    chosen: Dict[int, Dict[str, Any]] = {}
    for span in spans:
        low, high = max(span["start"], start), min(span["end"], end)
        if high <= low:
            continue
        chosen[span["id"]] = span
        events.append((low, 1, span["id"]))
        events.append((high, 0, span["id"]))
    events.sort()
    totals: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    active: Dict[int, Any] = {}
    cursor = start
    for moment, kind, span_id in events:
        if moment > cursor:
            if active:
                top = max(active, key=active.__getitem__)
                totals[chosen[top]["name"]] += moment - cursor
            else:
                unattributed += moment - cursor
            cursor = moment
        if kind:
            active[span_id] = rank(chosen[span_id])
        else:
            active.pop(span_id, None)
    unattributed += max(0.0, end - cursor)
    return dict(totals), unattributed


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call (calibrated)."""
    def noop():
        return None

    wrapped = _wrap(Tracer(), noop, "calibration:noop")
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, time.perf_counter() - started - plain)
    return max(best, 0.0) / calls
