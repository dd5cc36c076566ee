"""The persistent shared-memory worker pool behind ``--jobs N``.

Before this module existed every parallel phase spawned a fresh
``ProcessPoolExecutor`` and pickled the full database (and, for
sweeps, the full Stage 1 typing) into **every task**.  The pool flips
that around:

* one :class:`SharedWorkerPool` is created per extraction/sweep and
  reused across every phase that follows (Stage 1 shards, then sweep
  blocks — ``parallel.pool_reuses`` counts the reuse);
* the heavy payload — the wire-codec database plus the shard
  partition — is published **once** in a
  :class:`~repro.parallel.shm.SharedPayload` segment and decoded once
  per worker in the pool initializer;
* later payloads (the Stage 1 typing for the sweep) are published as
  further segments and attached lazily, cached worker-side by segment
  name, so N sweep blocks cost one decode, not N;
* a task is now (index, small params) — ``parallel.task_bytes``
  records how small.

Worker death is survivable: when the executor breaks
(``BrokenProcessPool``), results already returned are kept, the
executor is respawned (same initializer, same segments) and only the
unfinished tasks are resubmitted — ``parallel.pool_respawns`` counts
it, and after :data:`DEFAULT_MAX_RESPAWNS` consecutive failures the
error propagates so the extractor's sequential fallback
(``parallel.pool_fallbacks``) takes over.  Cancellation is enforced
parent-side exactly like the legacy path: the budget token is polled
between future completions and trips a fast shutdown.

Segment lifecycle: ``close()`` unlinks everything the pool published;
callers hold the pool in ``try/finally`` so SIGINT unwinds through the
same unlink, and :mod:`repro.parallel.shm` keeps an ``atexit``
backstop.  ``--jobs 1`` never constructs a pool, and
``use_shared_pool=False`` on the extractor preserves the legacy
spawn-per-call path as the byte-identical oracle.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from array import array
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.fixpoint import greatest_fixpoint_restricted
from repro.graph.database import Database, ObjectId
from repro.graph.partition import extract_shard
from repro.parallel import codec, shm
from repro.parallel.worker import (
    ReconcileOutcome,
    Stage1Outcome,
    SweepOutcome,
    SweepParams,
    resolve_distance,
    stage1_body,
    sweep_body,
)
from repro.perf import PerfRecorder, resolve as _resolve_perf
from repro.runtime.budget import Budget

logger = logging.getLogger("repro.parallel")

#: Seconds between cancellation polls while futures are in flight.
_POLL_INTERVAL = 0.1

#: Consecutive executor breakages tolerated before giving up.
DEFAULT_MAX_RESPAWNS = 2


# ---------------------------------------------------------------------------
# Worker-side state (one per worker process)
# ---------------------------------------------------------------------------

#: Populated by :func:`_pool_initializer`; module-global because pool
#: entry points must be importable module-level functions.
_WORKER_STATE: Optional[Dict[str, Any]] = None


def _pool_initializer(payload_segment: str) -> None:
    """Decode the pool payload once per worker process.

    Runs in the worker.  Attaches the initializer segment, decodes the
    database (and the shard partition, when present) and leaves the
    mapping open for the worker's lifetime; per-typing attachments are
    cached lazily in ``typings``.
    """
    global _WORKER_STATE
    shm.forget_inherited()
    payload = shm.SharedPayload.attach(payload_segment)
    view = payload.view()
    try:
        db, shards, strings = codec.load_pool_payload(view)
    finally:
        view.release()
    _WORKER_STATE = {
        "payload": payload,
        "db": db,
        "shards": shards,
        "strings": strings,
        "object_index": None,  # built lazily by the first reconcile task
        "typings": {},
        "programs": {},
    }


def _worker_state() -> Dict[str, Any]:
    state = _WORKER_STATE
    if state is None:
        raise RuntimeError(
            "pool task executed in a worker without the pool initializer"
        )
    return state


def _worker_typing(segment_name: str):
    """The decoded Stage 1 typing of ``segment_name`` (cached).

    First attach decodes the wire typing — masks through the rebuilt
    link space — derives the assignment/weights views every block
    needs, and warms the ``(distance, dimensions)`` cache so no task
    pays the ``named_distances`` build.
    """
    state = _worker_state()
    cached = state["typings"].get(segment_name)
    if cached is None:
        payload = shm.SharedPayload.attach(segment_name)
        view = payload.view()
        try:
            typing, distance_name = codec.decode_typing(view)
        finally:
            view.release()
        payload.close()
        if distance_name:
            resolve_distance(
                distance_name, len(typing.program.typed_links())
            )
        cached = (
            typing,
            typing.assignment(),
            {name: float(w) for name, w in typing.weights.items()},
        )
        state["typings"][segment_name] = cached
    return cached


def _worker_program(segment_name: str):
    """The decoded reconcile program of ``segment_name`` (cached).

    Same attach-decode-close-cache protocol as :func:`_worker_typing`:
    the broadcast combined program costs one decode per worker, not one
    per shard task.
    """
    state = _worker_state()
    cached = state["programs"].get(segment_name)
    if cached is None:
        payload = shm.SharedPayload.attach(segment_name)
        view = payload.view()
        try:
            cached = codec.decode_program(view)
        finally:
            view.release()
        payload.close()
        state["programs"][segment_name] = cached
    return cached


def _worker_object_index() -> Dict[ObjectId, int]:
    """Object id -> index into the pool payload's string table.

    Built once per worker on first use; reconcile outcomes ship their
    extents as uint32 indexes into this table instead of strings.
    """
    state = _worker_state()
    index = state["object_index"]
    if index is None:
        index = {
            name: position for position, name in enumerate(state["strings"])
        }
        state["object_index"] = index
    return index


def _maybe_chaos_exit(segment_name: Optional[str]) -> None:
    """Test hook: die hard (``os._exit``) when the chaos flag is armed.

    The flag segment holds one byte; the first task to see it armed
    clears it and kills its worker mid-pool, which is how the suite
    provokes ``BrokenProcessPool`` deterministically.
    """
    if not segment_name:
        return
    flag = shm.SharedPayload.attach(segment_name)
    view = flag.view()
    try:
        armed = view[0] == 1
        if armed:
            view[0] = 0
    finally:
        view.release()
        flag.close()
    if armed:
        os._exit(17)


# ---------------------------------------------------------------------------
# Pooled tasks (what actually crosses the process boundary)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PooledStage1Task:
    """Stage 1 work order: just a shard index into the shared partition."""

    index: int
    local_rule_fn: Optional[Any] = None
    record_perf: bool = False
    chaos_kill_segment: Optional[str] = None


def run_pooled_stage1(task: PooledStage1Task) -> Stage1Outcome:
    """Pool worker body: type one shard of the initializer's database."""
    _maybe_chaos_exit(task.chaos_kill_segment)
    state = _worker_state()
    shards = state["shards"]
    if shards is None:
        raise RuntimeError("pool payload carries no shard partition")
    shard_db = extract_shard(state["db"], shards[task.index])
    return stage1_body(
        shard_db,
        index=task.index,
        local_rule_fn=task.local_rule_fn,
        record_perf=task.record_perf,
    )


@dataclass(frozen=True)
class PooledSweepTask:
    """Sweep work order: a typing segment name plus the small params."""

    typing_segment: str
    params: SweepParams
    chaos_kill_segment: Optional[str] = None


def run_pooled_sweep(task: PooledSweepTask) -> SweepOutcome:
    """Pool worker body: one sweep block against the shared payloads."""
    _maybe_chaos_exit(task.chaos_kill_segment)
    state = _worker_state()
    typing, assignment, weights = _worker_typing(task.typing_segment)
    return sweep_body(state["db"], typing, assignment, weights, task.params)


@dataclass(frozen=True)
class PooledReconcileTask:
    """Reconcile work order: a shard index plus the program segment."""

    index: int
    program_segment: str
    record_perf: bool = False
    chaos_kill_segment: Optional[str] = None


def run_pooled_reconcile(task: PooledReconcileTask) -> ReconcileOutcome:
    """Pool worker body: shard-restricted extents of the broadcast program.

    Evaluates
    :func:`~repro.core.fixpoint.greatest_fixpoint_restricted` of the
    (already quotiented) combined program over this shard's complex
    objects against the initializer's database — exact because shards
    are edge-closed unions of components — and returns the extents as
    compact uint32 arrays over the payload string table: ``offsets[i]``
    ..``offsets[i+1]`` bounds the members of the ``i``-th rule of the
    program (program order).
    """
    _maybe_chaos_exit(task.chaos_kill_segment)
    state = _worker_state()
    shards = state["shards"]
    if shards is None:
        raise RuntimeError("pool payload carries no shard partition")
    db = state["db"]
    program = _worker_program(task.program_segment)
    perf = PerfRecorder() if task.record_perf else None
    members = [obj for obj in shards[task.index] if db.is_complex(obj)]
    fixpoint = greatest_fixpoint_restricted(
        program, db, members, perf=perf
    )
    index_of = _worker_object_index()
    offsets = array("I", [0])
    extent_ids = array("I")
    for name in program.type_names():
        for obj in fixpoint.members(name):
            extent_ids.append(index_of[obj])
        offsets.append(len(extent_ids))
    return ReconcileOutcome(
        index=task.index,
        offsets=offsets.tobytes(),
        members=extent_ids.tobytes(),
        iterations=fixpoint.iterations,
        perf_snapshot=perf.to_dict() if perf is not None else None,
    )


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class SharedWorkerPool:
    """A persistent worker pool bound to one published payload.

    Parameters
    ----------
    jobs:
        Worker-process count (the executor's ``max_workers``).
    db:
        The database every task operates on; shipped once via the
        wire codec into shared memory.
    shard_objects:
        The Stage 1 partition's object sets (omit for sweep-only
        pools).
    perf:
        Recorder for the ``parallel.*`` counters (``task_bytes``,
        ``pickle_seconds``, ``payload_bytes``, ``pool_reuses``,
        ``pool_respawns``).
    """

    def __init__(
        self,
        jobs: int,
        db: Database,
        shard_objects: Optional[Sequence[FrozenSet[ObjectId]]] = None,
        perf: Optional[PerfRecorder] = None,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
    ) -> None:
        self._jobs = max(1, jobs)
        self._perf = _resolve_perf(perf)
        self._max_respawns = max_respawns
        started = time.perf_counter()
        payload, strings = codec.build_pool_payload(db, shard_objects)
        self._perf.add_time(
            "parallel.pickle_seconds", time.perf_counter() - started
        )
        self._strings = strings
        self._payload = shm.SharedPayload.create(payload)
        self._perf.incr("parallel.payload_bytes", len(payload))
        self._perf.incr("parallel.shm_segments")
        self._extra: Dict[str, shm.SharedPayload] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._runs = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        """Configured worker count."""
        return self._jobs

    @property
    def payload_segment(self) -> str:
        """Name of the initializer payload segment."""
        return self._payload.name

    @property
    def strings(self) -> Tuple[str, ...]:
        """The payload's interned string table (coordinator's copy).

        Reconcile outcomes index into this table; the coordinator maps
        the uint32 arrays back through it.
        """
        return self._strings

    def publish(self, key: str, data: bytes) -> str:
        """Publish a follow-up payload once; returns its segment name.

        Repeated calls with the same ``key`` (the sweep publishing the
        same Stage 1 typing for every block) reuse the first segment.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        payload = self._extra.get(key)
        if payload is None:
            payload = shm.SharedPayload.create(data)
            self._extra[key] = payload
            self._perf.incr("parallel.payload_bytes", len(data))
            self._perf.incr("parallel.shm_segments")
        return payload.name

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._jobs,
                initializer=_pool_initializer,
                initargs=(self._payload.name,),
            )
        return self._executor

    def _discard_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def run(
        self,
        tasks: Sequence[Any],
        fn: Callable[[Any], Any],
        budget: Optional[Budget] = None,
    ) -> List[Any]:
        """Run ``fn`` over ``tasks``; results come back in task order.

        Cancellation (the budget token) propagates as the token's
        exception after a fast shutdown.  A broken executor is
        respawned and only unfinished tasks resubmitted — completed
        outcomes survive the death of the worker that produced their
        siblings.  Non-pool worker exceptions propagate as-is.
        """
        self._runs += 1
        if self._runs > 1:
            self._perf.incr("parallel.pool_reuses")
        if self._perf.enabled and tasks:
            self._perf.incr(
                "parallel.task_bytes",
                sum(
                    len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
                    for task in tasks
                ),
            )
        token = budget.token if budget is not None else None
        results: List[Any] = [None] * len(tasks)
        finished = [False] * len(tasks)
        remaining = list(range(len(tasks)))
        respawns = 0
        while remaining:
            executor = self._ensure_executor()
            broken: Optional[BaseException] = None
            future_index = {}
            try:
                for i in remaining:
                    future_index[executor.submit(fn, tasks[i])] = i
            except (BrokenProcessPool, RuntimeError) as exc:
                broken = exc
            pending = set(future_index)
            while pending:
                done, pending = wait(
                    pending,
                    timeout=_POLL_INTERVAL if token is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = future_index[future]
                    try:
                        results[index] = future.result()
                        finished[index] = True
                    except BrokenProcessPool as exc:
                        broken = exc
                    except Exception:
                        # A real task error (not pool breakage): no
                        # retry would change it — drop the executor so
                        # siblings stop, and let the caller's fallback
                        # path decide.
                        self._discard_executor()
                        raise
                if token is not None and token.cancelled:
                    self._discard_executor()
                    token.raise_if_cancelled(
                        elapsed=(
                            budget.elapsed() if budget is not None else 0.0
                        ),
                        iterations=(
                            budget.iterations if budget is not None else 0
                        ),
                    )
            remaining = [i for i in remaining if not finished[i]]
            if remaining:
                if broken is None:
                    # Futures resolved without result or breakage can
                    # only mean cancellation raced us; treat as broken.
                    broken = BrokenProcessPool(
                        "pool tasks vanished without results"
                    )
                respawns += 1
                self._discard_executor()
                if respawns > self._max_respawns:
                    raise broken
                logger.warning(
                    "pool worker died (%s); respawning executor for %d "
                    "unfinished task(s), keeping %d completed result(s)",
                    broken, len(remaining), sum(finished),
                )
                self._perf.incr("parallel.pool_respawns")
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the executor down and unlink every published segment."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for payload in self._extra.values():
            payload.unlink()
        self._extra.clear()
        self._payload.unlink()

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
