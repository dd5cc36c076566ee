"""The worker pool behind ``--jobs N``.

One :class:`SharedWorkerPool` serves one public call (an extraction or
a sweep) and carries every parallel phase of it: the Stage 1 shards
and the sweep blocks (``parallel.pool_reuses`` counts the reuse).  It
is a plain ``ProcessPoolExecutor`` whose initializer hands every
worker the database and the shard partition
(:func:`~repro.parallel.worker.pool_initializer`): under Linux's
default ``fork`` start method the workers inherit both, under
``spawn`` they are pickled once per worker.  Tasks carry only what
differs between them (see :mod:`repro.parallel.worker`);
``parallel.task_bytes`` records how much.

A run starts no more workers than it has tasks: ``jobs`` caps the
count, and a fork-context executor starts all of its workers at the
first submit, so the executor is sized to the run.  A later run with
more tasks (the sweep's blocks after a two-shard Stage 1) replaces it
with a larger one.

Worker death is survivable: when the executor breaks
(``BrokenProcessPool``), results already returned are kept, the
executor is respawned (same initializer) and only the unfinished tasks
are resubmitted — ``parallel.pool_respawns`` counts it, and after
:data:`DEFAULT_MAX_RESPAWNS` consecutive failures the error propagates
so the extractor's sequential fallback (``parallel.pool_fallbacks``)
takes over.  Cancellation is enforced parent-side: the budget token is
polled between future completions and trips a fast shutdown.

``close()`` shuts the executor down and joins its workers; callers
hold the pool in ``with`` (or ``try``/``finally``), so SIGINT unwinds
through the same join, and a respawn joins the broken executor's
workers before it starts new ones.  Only a cancelled run, or one whose
task raised, drops its executor without waiting: those workers exit
once their in-flight task ends.
``--jobs 1`` never constructs a pool.
"""

from __future__ import annotations

import logging
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, FrozenSet, List, Optional, Sequence

from repro.graph.database import Database, ObjectId
from repro.parallel.worker import pool_initializer
from repro.perf import PerfRecorder, resolve as _resolve_perf
from repro.runtime.budget import Budget

logger = logging.getLogger("repro.parallel")

#: Seconds between cancellation polls while futures are in flight.
_POLL_INTERVAL = 0.1

#: Consecutive executor breakages tolerated before giving up.
DEFAULT_MAX_RESPAWNS = 2


class SharedWorkerPool:
    """A persistent worker pool over one database.

    Parameters
    ----------
    jobs:
        The most worker processes a run may use; a run starts no more
        than it has tasks.
    db:
        The database every task operates on; handed to each worker
        once, through the executor's initializer.
    shard_objects:
        The Stage 1 partition's object sets (omit for sweep-only
        pools).
    perf:
        Recorder for the ``parallel.*`` counters (``task_bytes``,
        ``pool_reuses``, ``pool_respawns``).
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
        self._initargs = (db, shard_objects)
        self._perf = _resolve_perf(perf)
        self._max_respawns = max_respawns
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._runs = 0
        self._closed = False

    @property
    def jobs(self) -> int:
        """Configured worker count."""
        return self._jobs

    # ------------------------------------------------------------------
    def _ensure_executor(self, tasks: int) -> ProcessPoolExecutor:
        """An executor of ``min(jobs, tasks)`` workers or more; a
        smaller idle one is joined and replaced (see the module doc)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        workers = min(self._jobs, tasks)
        if self._executor is not None and self._workers < workers:
            self._discard_executor(wait=True)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=pool_initializer,
                initargs=self._initargs,
            )
            self._workers = workers
        return self._executor

    def _discard_executor(self, wait: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
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
            executor = self._ensure_executor(len(remaining))
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
                # The broken executor has already terminated its
                # workers; joining them here keeps a respawn from
                # leaving a live process behind.
                self._discard_executor(wait=True)
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
        """Shut the executor down and join its workers."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
