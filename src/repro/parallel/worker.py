"""The worker side of the pool: its initializer and its task bodies.

Everything here runs in a :class:`~repro.parallel.pool.SharedWorkerPool`
worker, so it must stay module-level picklable:
``ProcessPoolExecutor`` pickles the callable and its task into the
worker, and the outcome back.

* **The database and the shard partition arrive once per worker**,
  through the executor's initializer (:func:`pool_initializer`).
  Under Linux's default ``fork`` start method the worker inherits them
  from the coordinator's memory; under ``spawn`` they are pickled once
  per worker, never per task.
* **A task carries only what differs between tasks**: a Stage 1 task
  its shard index, and it returns the shard's bisimulation classes
  (:func:`repro.parallel.merge.shard_classes`); a sweep task the
  Stage 1 typing plus its :class:`SweepParams`.
* **Distances travel by name** — ``delta_1``/``delta_4`` are closures
  over the hypercube dimension, so a sweep task carries the distance
  *name* and the worker looks it up in
  :func:`~repro.core.distance.named_distances` of its Stage 1's
  dimension count; callable distances force the sequential sweep.
* **Budgets travel by remaining allowance** — a
  :class:`~repro.runtime.budget.Budget` holds a ``threading.Event``
  token that cannot cross the process boundary, so sweep tasks carry
  the parent's remaining timeout/iterations and rebuild a local budget
  (Stage 1 tasks carry none: Stage 1 is the pipeline's mandatory
  minimum).  Cancellation is enforced parent-side by shutting the pool
  down.

Each worker runs its own :class:`~repro.perf.PerfRecorder` and ships
the ``to_dict`` snapshot home; the parent folds the snapshots in with
:meth:`~repro.perf.PerfRecorder.merge_dict` so ``--perf-report`` stays
truthful under parallelism.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.core.clustering import MergePolicy
from repro.core.distance import named_distances
from repro.core.perfect import PerfectTyping
from repro.core.recast import RecastMode
from repro.core.sensitivity import SensitivityPoint, sensitivity_sweep
from repro.exceptions import BudgetExceededError
from repro.graph.database import Database, ObjectId
from repro.parallel.merge import shard_classes
from repro.perf import PerfRecorder
from repro.runtime.budget import Budget

#: ``(database, shard partition)`` of this worker's pool, set by
#: :func:`pool_initializer`; module-global because pool entry points
#: must be importable module-level functions.
_POOL_DATA: Optional[
    Tuple[Database, Optional[Sequence[FrozenSet[ObjectId]]]]
] = None


def pool_initializer(
    db: Database, shard_objects: Optional[Sequence[FrozenSet[ObjectId]]]
) -> None:
    """Keep the pool's database and shard partition for this worker."""
    global _POOL_DATA
    _POOL_DATA = (db, shard_objects)


def _pool_database() -> Database:
    if _POOL_DATA is None:
        raise RuntimeError(
            "pool task executed in a worker without the pool initializer"
        )
    return _POOL_DATA[0]


def _pool_shard(index: int) -> FrozenSet[ObjectId]:
    shard_objects = _POOL_DATA[1] if _POOL_DATA is not None else None
    if shard_objects is None:
        raise RuntimeError("the pool was opened without a shard partition")
    return shard_objects[index]


def _maybe_chaos_exit(flag_file: Optional[str]) -> None:
    """Test hook: die hard (``os._exit``) when the flag file exists.

    The first task to unlink the flag kills its worker mid-pool, which
    is how the suite provokes ``BrokenProcessPool`` deterministically;
    ``unlink`` succeeds for exactly one task, so exactly one worker
    dies.
    """
    if flag_file is None:
        return
    try:
        os.unlink(flag_file)
    except FileNotFoundError:
        return
    os._exit(17)


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PooledStage1Task:
    """Stage 1 work order: a shard index into the pool's partition."""

    index: int
    local_rule_fn: Optional[Any] = None  #: module-level callable or None.
    record_perf: bool = False
    chaos_kill_file: Optional[str] = None


@dataclass(frozen=True)
class Stage1Outcome:
    """A shard's bisimulation classes plus the worker's perf snapshot."""

    index: int
    representative: Dict[ObjectId, ObjectId]
    class_db: Database
    perf_snapshot: Optional[Dict[str, Any]] = None


def run_pooled_stage1(task: PooledStage1Task) -> Stage1Outcome:
    """Worker body: the bisimulation classes of one shard
    (:func:`repro.parallel.merge.shard_classes`)."""
    _maybe_chaos_exit(task.chaos_kill_file)
    perf = PerfRecorder() if task.record_perf else None
    representative, class_db = shard_classes(
        _pool_database(), _pool_shard(task.index), task.local_rule_fn, perf
    )
    return Stage1Outcome(
        index=task.index,
        representative=representative,
        class_db=class_db,
        perf_snapshot=perf.to_dict() if perf is not None else None,
    )


# ---------------------------------------------------------------------------
# Sensitivity sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepParams:
    """A sweep block's knobs: the sequential sweep's, plus its samples."""

    index: int
    distance_name: str
    policy: MergePolicy
    allow_empty_type: bool
    empty_weight: Optional[float]
    mode: RecastMode
    fallback: str
    sample_at: Tuple[int, ...]
    timeout: Optional[float] = None  #: parent's *remaining* seconds.
    max_iterations: Optional[int] = None  #: parent's *remaining* units.
    use_bitset: bool = True
    record_perf: bool = False


@dataclass(frozen=True)
class PooledSweepTask:
    """Sweep work order: the Stage 1 typing plus the block's params."""

    stage1: PerfectTyping
    params: SweepParams
    chaos_kill_file: Optional[str] = None


@dataclass(frozen=True)
class SweepOutcome:
    """One worker's sampled points, merge trace and consumed budget."""

    index: int
    points: Tuple[SensitivityPoint, ...]
    exhausted: bool
    iterations: int  #: work units the worker charged its local budget.
    perf_snapshot: Optional[Dict[str, Any]] = None
    #: the ``(absorber, absorbed)`` merges the worker executed.
    trace: Tuple[Tuple[str, str], ...] = ()


def run_pooled_sweep(task: PooledSweepTask) -> SweepOutcome:
    """Worker body: one block of the Figure 6 sweep.

    The worker replays the deterministic merge sequence from the full
    Stage 1 program down to ``min(params.sample_at)``, records a point
    at each requested ``k`` and returns the merges it executed.  Budget
    exhaustion never propagates as an exception: the worker returns
    whatever prefix of its block it managed, flagged ``exhausted`` —
    mirroring the sequential sweep's best-so-far contract — and
    reports the units it consumed so the parent can charge them against
    the real budget.
    """
    _maybe_chaos_exit(task.chaos_kill_file)
    params = task.params
    stage1 = task.stage1
    perf = PerfRecorder() if params.record_perf else None
    budget: Optional[Budget] = None
    if params.timeout is not None or params.max_iterations is not None:
        budget = Budget(
            timeout=params.timeout, max_iterations=params.max_iterations
        ).start()
    dimensions = len(stage1.program.typed_links())
    points: Tuple[SensitivityPoint, ...] = ()
    trace: Tuple[Tuple[str, str], ...] = ()
    exhausted = False
    try:
        result = sensitivity_sweep(
            _pool_database(),
            stage1=stage1,
            distance=named_distances(dimensions)[params.distance_name],
            policy=params.policy,
            allow_empty_type=params.allow_empty_type,
            empty_weight=params.empty_weight,
            mode=params.mode,
            fallback=params.fallback,
            min_k=min(params.sample_at),
            budget=budget,
            perf=perf,
            sample_at=params.sample_at,
            use_bitset=params.use_bitset,
        )
        points = result.points
        trace = result.trace
        exhausted = result.exhausted
    except BudgetExceededError:
        # Not even the block's first sample completed.
        exhausted = True
    return SweepOutcome(
        index=params.index,
        points=points,
        exhausted=exhausted,
        iterations=budget.iterations if budget is not None else 0,
        perf_snapshot=perf.to_dict() if perf is not None else None,
        trace=trace,
    )
