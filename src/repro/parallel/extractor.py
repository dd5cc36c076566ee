"""Multi-process extraction: Stage 1 and the sweep on a worker pool.

:class:`ParallelExtractor` is a
:class:`~repro.core.pipeline.SchemaExtractor` that overrides two steps:

* **Stage 1** is sharded along weakly-connected components
  (:mod:`repro.graph.partition`): each pool worker computes one
  shard's bisimulation classes, and the coordinator runs Stage 1's
  GFP and collapse on their union (:mod:`repro.parallel.merge`) —
  equal to the sequential result in every field;
* **the sensitivity sweep** is split into contiguous blocks of ``k``
  samples, one block per worker, each worker replaying the (fully
  deterministic) merge sequence down through its block.

Everything else is inherited: Stages 2 and 3 (one inherently serial
greedy loop), checkpoint/resume and every degradation path.  ``jobs=1``
runs both steps sequentially and never opens a pool; with ``jobs>1`` a
single-component database still types Stage 1 in-process (see
``docs/PARALLELISM.md`` for when ``--jobs`` helps vs. hurts).

With ``jobs>1`` one :class:`~repro.parallel.pool.SharedWorkerPool` per
public call carries both steps (``parallel.pool_reuses``): its workers
receive the database and the partition once, through the executor's
initializer, so a Stage 1 task is a shard index and a sweep task the
Stage 1 typing plus the block's params.  The pool opens at the first
pooled step and closes when the call returns.

Budgets and cancellation: Stage 1 remains the pipeline's mandatory
minimum, so workers run it unbudgeted; the coordinator polls the
budget's :class:`~repro.runtime.budget.CancellationToken` between
future completions and shuts the pool down on cancellation, after
which the sequential Stage 1 runs and ``extract`` degrades as usual.
Sweep workers receive the coordinator's *remaining* allowance as a
local budget (best effort — each worker may use up to the full
remainder) and report the units they consumed, which the coordinator
charges back into the real budget; ``extract`` degrades a truncated
pooled sweep exactly like a sequential one.
"""

from __future__ import annotations

import functools
import logging
import os
from contextlib import contextmanager
from typing import FrozenSet, Iterator, List, Optional, Sequence, Union

from repro.core.clustering import MergePolicy
from repro.core.perfect import PerfectTyping, minimal_perfect_typing
from repro.core.pipeline import SchemaExtractor
from repro.core.recast import RecastMode
from repro.core.sensitivity import (
    SensitivityPoint,
    SensitivityResult,
    sample_grid,
)
from repro.exceptions import (
    BudgetExceededError,
    ExecutionInterruptedError,
    ReproError,
)
from repro.graph.database import Database, ObjectId
from repro.graph.partition import Shard, partition_database
from repro.perf import PerfRecorder, resolve as _resolve_perf
from repro.runtime.budget import Budget
from repro.parallel.merge import merge_shard_typings
from repro.parallel.pool import SharedWorkerPool
from repro.parallel.worker import (
    PooledStage1Task,
    PooledSweepTask,
    SweepParams,
    run_pooled_stage1,
    run_pooled_sweep,
)

logger = logging.getLogger("repro.parallel")


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Resolve a ``--jobs`` value (an int, or ``"auto"``) to a count.

    ``"auto"`` means ``os.cpu_count()``; the pool never starts more
    workers than a run has tasks (shards or sweep blocks).
    """
    if jobs == "auto":
        return max(1, os.cpu_count() or 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ReproError(f"jobs must be an int or 'auto', got {jobs!r}")
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    return jobs


@contextmanager
def _pool_for(
    pool: Optional[SharedWorkerPool],
    jobs: int,
    db: Database,
    shard_objects: Optional[Sequence[FrozenSet[ObjectId]]],
    perf: Optional[PerfRecorder],
) -> Iterator[SharedWorkerPool]:
    """``pool`` itself, or a pool of the call's own, closed on exit."""
    if pool is not None:
        yield pool
        return
    with SharedWorkerPool(
        jobs=jobs, db=db, shard_objects=shard_objects, perf=perf
    ) as own:
        yield own


def parallel_stage1(
    db: Database,
    jobs: int,
    shards: Optional[Sequence[Shard]] = None,
    max_shard_objects: Optional[int] = None,
    local_rule_fn=None,
    budget: Optional[Budget] = None,
    perf: Optional[PerfRecorder] = None,
    pool: Optional[SharedWorkerPool] = None,
) -> PerfectTyping:
    """Stage 1 across a worker pool; equal to the sequential Stage 1.

    Each worker computes one shard's bisimulation classes and the
    coordinator runs Stage 1's GFP and collapse on their union
    (:mod:`repro.parallel.merge`).  Falls back to the in-process
    sequential path when the partition degenerates to a single shard
    (one giant component) or ``jobs`` is 1.  Stage 1 is the mandatory
    minimum, so workers run without a budget; only cancellation is
    enforced (parent-side).

    The shard sub-databases never cross the process boundary: workers
    carve each shard out of the pool's database, and a task is just
    the shard index.  ``pool`` must have been opened over ``shards``;
    without one the call opens (and closes) a pool of its own.
    """
    recorder = _resolve_perf(perf)
    if shards is None:
        shards = partition_database(db, jobs, max_objects=max_shard_objects)
    if jobs <= 1 or len(shards) <= 1:
        with recorder.span("pipeline.stage1"):
            return minimal_perfect_typing(
                db, local_rule_fn=local_rule_fn, perf=perf
            )
    recorder.incr("parallel.shards", len(shards))
    recorder.peak(
        "parallel.peak_shard_objects", max(len(shard) for shard in shards)
    )
    shard_objects = [shard.objects for shard in shards]
    with recorder.span("pipeline.stage1"), _pool_for(
        pool, jobs, db, shard_objects, perf
    ) as pool:
        try:
            tasks = [
                PooledStage1Task(
                    index=shard.index,
                    local_rule_fn=local_rule_fn,
                    record_perf=recorder.enabled,
                )
                for shard in shards
            ]
            outcomes = pool.run(tasks, run_pooled_stage1, budget)
        except ExecutionInterruptedError:
            raise  # cancellation/budget: the caller decides how to degrade
        except Exception as exc:
            # A worker died mid-shard (BrokenProcessPool, a pickling
            # failure, a raising local_rule_fn...).  Stage 1 is the
            # pipeline's mandatory minimum, so rather than surfacing a
            # pool-shaped error we redo it sequentially in-process —
            # deterministic failures will re-raise there with a clean
            # traceback, transient worker deaths are healed.
            logger.warning(
                "parallel stage1 worker failed (%s: %s); "
                "falling back to sequential stage1",
                type(exc).__name__, exc,
            )
            recorder.incr("parallel.pool_fallbacks")
            return minimal_perfect_typing(
                db, local_rule_fn=local_rule_fn, perf=perf
            )
        for outcome in outcomes:
            if outcome.perf_snapshot is not None:
                recorder.merge_dict(outcome.perf_snapshot)
        logger.info(
            "parallel stage1: %d shard(s) -> %d shard class(es)",
            len(shards), sum(o.class_db.num_complex for o in outcomes),
        )
        classes = [(o.representative, o.class_db) for o in outcomes]
        return merge_shard_typings(
            db, classes, local_rule_fn=local_rule_fn, perf=perf
        )


def _chunk_blocks(ks_descending: List[int], jobs: int) -> List[List[int]]:
    """Split a descending ``k`` list into contiguous per-worker blocks."""
    count = min(jobs, len(ks_descending))
    size, extra = divmod(len(ks_descending), count)
    blocks: List[List[int]] = []
    start = 0
    for index in range(count):
        end = start + size + (1 if index < extra else 0)
        blocks.append(ks_descending[start:end])
        start = end
    return blocks


def parallel_sweep(
    db: Database,
    stage1: PerfectTyping,
    jobs: int,
    distance_name: str = "delta_2",
    policy: MergePolicy = MergePolicy.ABSORB,
    allow_empty_type: bool = False,
    empty_weight: Optional[float] = None,
    mode: RecastMode = RecastMode.HOME_GUIDED,
    fallback: str = "closest",
    min_k: int = 1,
    max_k: Optional[int] = None,
    step: int = 1,
    budget: Optional[Budget] = None,
    perf: Optional[PerfRecorder] = None,
    use_bitset: bool = True,
    pool: Optional[SharedWorkerPool] = None,
) -> SensitivityResult:
    """The Figure 6 sweep, with sample blocks fanned out to workers.

    Every worker replays the same deterministic merge sequence from the
    full Stage 1 program down through its contiguous block of sampled
    ``k`` values, so the union of the blocks is point-for-point equal
    to the sequential sweep, and the longest of the blocks' merge traces
    is the sequential sweep's trace down to the lowest ``k`` reached.

    Budgeting is best-effort: each worker gets the parent's *remaining*
    allowance, and the units workers consumed are charged back into
    ``budget`` afterwards (so later stages see the spend).  Like the
    sequential sweep, exhaustion returns the partial curve flagged
    ``exhausted`` — unless not a single point was sampled, which raises.

    Without a ``pool`` the call opens (and closes) a pool of its own.
    """
    recorder = _resolve_perf(perf)
    if budget is not None:
        budget.start()
    sample_ks = sample_grid(stage1.num_types, min_k, max_k, step)
    blocks = _chunk_blocks(sorted(sample_ks, reverse=True), jobs)
    recorder.incr("parallel.sweep_blocks", len(blocks))
    allowance = budget.child() if budget is not None else None
    params = [
        SweepParams(
            index=index,
            distance_name=distance_name,
            policy=policy,
            allow_empty_type=allow_empty_type,
            empty_weight=empty_weight,
            mode=mode,
            fallback=fallback,
            sample_at=tuple(block),
            timeout=(
                allowance.timeout if allowance is not None else None
            ),
            max_iterations=(
                allowance.max_iterations if allowance is not None else None
            ),
            use_bitset=use_bitset,
            record_perf=recorder.enabled,
        )
        for index, block in enumerate(blocks)
    ]
    tasks = [PooledSweepTask(stage1=stage1, params=p) for p in params]
    with _pool_for(pool, jobs, db, None, perf) as pool:
        outcomes = pool.run(tasks, run_pooled_sweep, budget)

    consumed = sum(outcome.iterations for outcome in outcomes)
    if budget is not None and consumed:
        try:
            budget.charge(consumed)
        except ExecutionInterruptedError:
            pass  # sticky: the spend is recorded, callers degrade later
    for outcome in outcomes:
        if outcome.perf_snapshot is not None:
            recorder.merge_dict(outcome.perf_snapshot)

    points: List[SensitivityPoint] = []
    for outcome in outcomes:
        points.extend(outcome.points)
    exhausted = any(outcome.exhausted for outcome in outcomes)
    if not points:
        if budget is not None:
            budget.check()  # sticky: raises the limit the workers hit
        raise BudgetExceededError(
            "parallel sweep sampled no points before the budget ran out",
            reason="iterations",
            elapsed=budget.elapsed() if budget is not None else 0.0,
            iterations=budget.iterations if budget is not None else 0,
        )
    points.sort(key=lambda point: point.k)
    logger.info(
        "parallel sweep: %d point(s) from %d block(s)%s",
        len(points), len(blocks), " (exhausted)" if exhausted else "",
    )
    # Every block walks the same merge sequence, so the trace of the
    # block that reached the lowest k holds every other block's.
    return SensitivityResult(
        points=tuple(points),
        exhausted=exhausted,
        trace=max((outcome.trace for outcome in outcomes), key=len),
    )


def _in_pool(method):
    """``method`` run inside the extractor's pool scope."""

    @functools.wraps(method)
    def in_pool(self, *args, **kwargs):
        with self._pool_scope():
            return method(self, *args, **kwargs)

    return in_pool


class ParallelExtractor(SchemaExtractor):
    """A :class:`SchemaExtractor` whose Stage 1 and sweep run on a pool.

    Parameters
    ----------
    jobs:
        Worker-process count, or ``"auto"`` for ``os.cpu_count()``
        (the pool starts no more workers than a run has tasks, so
        Stage 1 forks at most one per shard).  ``1`` (the default)
        runs every step sequentially.
    max_shard_objects:
        Optional cap on complex objects per Stage 1 shard (see
        :func:`repro.graph.partition.partition_database`).
    options:
        Every :class:`SchemaExtractor` knob, ``stage1=`` injection
        included.

    Only the Stage 1 step and the sweep step are overridden; Stages 2
    and 3, checkpoint/resume and every degradation path are the
    inherited ones.  The sweep runs on the pool only with a named
    distance and neither roles nor a prior (those reshape the Stage 2
    starting point); otherwise it is the sequential sweep.  Custom
    local-rule closures must be module-level to cross the process
    boundary.
    """

    def __init__(
        self,
        db: Database,
        jobs: Union[int, str] = 1,
        max_shard_objects: Optional[int] = None,
        **options,
    ) -> None:
        super().__init__(db, **options)
        self._jobs = resolve_jobs(jobs)
        self._max_shard_objects = max_shard_objects
        self._shards: Optional[List[Shard]] = None
        self._pool: Optional[SharedWorkerPool] = None
        self._in_call = False

    @property
    def jobs(self) -> int:
        """The resolved worker count (``"auto"`` already expanded)."""
        return self._jobs

    def shards(self) -> List[Shard]:
        """The Stage 1 partition (cached across calls)."""
        if self._shards is None:
            self._shards = partition_database(
                self._db, self._jobs, max_objects=self._max_shard_objects
            )
        return self._shards

    # ------------------------------------------------------------------
    # One pool per public call
    # ------------------------------------------------------------------
    @contextmanager
    def _pool_scope(self) -> Iterator[None]:
        """Close, when the outermost public call returns, the pool a
        step opened during it.

        Nested public calls (``extract_within_defect`` runs ``sweep``
        and ``extract``) share the pool.  The ``finally`` joins every
        worker, on normal exit and on SIGINT alike.
        """
        if self._in_call:
            yield
            return
        self._in_call = True
        try:
            yield
        finally:
            self._in_call = False
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()

    def _call_pool(self) -> SharedWorkerPool:
        """The current call's pool, opened on first use."""
        if self._pool is None:
            shards = self.shards()
            self._pool = SharedWorkerPool(
                jobs=self._jobs,
                db=self._db,
                shard_objects=(
                    [shard.objects for shard in shards]
                    if len(shards) > 1 else None
                ),
                perf=self._perf,
            )
        return self._pool

    def stage1(self, budget: Optional[Budget] = None) -> PerfectTyping:
        """The Stage 1 result (cached across calls)."""
        with self._pool_scope():
            return self._stage1_step(budget)

    sweep = _in_pool(SchemaExtractor.sweep)
    extract = _in_pool(SchemaExtractor.extract)
    extract_within_defect = _in_pool(SchemaExtractor.extract_within_defect)

    # ------------------------------------------------------------------
    # The two pooled steps
    # ------------------------------------------------------------------
    def _stage1_step(self, budget: Optional[Budget]) -> PerfectTyping:
        """Stage 1 sharded over the call's pool.

        The coordinator polls the budget's cancellation token; an
        interruption falls back to the sequential step, after which
        ``extract`` degrades the usual way.
        """
        if self._stage1 is None and self._jobs > 1:
            try:
                self._stage1 = parallel_stage1(
                    self._db,
                    jobs=self._jobs,
                    shards=self.shards(),
                    local_rule_fn=self._local_rule_fn,
                    budget=budget,
                    perf=self._perf,
                    pool=self._call_pool(),
                )
            except ExecutionInterruptedError as exc:
                logger.warning(
                    "parallel stage1 interrupted (%s); degrading "
                    "sequentially", exc,
                )
        return super()._stage1_step(budget)

    def _sweep_step(
        self, min_k: int, step: int, budget: Optional[Budget]
    ) -> SensitivityResult:
        """The sweep's sample blocks fanned out over the call's pool.

        An interruption propagates to ``extract``, which degrades it
        like a sequential sweep's; a worker failure reruns the sweep
        sequentially.
        """
        if (
            self._jobs == 1
            or not isinstance(self._distance_spec, str)
            or self._use_roles
            or self._prior is not None
        ):
            return super()._sweep_step(min_k, step, budget)
        stage1 = self._stage1_step(budget)
        self._resolve_distance(stage1)  # an unknown name fails here
        try:
            return parallel_sweep(
                self._db,
                stage1,
                jobs=self._jobs,
                distance_name=self._distance_spec,
                policy=self._policy,
                allow_empty_type=self._allow_empty,
                empty_weight=self._empty_weight,
                mode=self._recast_mode,
                fallback=self._fallback,
                min_k=min_k,
                step=step,
                budget=budget,
                perf=self._perf,
                use_bitset=self._use_bitset,
                pool=self._call_pool(),
            )
        except ExecutionInterruptedError:
            raise
        except Exception as exc:
            logger.warning(
                "parallel sweep worker failed (%s: %s); "
                "falling back to sequential sweep",
                type(exc).__name__, exc,
            )
            self._perf.incr("parallel.pool_fallbacks")
            return super()._sweep_step(min_k, step, budget)
