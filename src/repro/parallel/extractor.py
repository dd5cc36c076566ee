"""Multi-process extraction: parallel Stage 1 and parallel sweep.

:class:`ParallelExtractor` is the drop-in multi-core front end to
:class:`~repro.core.pipeline.SchemaExtractor`:

* **Stage 1** is sharded along weakly-connected components
  (:mod:`repro.graph.partition`), each shard typed in a
  ``ProcessPoolExecutor`` worker, and the shard typings reconciled
  into one global :class:`~repro.core.perfect.PerfectTyping`
  (:mod:`repro.parallel.merge`) — extent-identical to the sequential
  result, differing only in the ``q_iterations`` diagnostic;
* **the sensitivity sweep** is split into contiguous blocks of ``k``
  samples, one block per worker, each worker replaying the (fully
  deterministic) merge sequence down through its block;
* **Stages 2 and 3 stay sequential and global** — the greedy merge is
  one inherently serial greedy loop — by handing the merged Stage 1 to a
  plain :class:`SchemaExtractor` via its ``stage1=`` injection point.

``jobs=1`` never touches a pool: every call delegates straight to the
sequential extractor, byte-identical by construction.  With ``jobs>1``
a single-component database falls back to the same sequential path
(see ``docs/PARALLELISM.md`` for when ``--jobs`` helps vs. hurts).

With ``jobs>1`` one :class:`~repro.parallel.pool.SharedWorkerPool`
per public call carries every parallel phase (``parallel.pool_reuses``):
its workers receive the database and the partition once, through the
executor's initializer, so a Stage 1 task is a shard index, a
reconcile task a shard index plus the quotient program, and a sweep
task the Stage 1 typing plus the block's params.

Budgets and cancellation: Stage 1 remains the pipeline's mandatory
minimum, so workers run it unbudgeted; the parent polls the budget's
:class:`~repro.runtime.budget.CancellationToken` between future
completions and shuts the pool down on cancellation.  Sweep workers
receive the parent's *remaining* allowance as a local budget (best
effort — each worker may use up to the full remainder) and report the
units they consumed, which the parent charges back into the real
budget.  When a parallel phase is interrupted, ``extract`` falls back
to the sequential pipeline, whose sticky budget degrades it gracefully
to the usual best-so-far partial result.
"""

from __future__ import annotations

import dataclasses
import logging
import os
from contextlib import contextmanager
from typing import FrozenSet, Iterator, List, Optional, Sequence, Union

from repro.core.clustering import MergePolicy
from repro.core.perfect import PerfectTyping, minimal_perfect_typing
from repro.core.pipeline import (
    ExtractionResult,
    SchemaExtractor,
    _budget_failure,
)
from repro.core.prior import PriorKnowledge
from repro.core.recast import RecastMode
from repro.core.sensitivity import (
    SensitivityPoint,
    SensitivityResult,
)
from repro.core.distance import WeightedDistance
from repro.core.typing_program import TypingProgram
from repro.exceptions import (
    BudgetExceededError,
    ClusteringError,
    ExecutionInterruptedError,
    ReproError,
)
from repro.graph.database import Database, ObjectId
from repro.graph.partition import Shard, partition_database
from repro.perf import PerfRecorder, resolve as _resolve_perf
from repro.runtime.budget import Budget, DegradationReport
from repro.runtime.checkpoint import Checkpoint
from repro.parallel.merge import (
    ReconcileFn,
    merge_shard_typings,
    quotient_reconcile,
)
from repro.parallel.pool import SharedWorkerPool
from repro.parallel.worker import (
    PooledReconcileTask,
    PooledStage1Task,
    PooledSweepTask,
    SweepParams,
    run_pooled_reconcile,
    run_pooled_stage1,
    run_pooled_sweep,
)

logger = logging.getLogger("repro.parallel")


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Resolve a ``--jobs`` value (an int, or ``"auto"``) to a count.

    ``"auto"`` means ``os.cpu_count()`` — the partitioner then caps
    effective parallelism by the shard count, although the pool starts
    all ``jobs`` workers at its first task.
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


def _pooled_reconcile(
    pool: SharedWorkerPool,
    shard_indexes: Sequence[int],
    recorder: PerfRecorder,
) -> ReconcileFn:
    """The distributed reconcile pass over a live worker pool.

    :func:`~repro.parallel.merge.quotient_reconcile` with one
    :class:`~repro.parallel.worker.PooledReconcileTask` per shard
    fanned out to the already-warm workers; each task carries the
    quotient program and returns its shard's restricted extents.
    """

    def shard_fixpoints(quotient: TypingProgram, gfp_budget):
        tasks = [
            PooledReconcileTask(
                index=index, program=quotient, record_perf=recorder.enabled
            )
            for index in shard_indexes
        ]
        with recorder.span("parallel.reconcile_fanout"):
            outcomes = pool.run(tasks, run_pooled_reconcile, gfp_budget)
        for outcome in outcomes:
            if outcome.perf_snapshot is not None:
                recorder.merge_dict(outcome.perf_snapshot)
        return [(outcome.extents, outcome.iterations) for outcome in outcomes]

    return quotient_reconcile(shard_fixpoints, recorder)


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
    """Stage 1 across a worker pool; extent-identical to sequential.

    Falls back to the in-process sequential path when the partition
    degenerates to a single shard (one giant component) or ``jobs``
    is 1.  Stage 1 is the mandatory minimum, so workers run without a
    budget; only cancellation is enforced (parent-side).

    The shard sub-databases never cross the process boundary: workers
    carve each shard out of the pool's database, and a task is just
    the shard index.  The reconcile GFP is distributed over the same
    pool (see :func:`_pooled_reconcile`).  ``pool`` must have been
    opened over ``shards``; without one the call opens (and closes) a
    pool of its own.
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
        typings = [outcome.typing for outcome in outcomes]
        logger.info(
            "parallel stage1: %d shard(s) -> %d shard type(s)",
            len(shards), sum(t.num_types for t in typings),
        )
        return merge_shard_typings(
            db, typings, local_rule_fn=local_rule_fn, budget=budget,
            perf=perf,
            reconcile=_pooled_reconcile(
                pool, [shard.index for shard in shards], recorder
            ),
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
    mode: RecastMode = RecastMode.HOME_GUIDED,
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
    to the sequential sweep.

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
    n = stage1.num_types
    if max_k is None or max_k > n:
        max_k = n
    min_k = max(1, min_k)
    sample_ks = set(range(min_k, max_k + 1, step))
    sample_ks.add(min_k)
    sample_ks.add(max_k)
    blocks = _chunk_blocks(sorted(sample_ks, reverse=True), jobs)
    recorder.incr("parallel.sweep_blocks", len(blocks))
    allowance = budget.child() if budget is not None else None
    params = [
        SweepParams(
            index=index,
            distance_name=distance_name,
            dimensions=len(stage1.program.typed_links()),
            policy=policy,
            allow_empty_type=allow_empty_type,
            mode=mode,
            sample_at=tuple(block),
            frozen=None,
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
    return SensitivityResult(points=tuple(points), exhausted=exhausted)


class ParallelExtractor:
    """Multi-core drop-in for :class:`SchemaExtractor` (``--jobs N``).

    Accepts the sequential extractor's knobs plus:

    Parameters
    ----------
    jobs:
        Worker-process count, or ``"auto"`` for ``os.cpu_count()``
        (effective parallelism is further capped by the shard count,
        although the pool starts all ``jobs`` workers).  ``1``
        (the default) delegates every call to the sequential extractor
        unchanged.
    max_shard_objects:
        Optional cap on complex objects per Stage 1 shard (see
        :func:`repro.graph.partition.partition_database`).
    stage1:
        A precomputed Stage 1 typing to inject (same contract as the
        sequential extractor's ``stage1=``), skipping the parallel
        Stage 1 entirely.

    Restrictions: the parallel *sweep* path needs a named distance and
    no roles/prior transforms (those reshape the Stage 2 starting
    point); configurations outside that envelope silently use the
    sequential sweep while still parallelising Stage 1.  Callable
    distances and custom local-rule closures must be module-level to
    cross the process boundary.
    """

    def __init__(
        self,
        db: Database,
        jobs: Union[int, str] = 1,
        distance: Union[str, WeightedDistance] = "delta_2",
        policy: MergePolicy = MergePolicy.ABSORB,
        use_roles: bool = False,
        allow_empty_type: bool = False,
        empty_weight: Optional[float] = None,
        recast_mode: RecastMode = RecastMode.HOME_GUIDED,
        fallback: str = "closest",
        prior: Optional[PriorKnowledge] = None,
        local_rule_fn=None,
        use_bitset: bool = True,
        max_shard_objects: Optional[int] = None,
        stage1: Optional[PerfectTyping] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self._db = db
        self._jobs = resolve_jobs(jobs)
        self._distance_spec = distance
        self._policy = policy
        self._use_roles = use_roles
        self._allow_empty = allow_empty_type
        self._empty_weight = empty_weight
        self._recast_mode = recast_mode
        self._fallback = fallback
        self._prior = prior
        self._local_rule_fn = local_rule_fn
        self._use_bitset = use_bitset
        self._max_shard_objects = max_shard_objects
        self._perf = _resolve_perf(perf)
        self._stage1: Optional[PerfectTyping] = stage1
        self._shards: Optional[List[Shard]] = None
        self._pool: Optional[SharedWorkerPool] = None

    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        """The resolved worker count (``"auto"`` already expanded)."""
        return self._jobs

    def _open_pool(self) -> Optional[SharedWorkerPool]:
        """The persistent pool, or ``None`` when ``jobs`` is 1."""
        if self._jobs <= 1:
            return None
        shards = self.shards()
        return SharedWorkerPool(
            jobs=self._jobs,
            db=self._db,
            shard_objects=(
                [shard.objects for shard in shards]
                if len(shards) > 1 else None
            ),
            perf=self._perf if self._perf.enabled else None,
        )

    @contextmanager
    def _pool_scope(self) -> Iterator[Optional[SharedWorkerPool]]:
        """One pool per outermost public call, reused by nested phases.

        ``extract`` opens the pool once and ``stage1``/``sweep`` reuse
        it; the opener's ``finally`` closes it, which unlinks every
        shared segment — the normal-exit *and* SIGINT cleanup path
        (KeyboardInterrupt unwinds through the same ``finally``).
        """
        if self._pool is not None:
            yield self._pool
            return
        pool = self._open_pool()
        self._pool = pool
        try:
            yield pool
        finally:
            self._pool = None
            if pool is not None:
                pool.close()

    def shards(self) -> List[Shard]:
        """The Stage 1 partition (cached across calls)."""
        if self._shards is None:
            self._shards = partition_database(
                self._db, self._jobs, max_objects=self._max_shard_objects
            )
        return self._shards

    def stage1(self, budget: Optional[Budget] = None) -> PerfectTyping:
        """The (parallel) Stage 1 result, cached across calls."""
        if self._stage1 is None:
            with self._pool_scope() as pool:
                self._stage1 = parallel_stage1(
                    self._db,
                    jobs=self._jobs,
                    shards=self.shards() if self._jobs > 1 else None,
                    local_rule_fn=self._local_rule_fn,
                    budget=budget,
                    perf=self._perf if self._perf.enabled else None,
                    pool=pool,
                )
        return self._stage1

    def _sequential(self) -> SchemaExtractor:
        """A sequential extractor sharing this one's state and knobs."""
        return SchemaExtractor(
            self._db,
            distance=self._distance_spec,
            policy=self._policy,
            use_roles=self._use_roles,
            allow_empty_type=self._allow_empty,
            empty_weight=self._empty_weight,
            recast_mode=self._recast_mode,
            fallback=self._fallback,
            prior=self._prior,
            local_rule_fn=self._local_rule_fn,
            stage1=self._stage1,
            use_bitset=self._use_bitset,
            perf=self._perf if self._perf.enabled else None,
        )

    def _can_parallel_sweep(self) -> bool:
        """Whether the sweep itself may be fanned out (see class doc)."""
        return (
            self._jobs > 1
            and isinstance(self._distance_spec, str)
            and not self._use_roles
            and self._prior is None
        )

    # ------------------------------------------------------------------
    def sweep(
        self,
        min_k: int = 1,
        step: int = 1,
        budget: Optional[Budget] = None,
    ) -> SensitivityResult:
        """The Figure 6 sweep (parallel when the configuration allows)."""
        if self._jobs == 1:
            return self._sequential().sweep(
                min_k=min_k, step=step, budget=budget
            )
        if budget is not None:
            budget.start()
        with self._pool_scope() as pool:
            stage1 = self.stage1(budget)
            if not self._can_parallel_sweep():
                return self._sequential().sweep(
                    min_k=min_k, step=step, budget=budget
                )
            try:
                return parallel_sweep(
                    self._db,
                    stage1,
                    jobs=self._jobs,
                    distance_name=self._distance_spec,
                    policy=self._policy,
                    allow_empty_type=self._allow_empty,
                    mode=self._recast_mode,
                    min_k=min_k,
                    step=step,
                    budget=budget,
                    perf=self._perf if self._perf.enabled else None,
                    use_bitset=self._use_bitset,
                    pool=pool,
                )
            except ExecutionInterruptedError:
                raise  # same contract as the sequential sweep
            except Exception as exc:
                logger.warning(
                    "parallel sweep worker failed (%s: %s); "
                    "falling back to sequential sweep",
                    type(exc).__name__, exc,
                )
                self._perf.incr("parallel.pool_fallbacks")
                return self._sequential().sweep(
                    min_k=min_k, step=step, budget=budget
                )

    def extract(
        self,
        k: Optional[int] = None,
        sweep_step: int = 1,
        budget: Optional[Budget] = None,
        checkpoint_path: Optional[str] = None,
        resume_from: Optional[Union[str, Checkpoint]] = None,
        checkpoint_every: int = 1,
    ) -> ExtractionResult:
        """Run the full pipeline, parallelising Stage 1 and the sweep.

        Same contract as :meth:`SchemaExtractor.extract`, including
        graceful degradation: budget exhaustion and cancellation never
        raise here — a parallel phase that gets interrupted hands over
        to the sequential pipeline, whose sticky budget turns the run
        into the usual best-so-far partial result.
        """
        if self._jobs == 1 or (self._stage1 is not None and k is not None):
            # With Stage 1 injected and k fixed (no sweep) both parallel
            # phases are moot, so no pool is opened.
            return self._sequential().extract(
                k=k,
                sweep_step=sweep_step,
                budget=budget,
                checkpoint_path=checkpoint_path,
                resume_from=resume_from,
                checkpoint_every=checkpoint_every,
            )
        if budget is not None:
            budget.start()
        sensitivity: Optional[SensitivityResult] = None
        with self._pool_scope() as pool:
            try:
                self.stage1(budget)
            except ExecutionInterruptedError as exc:
                logger.warning(
                    "parallel stage1 interrupted (%s); degrading "
                    "sequentially", exc,
                )
            if (
                k is None
                and resume_from is None
                and self._stage1 is not None
                and self._can_parallel_sweep()
            ):
                try:
                    sensitivity = parallel_sweep(
                        self._db,
                        self._stage1,
                        jobs=self._jobs,
                        distance_name=self._distance_spec,
                        policy=self._policy,
                        allow_empty_type=self._allow_empty,
                        mode=self._recast_mode,
                        step=sweep_step,
                        budget=budget,
                        perf=self._perf if self._perf.enabled else None,
                        use_bitset=self._use_bitset,
                        pool=pool,
                    )
                    k = sensitivity.knee()
                    logger.info("parallel sweep: chose k=%d", k)
                except ExecutionInterruptedError as exc:
                    # Nothing sampled; the sequential pipeline will
                    # degrade to the perfect typing through its own
                    # budget checks.
                    logger.warning(
                        "parallel sweep interrupted (%s); degrading "
                        "sequentially", exc,
                    )
                    sensitivity = None
                except Exception as exc:
                    # A worker death is not a degradation: the
                    # sequential extract below redoes the sweep
                    # in-process and the result is exactly the jobs=1
                    # answer.
                    logger.warning(
                        "parallel sweep worker failed (%s: %s); "
                        "falling back to sequential sweep",
                        type(exc).__name__, exc,
                    )
                    self._perf.incr("parallel.pool_fallbacks")
                    sensitivity = None
        result = self._sequential().extract(
            k=k,
            sweep_step=sweep_step,
            budget=budget,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
            checkpoint_every=checkpoint_every,
        )
        if sensitivity is not None and result.sensitivity is None:
            degradation = result.degradation
            if sensitivity.exhausted and degradation is None:
                failure = _budget_failure(budget)
                degradation = DegradationReport(
                    stage="sweep",
                    reason=(
                        failure.reason if failure is not None else "timeout"
                    ),
                    detail=(
                        str(failure)
                        if failure is not None
                        else "parallel sweep was truncated by the budget"
                    ),
                    elapsed=budget.elapsed() if budget is not None else 0.0,
                    iterations=(
                        budget.iterations if budget is not None else 0
                    ),
                    target_k=k,
                    achieved_k=result.num_types,
                    best_defect=result.defect.total,
                    checkpoint_path=checkpoint_path,
                )
            result = dataclasses.replace(
                result, sensitivity=sensitivity, degradation=degradation
            )
        return result

    def extract_within_defect(
        self,
        max_defect: int,
        sweep_step: int = 1,
        budget: Optional[Budget] = None,
    ) -> ExtractionResult:
        """The dual problem (smallest schema under a defect bound),
        with the sweep parallelised when the configuration allows."""
        if max_defect < 0:
            raise ClusteringError("max_defect must be non-negative")
        with self._pool_scope():
            sweep = self.sweep(step=sweep_step, budget=budget)
            eligible = [p.k for p in sweep.points if p.defect <= max_defect]
            if not eligible:
                raise ClusteringError(
                    f"no sampled k meets defect <= {max_defect}; smallest "
                    f"observed defect is "
                    f"{min(p.defect for p in sweep.points)}"
                )
            return self.extract(k=min(eligible), budget=budget)
