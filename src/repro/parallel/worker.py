"""Process-pool worker entry points (must stay module-level picklable).

``ProcessPoolExecutor`` pickles the callable and its arguments into
the worker, and pickles the return value back; everything here is a
plain module-level function over plain dataclasses of picklable state
(:class:`~repro.graph.database.Database` is dict/set-based,
:class:`~repro.core.perfect.PerfectTyping` is frozen-dataclass-of-
frozensets).  Two consequences the extractor layer enforces:

* **distances travel by name** — ``delta_1``/``delta_4`` are closures
  over the hypercube dimension, so a sweep task carries the distance
  *name* plus the dimension count and the worker resolves it through
  the per-process :func:`resolve_distance` cache (one
  :func:`~repro.core.distance.named_distances` build per
  ``(name, dimensions)``, not per task); callable distances force the
  sequential path;
* **budgets travel by remaining allowance** — a
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

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core.clustering import MergePolicy
from repro.core.distance import WeightedDistance, named_distances
from repro.core.perfect import PerfectTyping, minimal_perfect_typing
from repro.core.recast import RecastMode
from repro.core.sensitivity import SensitivityPoint, sensitivity_sweep
from repro.exceptions import BudgetExceededError
from repro.graph.database import Database, ObjectId
from repro.perf import PerfRecorder
from repro.runtime.budget import Budget

#: Per-worker-process distance cache.  ``delta_1``/``delta_4`` are
#: closures over the hypercube dimension, so resolving them rebuilds
#: the whole named-distance family; one worker serving many sweep
#: blocks (or many pooled tasks) must pay that once per
#: ``(name, dimensions)``, not once per task.
_DISTANCE_CACHE: Dict[Tuple[str, int], WeightedDistance] = {}


def resolve_distance(name: str, dimensions: int) -> WeightedDistance:
    """The named distance for ``dimensions``, cached per worker process."""
    key = (name, dimensions)
    distance = _DISTANCE_CACHE.get(key)
    if distance is None:
        distance = named_distances(dimensions)[name]
        _DISTANCE_CACHE[key] = distance
    return distance


@dataclass(frozen=True)
class Stage1Task:
    """One shard's Stage 1 work order."""

    index: int  #: shard index (for deterministic reassembly).
    db: Database  #: the shard's own edge-closed sub-database.
    local_rule_fn: Optional[Any] = None  #: module-level callable or None.
    record_perf: bool = False


@dataclass(frozen=True)
class Stage1Outcome:
    """A shard typing plus the worker's perf snapshot."""

    index: int
    typing: PerfectTyping
    perf_snapshot: Optional[Dict[str, Any]] = None


def stage1_body(
    db: Database,
    index: int,
    local_rule_fn=None,
    record_perf: bool = False,
) -> Stage1Outcome:
    """Shared Stage 1 worker core (legacy tasks and pooled tasks).

    The typing runs inside a ``parallel.shard_stage1`` span so that,
    after the parent merges the worker snapshots, shard work remains
    attributable separately from the coordinator's
    ``parallel.reconcile`` span.
    """
    perf = PerfRecorder() if record_perf else None
    if perf is not None:
        with perf.span("parallel.shard_stage1"):
            typing = minimal_perfect_typing(
                db, local_rule_fn=local_rule_fn, perf=perf
            )
    else:
        typing = minimal_perfect_typing(
            db, local_rule_fn=local_rule_fn, perf=perf
        )
    return Stage1Outcome(
        index=index,
        typing=typing,
        perf_snapshot=perf.to_dict() if perf is not None else None,
    )


@dataclass(frozen=True)
class ReconcileOutcome:
    """One shard's restricted reconcile extents, wire-compact.

    ``offsets``/``members`` are the raw bytes of two uint32 arrays:
    ``members[offsets[i]:offsets[i+1]]`` are the indexes (into the pool
    payload's string table) of the objects in the restricted extent of
    the ``i``-th rule of the broadcast program, in program order.
    """

    index: int
    offsets: bytes
    members: bytes
    iterations: int
    perf_snapshot: Optional[Dict[str, Any]] = None


def run_stage1_task(task: Stage1Task) -> Stage1Outcome:
    """Worker body: minimal perfect typing of one shard."""
    return stage1_body(
        task.db,
        index=task.index,
        local_rule_fn=task.local_rule_fn,
        record_perf=task.record_perf,
    )


@dataclass(frozen=True)
class SweepTask:
    """One worker's block of sensitivity-sweep samples.

    The worker replays the deterministic merge sequence from the full
    Stage 1 program down to ``min(sample_at)`` and records a point at
    each requested ``k``.
    """

    index: int
    db: Database
    stage1: PerfectTyping
    assignment: Mapping[ObjectId, FrozenSet[str]]
    weights: Mapping[str, float]
    distance_name: str
    dimensions: int
    policy: MergePolicy
    allow_empty_type: bool
    mode: RecastMode
    sample_at: Tuple[int, ...]
    frozen: Optional[FrozenSet[str]] = None
    timeout: Optional[float] = None  #: parent's *remaining* seconds.
    max_iterations: Optional[int] = None  #: parent's *remaining* units.
    use_bitset: bool = True
    record_perf: bool = False


@dataclass(frozen=True)
class SweepOutcome:
    """One worker's sampled points and consumed budget."""

    index: int
    points: Tuple[SensitivityPoint, ...]
    exhausted: bool
    iterations: int  #: work units the worker charged its local budget.
    perf_snapshot: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class SweepParams:
    """The small per-task knobs of a sweep block (pooled or legacy).

    This is what a pooled sweep task actually ships: everything heavy
    (database, Stage 1 typing) already lives worker-side, so a task is
    an index, a sample block and these scalars.
    """

    index: int
    distance_name: str
    dimensions: int
    policy: MergePolicy
    allow_empty_type: bool
    mode: RecastMode
    sample_at: Tuple[int, ...]
    frozen: Optional[FrozenSet[str]] = None
    timeout: Optional[float] = None
    max_iterations: Optional[int] = None
    use_bitset: bool = True
    record_perf: bool = False


def sweep_body(
    db: Database,
    stage1: PerfectTyping,
    assignment: Mapping[ObjectId, FrozenSet[str]],
    weights: Mapping[str, float],
    params: SweepParams,
) -> SweepOutcome:
    """Shared sweep worker core (legacy tasks and pooled tasks).

    Budget exhaustion never propagates as an exception: the worker
    returns whatever prefix of its block it managed, flagged
    ``exhausted`` — mirroring the sequential sweep's best-so-far
    contract — and reports the units it consumed so the parent can
    charge them against the real budget.
    """
    perf = PerfRecorder() if params.record_perf else None
    budget: Optional[Budget] = None
    if params.timeout is not None or params.max_iterations is not None:
        budget = Budget(
            timeout=params.timeout, max_iterations=params.max_iterations
        ).start()
    distance = resolve_distance(params.distance_name, params.dimensions)
    points: Tuple[SensitivityPoint, ...] = ()
    exhausted = False
    try:
        result = sensitivity_sweep(
            db,
            stage1=stage1,
            assignment=assignment,
            weights=weights,
            distance=distance,
            policy=params.policy,
            allow_empty_type=params.allow_empty_type,
            mode=params.mode,
            min_k=min(params.sample_at),
            frozen=params.frozen,
            budget=budget,
            perf=perf,
            sample_at=params.sample_at,
            use_bitset=params.use_bitset,
        )
        points = result.points
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
    )


def run_sweep_task(task: SweepTask) -> SweepOutcome:
    """Worker body: sample one block of the Figure 6 sweep."""
    return sweep_body(
        task.db,
        task.stage1,
        task.assignment,
        task.weights,
        SweepParams(
            index=task.index,
            distance_name=task.distance_name,
            dimensions=task.dimensions,
            policy=task.policy,
            allow_empty_type=task.allow_empty_type,
            mode=task.mode,
            sample_at=task.sample_at,
            frozen=task.frozen,
            timeout=task.timeout,
            max_iterations=task.max_iterations,
            use_bitset=task.use_bitset,
            record_perf=task.record_perf,
        ),
    )
