"""Integration tests for the multi-process extractor.

These spin up real ``ProcessPoolExecutor`` workers (small pools, small
databases) and check the central guarantee: ``jobs=N`` is
extent-identical to ``jobs=1``, which is byte-identical to the plain
sequential :class:`SchemaExtractor`.
"""

import pytest

from repro.core.distance import delta_2
from repro.core.notation import parse_program
from repro.core.pipeline import SchemaExtractor
from repro.core.perfect import minimal_perfect_typing
from repro.core.prior import PriorKnowledge
from repro.core.recast import RecastMode
from repro.exceptions import ClusteringError, ReproError
from repro.graph.database import Database
from repro.parallel import (
    ParallelExtractor,
    merge_shard_typings,
    parallel_stage1,
    parallel_sweep,
)
from repro.parallel.merge import shard_classes
from repro.parallel.pool import SharedWorkerPool
from repro.perf import PerfRecorder
from repro.runtime.budget import Budget, CancellationToken
from repro.synth.datasets import make_dbg


def _union(dbs):
    """Disjoint union with per-copy prefixes: a multi-component graph."""
    out = Database()
    for index, db in enumerate(dbs):
        prefix = f"c{index}_"
        for obj in db.objects():
            if db.is_atomic(obj):
                out.add_atomic(prefix + obj, db.value(obj))
            else:
                out.add_complex(prefix + obj)
        for edge in db.edges():
            out.add_link(prefix + edge.src, prefix + edge.dst, edge.label)
    return out


@pytest.fixture(scope="module")
def multi_db():
    return _union([make_dbg(seed=s) for s in (11, 12, 13)])


def test_parallel_stage1_matches_sequential(multi_db):
    sequential = minimal_perfect_typing(multi_db)
    parallel = parallel_stage1(multi_db, jobs=2)
    assert parallel == sequential  # q_iterations included


def test_jobs1_extract_is_identical(multi_db):
    baseline = SchemaExtractor(multi_db).extract(k=6)
    via_parallel = ParallelExtractor(multi_db, jobs=1).extract(k=6)
    assert via_parallel.program == baseline.program
    assert via_parallel.assignment == baseline.assignment
    assert via_parallel.defect.total == baseline.defect.total


def test_jobs2_extract_is_extent_identical(multi_db):
    baseline = SchemaExtractor(multi_db).extract(k=6)
    parallel = ParallelExtractor(multi_db, jobs=2).extract(k=6)
    assert parallel.program == baseline.program
    assert parallel.assignment == baseline.assignment
    assert parallel.recast_result.extents == baseline.recast_result.extents
    assert parallel.defect.total == baseline.defect.total


def test_jobs2_auto_k_matches_sequential_knee(multi_db):
    baseline = SchemaExtractor(multi_db).extract(sweep_step=8)
    parallel = ParallelExtractor(multi_db, jobs=2).extract(sweep_step=8)
    assert parallel.chosen_k == baseline.chosen_k
    assert parallel.program == baseline.program
    assert parallel.sensitivity is not None
    assert parallel.sensitivity.points == baseline.sensitivity.points


@pytest.mark.parametrize(
    "knobs",
    [
        dict(use_roles=True),
        dict(
            prior=PriorKnowledge(
                program=parse_program("date = ->day^0, ->month^0, ->year^0")
            )
        ),
        dict(distance=delta_2),
    ],
    ids=["roles", "prior", "callable-distance"],
)
def test_sequential_sweep_branch_matches_sequential(multi_db, knobs):
    """Roles, a prior or a callable distance keep the sweep in-process
    while Stage 1 still runs on the pool, and log no fallback."""
    baseline = SchemaExtractor(multi_db, **knobs).extract(sweep_step=8)
    perf = PerfRecorder()
    pooled = ParallelExtractor(multi_db, jobs=2, perf=perf, **knobs).extract(
        sweep_step=8
    )
    assert pooled.program == baseline.program
    assert pooled.assignment == baseline.assignment
    assert pooled.chosen_k == baseline.chosen_k
    assert pooled.sensitivity.points == baseline.sensitivity.points
    assert perf.counter("parallel.shards") >= 2
    assert perf.counter("parallel.sweep_blocks") == 0


@pytest.mark.parametrize(
    "seed,knobs",
    [
        (1998, dict(distance="delta_3", allow_empty_type=True,
                    empty_weight=100)),
        (1998, dict(distance="delta_1", allow_empty_type=True,
                    empty_weight=100)),
        (3, dict(recast_mode=RecastMode.STRICT, fallback="none")),
    ],
)
def test_pooled_sweep_honours_stage2_and_stage3_knobs(seed, knobs):
    """The pooled sweep point auto-k chose measures the returned result."""
    perf = PerfRecorder()
    result = ParallelExtractor(
        make_dbg(seed=seed), jobs=2, perf=perf, **knobs
    ).extract(sweep_step=4)
    assert perf.counter("parallel.sweep_blocks") == 2
    chosen = result.sensitivity.point_at(result.chosen_k)
    assert chosen.defect == result.defect.total


def test_parallel_sweep_equals_sequential(multi_db):
    stage1 = minimal_perfect_typing(multi_db)
    sequential = SchemaExtractor(multi_db, stage1=stage1).sweep(step=5)
    parallel = parallel_sweep(multi_db, stage1, jobs=3, step=5)
    assert parallel.points == sequential.points
    assert not parallel.exhausted


def test_single_component_falls_back():
    # One long chain with a value at the end: a single weakly-connected
    # component, where --jobs cannot help and must not change results.
    db = Database()
    db.add_atomic("leaf", 0)
    for i in range(19):
        db.add_link(f"n{i:02d}", f"n{i + 1:02d}", "next")
    db.add_link("n19", "leaf", "value")
    extractor = ParallelExtractor(db, jobs=4)
    assert len(extractor.shards()) == 1
    result = extractor.extract(k=5)
    baseline = SchemaExtractor(db).extract(k=5)
    assert result.program == baseline.program


def test_perf_counters_survive_the_pool(multi_db):
    perf = PerfRecorder()
    ParallelExtractor(multi_db, jobs=2, perf=perf).extract(k=6)
    # Worker-side Stage 1 counters were merged back into the parent.
    assert perf.counter("gfp.satisfaction_checks") > 0
    assert perf.counter("parallel.shards") >= 2
    assert perf.elapsed("pipeline.stage1") > 0


@pytest.mark.expect_fallback
def test_cancellation_degrades_gracefully(multi_db):
    token = CancellationToken()
    token.cancel("test asked")
    budget = Budget(token=token)
    result = ParallelExtractor(multi_db, jobs=2).extract(k=6, budget=budget)
    assert result.is_partial
    assert result.degradation.reason == "cancelled"
    # Best-so-far contract: the perfect typing is still returned.
    assert result.num_types >= 6


def test_iteration_budget_degrades_gracefully(multi_db):
    result = ParallelExtractor(multi_db, jobs=2).extract(
        budget=Budget(max_iterations=5)
    )
    assert result.is_partial
    assert result.degradation.reason == "iterations"


def test_extract_within_defect_parallel(multi_db):
    baseline = SchemaExtractor(multi_db).extract_within_defect(
        200, sweep_step=10
    )
    parallel = ParallelExtractor(multi_db, jobs=2).extract_within_defect(
        200, sweep_step=10
    )
    assert parallel.chosen_k == baseline.chosen_k
    assert parallel.program == baseline.program


def test_jobs_validation(multi_db):
    with pytest.raises(ReproError):
        ParallelExtractor(multi_db, jobs=0)
    with pytest.raises(ClusteringError):
        ParallelExtractor(multi_db, jobs=2).extract_within_defect(-1)
    # Rejected before any sweep block reaches a worker (no fallback).
    with pytest.raises(ClusteringError, match="unknown distance"):
        ParallelExtractor(
            make_dbg(seed=11), jobs=2, distance="delta_9"
        ).sweep()


def test_merge_rejects_overlapping_shards(multi_db):
    db = make_dbg(seed=11)
    classes = shard_classes(db, db.objects())
    with pytest.raises(ClusteringError):
        merge_shard_typings(db, [classes, classes])


# ----------------------------------------------------------------------
# Worker-failure fallback: a raising worker must not kill the pipeline.
# ----------------------------------------------------------------------

def _faulty_local_rule(db, obj):
    """Module-level (picklable) rule that raises only inside workers.

    In the parent process it delegates to the plain local rule, so the
    sequential fallback produces exactly the unmodified result.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker fault")
    from repro.core.perfect import local_rule

    return local_rule(db, obj)


def _broken_run(self, tasks, fn, budget=None):
    raise RuntimeError("injected pool crash")


@pytest.mark.expect_fallback
def test_stage1_heals_worker_crash(multi_db, monkeypatch):
    monkeypatch.setattr(SharedWorkerPool, "run", _broken_run)
    perf = PerfRecorder()
    healed = parallel_stage1(multi_db, jobs=2, perf=perf)
    assert healed == minimal_perfect_typing(multi_db)
    assert perf.counter("parallel.pool_fallbacks") == 1


@pytest.mark.expect_fallback
def test_extract_heals_worker_crash(multi_db):
    baseline = SchemaExtractor(multi_db).extract(k=6)
    result = ParallelExtractor(
        multi_db, jobs=2, local_rule_fn=_faulty_local_rule
    ).extract(k=6)
    assert result.program == baseline.program
    assert result.assignment == baseline.assignment
    assert result.degradation is None  # a healed crash is not degradation


@pytest.mark.expect_fallback
def test_sweep_falls_back_when_pool_breaks(multi_db, monkeypatch):
    extractor = ParallelExtractor(multi_db, jobs=2)
    stage1 = extractor.stage1()  # built through the (healthy) real pool
    monkeypatch.setattr(SharedWorkerPool, "run", _broken_run)
    sweep = extractor.sweep(step=8)
    sequential = SchemaExtractor(multi_db, stage1=stage1).sweep(step=8)
    assert sweep.points == sequential.points
    assert not sweep.exhausted


@pytest.mark.expect_fallback
def test_extract_heals_sweep_pool_break(multi_db, monkeypatch):
    extractor = ParallelExtractor(multi_db, jobs=2)
    extractor.stage1()
    monkeypatch.setattr(SharedWorkerPool, "run", _broken_run)
    result = extractor.extract(sweep_step=8)  # k=None -> needs the sweep
    baseline = SchemaExtractor(multi_db).extract(sweep_step=8)
    assert result.chosen_k == baseline.chosen_k
    assert result.program == baseline.program
    assert result.degradation is None


def test_cancellation_still_propagates_from_pool(multi_db, monkeypatch):
    # The healing path must not swallow genuine interruptions: a tripped
    # token keeps flowing out of parallel_stage1 as a cancellation.
    from repro.exceptions import ExtractionCancelledError

    token = CancellationToken()
    token.cancel("operator stop")
    with pytest.raises(ExtractionCancelledError):
        parallel_stage1(multi_db, jobs=2, budget=Budget(token=token))
