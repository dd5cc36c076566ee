"""Tests for the shard merge and the ``jobs=2`` service session.

Merging the shards' bisimulation classes must give the sequential
``minimal_perfect_typing`` in every field and reject shard maps that
do not cover the database exactly once; a ``jobs=2`` Stage 1 and a
``jobs=2`` service session must leave no worker process or
``/dev/shm`` segment behind.
"""

import multiprocessing
import os

import pytest

from repro.core.perfect import minimal_perfect_typing
from repro.exceptions import ClusteringError
from repro.graph.database import Database
from repro.graph.partition import partition_database
from repro.parallel import ParallelExtractor, merge_shard_typings
from repro.parallel.merge import shard_classes
from repro.parallel.shm import leaked_system_segments
from repro.perf import PerfRecorder
from repro.synth.datasets import make_dbg
from tests.core.oracle import per_object_stage1, stage1_fields


def _union(dbs):
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
    # Repeated seeds on purpose: copies of one component in different
    # shards have classes the merge must unite.
    return _union([make_dbg(seed=s) for s in (21, 22, 23, 21)])


@pytest.fixture(scope="module")
def sequential(multi_db):
    return minimal_perfect_typing(multi_db)


def _leaks():
    """Live pool workers and ``/dev/shm`` segments of this process only,
    so a concurrent pool user cannot fail the check."""
    return multiprocessing.active_children(), leaked_system_segments(
        os.getpid()
    )


def _shard_classes(db, num_shards):
    return [
        shard_classes(db, shard.objects)
        for shard in partition_database(db, num_shards)
    ]


class TestMergeErrorPaths:
    def test_duplicate_object_across_shards(self, multi_db):
        classes = _shard_classes(multi_db, 2)
        with pytest.raises(ClusteringError, match="exactly once"):
            merge_shard_typings(multi_db, [classes[0]] + classes)

    def test_uncovered_class_is_rejected(self, multi_db):
        # A shard's classes left out: its objects have no class.
        classes = _shard_classes(multi_db, 2)
        with pytest.raises(ClusteringError, match="exactly once"):
            merge_shard_typings(multi_db, classes[1:])


class TestPooledReconcile:
    def test_extractor_matches_oracles(self, multi_db, sequential):
        """The pooled Stage 1 is the sequential one, ``q_iterations``
        included, and agrees with the per-object reference; no worker
        or segment outlives it."""
        perf = PerfRecorder()
        pooled = ParallelExtractor(multi_db, jobs=2, perf=perf).stage1()
        assert pooled == sequential
        assert stage1_fields(pooled) == stage1_fields(
            per_object_stage1(multi_db)
        )
        timers = perf.to_dict()["timers"]
        assert "parallel.shard_stage1" in timers
        assert "parallel.reconcile" in timers
        assert _leaks() == ([], [])


class TestServiceSessionJobs:
    def test_mutate_refresh_matches_fresh_extraction(self, multi_db):
        from repro.core.pipeline import SchemaExtractor
        from repro.service.session import DatasetSession

        session = DatasetSession(multi_db.copy(), jobs=2)
        assert session.status()["jobs"] == 2
        # The initial extract's pool is gone before the session serves.
        assert _leaks() == ([], [])
        db = session.db
        some = next(iter(db.complex_objects()))
        log = session.apply_batch(
            [("add-object", "zz_new"), ("add-link", "zz_new", some,
                                        "friend")]
        )
        session.note_changes(log)
        assert session.stale
        assert session.refresh()
        assert not session.stale
        fresh = SchemaExtractor(db).extract(k=session.result.chosen_k)
        assert session.result.num_types == fresh.num_types
        assert session.result.defect.total == fresh.defect.total
        assert _leaks() == ([], [])
