"""Tests for the distributed reconcile and the ``jobs=2`` service session.

The distributed reconcile must be *extent-identical* to both oracles
(the sequential ``minimal_perfect_typing`` and the full-database-GFP
reconcile) and its failure paths must degrade rather than break; a
``jobs=2`` service session must refresh to the from-scratch answer
without leaving a worker process or a ``/dev/shm`` segment behind.
"""

import multiprocessing
import os

import pytest

from repro.core.fixpoint import bisimulation_quotient, greatest_fixpoint
from repro.core.perfect import minimal_perfect_typing
from repro.exceptions import ClusteringError
from repro.graph.database import Database
from repro.graph.partition import partition_database
from repro.parallel import (
    ParallelExtractor,
    merge_shard_typings,
    restricted_reconcile,
    sharded_stage1,
)
from repro.parallel.shm import leaked_system_segments
from repro.perf import PerfRecorder
from repro.synth.datasets import make_dbg


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
    # Repeated seeds on purpose: duplicated components make the
    # bisimulation quotient strictly smaller than the combined program.
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


class TestBisimulationQuotient:
    def test_quotient_preserves_extents(self, multi_db, sequential):
        combined = sequential.program
        quotient, mapping = bisimulation_quotient(combined)
        assert set(mapping) == set(combined.type_names())
        assert set(mapping.values()) == set(quotient.type_names())
        full = greatest_fixpoint(combined, multi_db)
        reduced = greatest_fixpoint(quotient, multi_db)
        for name in combined.type_names():
            assert full.members(name) == reduced.members(mapping[name])

    def test_bisimilar_rules_collapse(self):
        # Structurally identical rules under different names — the
        # shape a shard-prefixed combined program produces when the
        # same component appears in two shards.
        from repro.core.typing_program import (
            ATOMIC,
            Direction,
            TypedLink,
            TypeRule,
            TypingProgram,
        )

        leaf_a = TypeRule(
            "leaf_a", frozenset({TypedLink(Direction.OUT, "name", ATOMIC)})
        )
        leaf_b = TypeRule(
            "leaf_b", frozenset({TypedLink(Direction.OUT, "name", ATOMIC)})
        )
        root = TypeRule(
            "root",
            frozenset(
                {
                    TypedLink(Direction.OUT, "child", "leaf_a"),
                    TypedLink(Direction.OUT, "child", "leaf_b"),
                }
            ),
        )
        program = TypingProgram([leaf_a, leaf_b, root])
        quotient, mapping = bisimulation_quotient(program)
        assert mapping["leaf_a"] == mapping["leaf_b"]
        assert mapping["root"] == "root"
        assert len(quotient) == 2

    def test_empty_program(self):
        from repro.core.typing_program import TypingProgram

        quotient, mapping = bisimulation_quotient(TypingProgram([]))
        assert len(quotient) == 0
        assert mapping == {}


def _full_gfp_reconcile(db, num_shards, perf=None):
    """The full-database-GFP oracle: merge without ``reconcile=``."""
    return merge_shard_typings(
        db,
        [
            minimal_perfect_typing(_extract(db, shard.objects))
            for shard in partition_database(db, num_shards)
        ],
        perf=perf,
    )


class TestRestrictedReconcile:
    def test_matches_both_oracles(self, multi_db, sequential):
        with_reconcile = sharded_stage1(multi_db, 4)
        full_gfp = _full_gfp_reconcile(multi_db, 4)
        assert with_reconcile.extents == full_gfp.extents
        assert with_reconcile.extents == sequential.extents
        assert with_reconcile.home_type == sequential.home_type

    def test_counters(self, multi_db):
        perf = PerfRecorder()
        sharded_stage1(multi_db, 4, perf=perf)
        snapshot = perf.to_dict()["counters"]
        assert snapshot["parallel.reconcile_tasks"] == 4
        assert snapshot["parallel.reconcile_quotient_rules"] > 0
        assert snapshot["parallel.reconcile_members"] > 0
        assert "parallel.reconcile_fallbacks" not in snapshot
        assert "parallel.shard_stage1" in perf.to_dict()["timers"]

    @pytest.mark.expect_fallback
    def test_failing_reconcile_falls_back(self, multi_db, sequential):
        shards = partition_database(multi_db, 4)
        typings = [
            minimal_perfect_typing(
                _extract(multi_db, shard.objects)
            )
            for shard in shards
        ]
        perf = PerfRecorder()

        def broken(combined, budget):
            raise RuntimeError("injected reconcile fault")

        merged = merge_shard_typings(
            multi_db, typings, perf=perf, reconcile=broken
        )
        assert merged.extents == sequential.extents
        assert perf.to_dict()["counters"][
            "parallel.reconcile_fallbacks"
        ] == 1


def _extract(db, objects):
    from repro.graph.partition import extract_shard

    return extract_shard(db, objects)


class TestMergeErrorPaths:
    def test_duplicate_object_across_shards(self, multi_db):
        shards = partition_database(multi_db, 2)
        shard_db = _extract(multi_db, shards[0].objects)
        typing = minimal_perfect_typing(shard_db)
        with pytest.raises(ClusteringError, match="more than one shard"):
            merge_shard_typings(multi_db, [typing, typing])

    def test_uncovered_class_is_rejected(self, multi_db):
        import dataclasses

        from repro.core.typing_program import (
            ATOMIC,
            Direction,
            TypedLink,
            TypeRule,
            TypingProgram,
        )

        shards = partition_database(multi_db, 2)
        typings = [
            minimal_perfect_typing(_extract(multi_db, shard.objects))
            for shard in shards
        ]
        # Corrupt one shard typing with a class no object can satisfy
        # (and no object calls home): its global extent is empty and
        # unique, so the extent grouping must flag it as uncovered.
        victim = typings[0]
        ghost = TypeRule(
            "zzz_ghost",
            frozenset({TypedLink(Direction.OUT, "__no_such_label__", ATOMIC)}),
        )
        corrupted = TypingProgram(
            list(victim.program.rules()) + [ghost], check=False
        )
        typings[0] = dataclasses.replace(victim, program=corrupted)
        with pytest.raises(ClusteringError, match="do not cover"):
            merge_shard_typings(multi_db, typings)


class TestPooledReconcile:
    def test_extractor_matches_oracles(self, multi_db, sequential):
        perf = PerfRecorder()
        pooled = ParallelExtractor(multi_db, jobs=2, perf=perf).stage1()
        assert pooled.extents == sequential.extents
        counters = perf.to_dict()["counters"]
        assert counters["parallel.reconcile_tasks"] >= 2
        assert "parallel.reconcile_fanout" in perf.to_dict()["timers"]
        assert _leaks() == ([], [])

    def test_no_parallel_reconcile_oracle(self, multi_db, sequential):
        """The pooled Stage 1 agrees with the full-database-GFP
        reconcile, which runs no reconcile task."""
        pooled = ParallelExtractor(multi_db, jobs=2).stage1()
        perf = PerfRecorder()
        oracle = _full_gfp_reconcile(multi_db, 2, perf=perf)
        assert oracle.extents == sequential.extents
        assert pooled.extents == oracle.extents
        assert pooled.home_type == oracle.home_type
        assert "parallel.reconcile_tasks" not in perf.to_dict()["counters"]


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
