"""Checkpoint/resume: the Stage 2 merge trace replays exactly."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.clustering import GreedyMerger, MergePolicy
from repro.core.perfect import minimal_perfect_typing
from repro.exceptions import ClusteringError, ReproError
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import (
    Checkpoint,
    checkpoint_merger,
    dumps_checkpoint,
    load_checkpoint,
    loads_checkpoint,
    restore_merger,
    save_checkpoint,
)


@pytest.fixture
def merger(soccer_movie_db):
    stage1 = minimal_perfect_typing(soccer_movie_db)
    return GreedyMerger(stage1.program, stage1.weights)


class TestSerialization:
    def test_text_round_trip(self, merger):
        merger.run_to(2)
        original = checkpoint_merger(merger, k_target=2, distance="delta_2")
        restored = loads_checkpoint(dumps_checkpoint(original))
        assert restored == original

    def test_file_round_trip(self, merger, tmp_path):
        merger.run_to(1)
        path = tmp_path / "trace.json"
        save_checkpoint(checkpoint_merger(merger), str(path))
        restored = load_checkpoint(str(path))
        assert restored.num_merges == 2
        assert restored.merges == checkpoint_merger(merger).merges

    def test_payload_is_stable_json(self, merger, tmp_path):
        merger.run_to(2)
        path = tmp_path / "trace.json"
        save_checkpoint(checkpoint_merger(merger), str(path))
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-checkpoint/1"
        assert len(payload["merges"]) == 1

    def test_rejects_foreign_payload(self):
        with pytest.raises(ReproError):
            loads_checkpoint('{"format": "something-else/9"}')
        with pytest.raises(ReproError):
            loads_checkpoint("not json at all")


class TestReplay:
    def test_restored_merger_matches_original(self, merger):
        merger.run_to(1)
        restored = restore_merger(checkpoint_merger(merger, distance="delta_2"))
        assert restored.num_types == merger.num_types
        assert restored.total_cost == pytest.approx(merger.total_cost)
        assert restored.result().program == merger.result().program
        assert restored.result().merge_map == merger.result().merge_map

    def test_restored_merger_can_keep_merging(self, merger):
        merger.run_to(2)
        restored = restore_merger(checkpoint_merger(merger, distance="delta_2"))
        restored.run_to(1)
        merger.run_to(1)
        assert restored.result().program == merger.result().program

    def test_interrupted_run_resumes_to_same_program(self, soccer_movie_db):
        stage1 = minimal_perfect_typing(soccer_movie_db)

        uninterrupted = GreedyMerger(stage1.program, stage1.weights)
        uninterrupted.run_to(1)

        interrupted = GreedyMerger(stage1.program, stage1.weights)
        with pytest.raises(ReproError):
            interrupted.run_to(1, budget=Budget(max_iterations=1))
        assert interrupted.num_types == 2  # one merge landed before the cap
        resumed = restore_merger(checkpoint_merger(interrupted, distance="delta_2"))
        resumed.run_to(1)

        assert resumed.result().program == uninterrupted.result().program
        assert resumed.total_cost == pytest.approx(uninterrupted.total_cost)

    @pytest.mark.parametrize(
        "pair",
        [("t_unknown", "t1"), ("t1", "t1"), ("_untyped", "t1")],
    )
    def test_restore_rejects_a_pair_that_cannot_merge(self, merger, pair):
        """A checkpoint is read from a file: a recorded pair naming an
        unknown or merged type, merging a type into itself, or using
        the disabled empty type stops the replay."""
        merger.run_to(2)
        absorber, absorbed = pair
        live = sorted(merger.current_program().type_names())
        checkpoint = checkpoint_merger(merger, distance="delta_2")
        broken = replace(
            checkpoint,
            merges=checkpoint.merges + (
                (absorber.replace("t1", live[0]),
                 absorbed.replace("t1", live[0])),
            ),
        )
        with pytest.raises(ClusteringError):
            restore_merger(broken)
        merged = replace(
            checkpoint, merges=checkpoint.merges + checkpoint.merges[:1]
        )
        with pytest.raises(ClusteringError):
            restore_merger(merged)

    def test_policy_survives_round_trip(self, soccer_movie_db):
        stage1 = minimal_perfect_typing(soccer_movie_db)
        merger = GreedyMerger(
            stage1.program, stage1.weights, policy=MergePolicy.UNION
        )
        merger.run_to(2)
        restored = restore_merger(
            checkpoint_merger(merger, distance="delta_2")
        )
        assert restored.policy is MergePolicy.UNION
        assert restored.result().program == merger.result().program


class TestPipelineResume:
    def test_extract_resume_equals_uninterrupted(
        self, soccer_movie_db, figure3_db, tmp_path
    ):
        """A cap that lets one Stage 2 merge land leaves a checkpoint
        that resumes to the uninterrupted result, at a pinned ``k`` and
        with ``k=None``, where the merges are the sweep's, replayed down
        to the knee; there the cap first covers the sweep's units (one
        per merge and per sample)."""
        from repro.core.pipeline import SchemaExtractor

        for db, k in ((soccer_movie_db, 1), (figure3_db, None)):
            full = SchemaExtractor(db).extract(k=k)
            assert full.num_perfect_types - full.chosen_k >= 2
            sweep_units = 0
            if k is None:
                sweep = full.sensitivity
                sweep_units = len(sweep.trace) + len(sweep.points)
            path = tmp_path / f"trace-{k}.json"
            partial = SchemaExtractor(db).extract(
                k=k,
                budget=Budget(max_iterations=sweep_units + 1),
                checkpoint_path=str(path),
            )
            assert partial.is_partial
            assert partial.degradation.stage == "stage2"
            assert partial.degradation.checkpoint_path == str(path)
            # One merge got in before the cap.
            assert partial.num_types == full.num_perfect_types - 1
            assert load_checkpoint(str(path)).k_target == full.chosen_k

            resumed = SchemaExtractor(db).extract(resume_from=str(path))
            assert resumed.program == full.program
            assert resumed.stage2 == full.stage2
            assert resumed.defect.total == full.defect.total
            assert not resumed.is_partial

    def test_resume_rejects_mismatched_database(self, regular_people_db,
                                                soccer_movie_db, tmp_path):
        from repro.core.pipeline import SchemaExtractor

        path = tmp_path / "trace.json"
        SchemaExtractor(regular_people_db).extract(
            k=1, checkpoint_path=str(path)
        )
        with pytest.raises(ReproError, match="checkpoint does not match"):
            SchemaExtractor(soccer_movie_db).extract(resume_from=str(path))

    def test_with_target_updates_k(self, merger):
        merger.run_to(2)
        checkpoint = checkpoint_merger(merger)
        assert checkpoint.with_target(5).k_target == 5
