"""Edge-case tests deepening coverage across the core modules."""

import pytest

from repro.core.clustering import EMPTY_TYPE, GreedyMerger, MergePolicy
from repro.core.fixpoint import greatest_fixpoint
from repro.core.notation import format_assignment_summary, parse_program
from repro.core.pipeline import SchemaExtractor
from repro.core.roles import decompose_roles
from repro.core.perfect import minimal_perfect_typing
from repro.core.sensitivity import sensitivity_sweep
from repro.core.typing_program import TypingProgram, make_rule
from repro.exceptions import ClusteringError
from repro.graph.builder import DatabaseBuilder
from repro.graph.database import Database


class TestFixpointEdges:
    def test_self_loop_object(self):
        db = Database()
        db.add_link("n", "m", "next")
        db.add_link("m", "n", "next")
        program = TypingProgram([make_rule("node", outgoing=[("next", "node")])])
        result = greatest_fixpoint(program, db)
        assert result.members("node") == {"n", "m"}

    def test_multi_label_parallel_edges(self):
        db = Database()
        db.add_link("a", "b", "x")
        db.add_link("a", "b", "y")
        program = parse_program("t = ->x^u, ->y^u\nu = <empty>")
        result = greatest_fixpoint(program, db)
        assert "a" in result.members("t")

    def test_isolated_object_with_empty_rule(self):
        db = DatabaseBuilder().complex("lonely").build()
        program = TypingProgram([make_rule("anything")])
        assert "lonely" in greatest_fixpoint(program, db).members("anything")


class TestClusteringEdges:
    def test_mid_run_program_always_valid(self):
        program = parse_program(
            "a = ->l^b\nb = ->l^c\nc = ->l^a\nd = ->x^0"
        )
        merger = GreedyMerger(program, {n: 1 for n in program.type_names()})
        while merger.num_types > 1:
            merger.step()
            merger.current_program().validate()

    def test_empty_type_with_weighted_center(self):
        program = parse_program(
            "a = ->x^0\nb = ->x^0, ->y^0\nweird = ->p^0, ->q^0, ->r^0, ->s^0"
        )
        merger = GreedyMerger(
            program,
            {"a": 100, "b": 90, "weird": 1},
            policy=MergePolicy.WEIGHTED_CENTER,
            allow_empty_type=True,
            empty_weight=1.0,
        )
        result = merger.run_to(2)
        result.program.validate()
        assert result.merge_map["weird"] is None

    def test_records_track_types_after(self):
        program = parse_program("a = ->x^0\nb = ->y^0\nc = ->z^0")
        merger = GreedyMerger(program, {"a": 1, "b": 1, "c": 1})
        result = merger.run_to(1)
        assert [r.types_after for r in result.records] == [2, 1]

    def test_single_type_program_cannot_merge(self):
        program = parse_program("only = ->x^0")
        merger = GreedyMerger(program, {"only": 1})
        with pytest.raises(ClusteringError):
            merger.step()


class TestRolesEdges:
    def test_min_cover_size_respected_in_decompose(self, soccer_movie_db):
        stage1 = minimal_perfect_typing(soccer_movie_db)
        # Demanding covers built from types with >= 4 typed links makes
        # the soccer/movie cover impossible (they have 3 each).
        roles = decompose_roles(stage1, min_cover_size=4)
        assert roles.num_removed == 0


class TestSensitivityEdges:
    @pytest.fixture
    def db(self):
        builder = DatabaseBuilder()
        for i in range(4):
            builder.attr(f"a{i}", "x", i)
        for i in range(4):
            builder.attr(f"b{i}", "y", i)
        for i in range(4):
            builder.attr(f"c{i}", "z", i)
        return builder.build()

    def test_max_k_caps_sweep(self, db):
        result = sensitivity_sweep(db, max_k=2)
        assert max(p.k for p in result.points) == 2

    def test_step_includes_endpoints(self, db):
        result = sensitivity_sweep(db, step=5)
        ks = {p.k for p in result.points}
        assert {1, 3} <= ks

    def test_excess_plus_deficit_equals_defect(self, db):
        for point in sensitivity_sweep(db).points:
            assert point.excess + point.deficit == point.defect


class TestPipelineEdges:
    def test_fallback_none_can_leave_untyped(self):
        builder = DatabaseBuilder()
        for i in range(5):
            builder.attr(f"p{i}", "name", f"n{i}")
        builder.attr("odd", "weird", 1)
        db = builder.build()
        from repro.core.recast import RecastMode

        result = SchemaExtractor(
            db,
            recast_mode=RecastMode.STRICT,
            fallback="none",
            allow_empty_type=True,
            empty_weight=1.0,
        ).extract(k=1)
        # The odd object was either emptied or fails the surviving type.
        assert (
            "odd" in result.recast_result.untyped_objects
            or result.assignment["odd"]
        )

    def test_extract_is_deterministic(self, figure4_db):
        r1 = SchemaExtractor(figure4_db).extract(k=2)
        r2 = SchemaExtractor(figure4_db).extract(k=2)
        assert r1.program == r2.program
        assert r1.assignment == r2.assignment


class TestNotationHelpers:
    def test_format_assignment_summary(self):
        text = format_assignment_summary(
            {"t1": [f"o{i}" for i in range(8)], "t2": ["x"]}, limit=3
        )
        assert "t1: 8 objects" in text
        assert "..." in text
        assert "t2: 1 objects" in text
