"""Unit tests for partition refinement and bisimulation quotients."""

import pytest

from repro.bisim.bisimulation import (
    bisimilar,
    bisimulation_partition,
    k_bisimulation_partition,
)
from repro.bisim.partition import Partition, refine_partition
from repro.exceptions import ReproError
from repro.graph.builder import DatabaseBuilder
from tests.bisim.oracle import greatest_bisimulation


class TestPartition:
    def test_single_and_discrete(self):
        objs = ["a", "b", "c"]
        assert Partition.single(objs).num_blocks == 1
        assert Partition.discrete(objs).num_blocks == 3

    def test_block_of_and_same_block(self):
        partition = Partition((frozenset({"a", "b"}), frozenset({"c"})))
        assert partition.same_block("a", "b")
        assert not partition.same_block("a", "c")
        assert not partition.same_block("a", "ghost")

    def test_refines(self):
        coarse = Partition((frozenset({"a", "b", "c"}),))
        fine = Partition((frozenset({"a"}), frozenset({"b", "c"})))
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_normalised_deterministic(self):
        p1 = Partition((frozenset({"b"}), frozenset({"a"}))).normalised()
        p2 = Partition((frozenset({"a"}), frozenset({"b"}))).normalised()
        assert p1 == p2


class TestRefinement:
    def test_figure2_forward_and_backward(self, figure2_db):
        blocks = bisimulation_partition(figure2_db, "both")
        assert len(blocks) == 2
        assert bisimilar(figure2_db, "g", "j")
        assert bisimilar(figure2_db, "m", "a")
        assert not bisimilar(figure2_db, "g", "m")

    def test_figure4_matches_stage1(self, figure4_db):
        """On Figure 4 the F&B bisimulation partition coincides with the
        minimal perfect typing partition {o1}, {o2, o3}, {o4}."""
        blocks = bisimulation_partition(figure4_db, "both")
        as_sets = {frozenset(b) for b in blocks.values()}
        assert as_sets == {
            frozenset({"o1"}),
            frozenset({"o2", "o3"}),
            frozenset({"o4"}),
        }

    def test_forward_only_ignores_parents(self):
        # x and y have the same outgoing picture but different parents.
        db = (
            DatabaseBuilder()
            .link("p", "x", "has")
            .link("q", "y", "owns")
            .attr("x", "v", 1)
            .attr("y", "v", 2)
            .attr("q", "extra", 0)
            .build()
        )
        forward = bisimulation_partition(db, "forward")
        both = bisimulation_partition(db, "both")
        fwd_sets = {frozenset(b) for b in forward.values()}
        both_sets = {frozenset(b) for b in both.values()}
        assert frozenset({"x", "y"}) in fwd_sets
        assert frozenset({"x", "y"}) not in both_sets

    def test_unknown_direction_rejected(self, figure2_db):
        with pytest.raises(ReproError):
            bisimulation_partition(figure2_db, "sideways")

    def test_max_rounds_bounds_refinement(self):
        # A chain a -> b -> c -> leaf: depth-k distinguishes prefixes.
        builder = DatabaseBuilder()
        builder.link("a", "b", "n").link("b", "c", "n")
        builder.attr("c", "v", 1)
        db = builder.build()
        k0 = k_bisimulation_partition(db, 0, "forward")
        assert len(k0) == 1
        k1 = k_bisimulation_partition(db, 1, "forward")
        # One round separates by labels only: {a,b} (have n) vs {c} (has v).
        assert len(k1) == 2
        k2 = k_bisimulation_partition(db, 2, "forward")
        assert len(k2) == 3

    def test_negative_k_rejected(self, figure2_db):
        with pytest.raises(ReproError):
            k_bisimulation_partition(figure2_db, -1)

    def test_bisimilar_unknown_object_false(self, figure2_db):
        assert not bisimilar(figure2_db, "ghost", "g")

    def test_refine_converges_to_stable(self, figure2_db):
        partition = refine_partition(figure2_db)
        again = refine_partition(figure2_db, initial=partition)
        assert partition == again


class TestBruteForceOracle:
    def test_agrees_on_fixtures(self, figure2_db, figure4_db):
        for db in (figure2_db, figure4_db):
            for use_out, use_in in ((True, True), (True, False), (False, True)):
                assert refine_partition(
                    db, use_outgoing=use_out, use_incoming=use_in
                ) == greatest_bisimulation(
                    db, use_outgoing=use_out, use_incoming=use_in
                )

    def test_agrees_on_dbg(self):
        from repro.synth.datasets import make_dbg

        db = make_dbg(seed=4)
        assert refine_partition(db) == greatest_bisimulation(db)
