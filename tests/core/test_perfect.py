"""Unit tests for Stage 1 (minimal perfect typing)."""

import pytest

from repro.core.fixpoint import greatest_fixpoint
from repro.core.perfect import (
    build_object_program,
    equivalent_by_membership,
    local_rule,
    minimal_perfect_typing,
    object_type_name,
    verify_perfect,
)
from repro.core.sorts import sorted_local_rule
from repro.core.typing_program import Direction
from repro.graph.builder import DatabaseBuilder
from repro.synth.datasets import make_dbg
from tests.core.oracle import per_object_stage1, stage1_fields


def matches_reference(db, local_rule_fn=None):
    """Stage 1 on ``db``, asserted equal to the per-object reference."""
    result = minimal_perfect_typing(db, local_rule_fn=local_rule_fn)
    assert stage1_fields(result) == stage1_fields(
        per_object_stage1(db, local_rule_fn)
    )
    return result


class TestLocalRules:
    def test_local_rule_covers_all_edges(self, figure2_db):
        rule = local_rule(figure2_db, "g")
        labels = {(l.direction, l.label) for l in rule.body}
        assert labels == {
            (Direction.OUT, "is-manager-of"),
            (Direction.OUT, "name"),
            (Direction.IN, "is-managed-by"),
        }

    def test_atomic_edges_use_type0(self, figure2_db):
        rule = local_rule(figure2_db, "g")
        name_link = next(l for l in rule.body if l.label == "name")
        assert name_link.is_atomic_target

    def test_object_program_size(self, figure2_db):
        program = build_object_program(figure2_db)
        assert len(program) == figure2_db.num_complex


class TestFigure2:
    def test_two_classes(self, figure2_db):
        result = minimal_perfect_typing(figure2_db)
        assert result.num_types == 2
        # Persons g, j share a home type; firms m, a share the other.
        assert result.home_type["g"] == result.home_type["j"]
        assert result.home_type["m"] == result.home_type["a"]
        assert result.home_type["g"] != result.home_type["m"]

    def test_weights(self, figure2_db):
        result = minimal_perfect_typing(figure2_db)
        assert sorted(result.weights.values()) == [2, 2]

    def test_perfectness(self, figure2_db):
        result = minimal_perfect_typing(figure2_db)
        assert verify_perfect(result, figure2_db)


class TestExample42:
    """Figure 4: the worked Stage 1 example."""

    def test_three_classes(self, figure4_db):
        result = minimal_perfect_typing(figure4_db)
        assert result.num_types == 3

    def test_homes_match_paper(self, figure4_db):
        result = minimal_perfect_typing(figure4_db)
        assert result.home_type["o2"] == result.home_type["o3"]
        assert result.home_type["o4"] != result.home_type["o2"]
        assert result.home_type["o1"] not in (
            result.home_type["o2"],
            result.home_type["o4"],
        )

    def test_extents_overlap(self, figure4_db):
        """M(tau2) = {o2, o3, o4}: o4 satisfies tau2 too (no negation)."""
        result = minimal_perfect_typing(figure4_db)
        tau2 = result.home_type["o2"]
        assert result.extents[tau2] == {"o2", "o3", "o4"}
        tau3 = result.home_type["o4"]
        assert result.extents[tau3] == {"o4"}

    def test_remark_41_equivalence(self, figure4_db):
        """Remark 4.1's pairwise test agrees with extent equality."""
        fixpoint = greatest_fixpoint(
            build_object_program(figure4_db), figure4_db
        )
        result = minimal_perfect_typing(figure4_db)
        objects = sorted(figure4_db.complex_objects())
        for oi in objects:
            for oj in objects:
                same_extent = (
                    fixpoint.members(object_type_name(oi))
                    == fixpoint.members(object_type_name(oj))
                )
                assert same_extent == equivalent_by_membership(fixpoint, oi, oj)
                same_home = result.home_type[oi] == result.home_type[oj]
                assert same_extent == same_home


class TestGeneralProperties:
    def test_every_object_in_own_type(self, figure2_db, figure4_db):
        """The identity assignment is a fixpoint, so o_k is always in
        the GFP of its own per-object type."""
        for db in (figure2_db, figure4_db):
            fixpoint = greatest_fixpoint(build_object_program(db), db)
            for obj in db.complex_objects():
                assert obj in fixpoint.members(object_type_name(obj))

    def test_regular_data_collapses_to_one_type(self, regular_people_db):
        result = minimal_perfect_typing(regular_people_db)
        assert result.num_types == 1
        assert result.weights[result.home_type["p0"]] == 10

    def test_canonical_names_are_stable(self, figure4_db):
        r1 = minimal_perfect_typing(figure4_db)
        r2 = minimal_perfect_typing(figure4_db.copy())
        assert r1.home_type == r2.home_type
        assert r1.program == r2.program

    def test_empty_database(self):
        db = DatabaseBuilder().build()
        result = matches_reference(db)
        assert result.num_types == 0

    def test_isolated_complex_object(self):
        db = DatabaseBuilder().complex("island").build()
        result = matches_reference(db)
        assert result.num_types == 1
        assert result.program.rule(result.home_type["island"]).size == 0
        # Beside a linked object the island keeps its own class, and
        # its empty rule's extent is every complex object.
        db = DatabaseBuilder().complex("island").attr("p", "name", "x").build()
        result = matches_reference(db)
        assert result.num_types == 2
        assert result.extents[result.home_type["island"]] == {"island", "p"}

    def test_defect_free_against_home_assignment(self, figure4_db):
        from repro.core.defect import compute_defect

        result = minimal_perfect_typing(figure4_db)
        report = compute_defect(
            result.program, figure4_db, result.assignment()
        )
        assert report.total == 0


class TestQuotientStage1:
    """Stage 1 runs the GFP over one object per bisimulation class; the
    per-object GFP is its reference."""

    def test_sorts_split_classes(self):
        """Two objects that differ only in the sort of one atomic value
        merge under plain local rules and split under sorted ones."""
        db = (
            DatabaseBuilder()
            .attr("p1", "year", 1998)
            .attr("p2", "year", "late")
            .build()
        )
        plain = matches_reference(db)
        assert plain.num_types == 1
        assert plain.weights == {"t1": 2}
        by_sort = matches_reference(db, sorted_local_rule)
        assert by_sort.num_types == 2
        assert by_sort.home_type["p1"] != by_sort.home_type["p2"]

    def test_self_loop(self):
        """A self-loop, a two-cycle and a three-cycle are bisimilar; a
        two-object chain is not, and neither of its objects lies in the
        cycles' extent."""
        db = (
            DatabaseBuilder()
            .link("a", "a", "next")
            .links([("b", "c", "next"), ("c", "b", "next")])
            .links([("d", "e", "next"), ("e", "f", "next"),
                    ("f", "d", "next")])
            .link("g", "h", "next")
            .build()
        )
        result = matches_reference(db)
        cycle = result.home_type["a"]
        assert {result.home_type[obj] for obj in "bcdef"} == {cycle}
        assert result.weights[cycle] == 6
        assert result.extents[cycle] == set("abcdef")
        assert result.home_type["g"] != cycle

    def test_atomic_object_shared_by_two_classes(self):
        """The class database copies one atomic object into two
        classes' pictures."""
        db = (
            DatabaseBuilder()
            .attr("p", "name", "Ann", atomic_id="shared")
            .link("f", "shared", "title")
            .attr("q", "name", "Bob")
            .build()
        )
        result = matches_reference(db)
        assert result.num_types == 2
        assert result.home_type["p"] == result.home_type["q"]
        assert result.home_type["f"] != result.home_type["p"]

    @pytest.mark.parametrize("local_rule_fn", [None, sorted_local_rule])
    @pytest.mark.parametrize("seed", [12, 13])
    def test_dbg(self, seed, local_rule_fn):
        matches_reference(make_dbg(seed=seed), local_rule_fn)

    def test_keeps_its_classes(self):
        """The typing keeps the map from every complex object to its
        class's smallest object; each home type is a union of
        classes."""
        db = make_dbg(seed=1998)
        result = minimal_perfect_typing(db)
        representative = result.representative
        assert set(representative) == set(db.complex_objects())
        for obj, rep in representative.items():
            assert rep <= obj
            assert result.home_type[obj] == result.home_type[rep]
        assert per_object_stage1(db).representative is None

    def test_classes_for_a_class_constant_start(self):
        db = (
            DatabaseBuilder()
            .attr("p1", "name", "A")
            .attr("p2", "name", "B")
            .attr("f", "ticker", "X")
            .build()
        )
        result = minimal_perfect_typing(db)
        start = result.assignment()
        assert result.classes_for(start) == result.representative
        known = dict(start, p2=start["p2"] | {"known"})
        assert result.classes_for(known) is None
        dropped = {obj: homes for obj, homes in start.items() if obj != "p1"}
        assert result.classes_for(dropped) is None
