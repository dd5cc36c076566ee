"""Unit tests for the excess/deficit/defect measures (Section 2).

Every count is checked on both paths: the mask kernel
(``compute_defect(use_bitset=True)``, the default) and the per-link
oracle (``use_bitset=False``, and :func:`compute_excess` /
:func:`compute_deficit` themselves).
"""

import pytest

from repro.core.defect import compute_defect, compute_deficit, compute_excess
from repro.core.notation import parse_program
from repro.core.typing_program import TypingProgram, make_rule
from repro.graph.builder import DatabaseBuilder

PATHS = (True, False)


def counts(program, db, assignment, use_bitset):
    """``(excess, deficit)`` of ``compute_defect`` on one path."""
    report = compute_defect(program, db, assignment, use_bitset=use_bitset)
    return report.excess.count, report.deficit.count


class TestExample22:
    """The paper's worked defect computation (Figure 3)."""

    TAU1 = {
        "o1": {"type1"}, "o2": {"type2"}, "o3": {"type3"}, "o4": {"type2"},
    }
    TAU2 = {
        "o1": {"type1"}, "o2": {"type2"}, "o3": {"type3"}, "o4": {"type3"},
    }

    def test_tau1_defect_is_two(self, figure3_db, example22_program):
        for use_bitset in PATHS:
            report = compute_defect(
                example22_program, figure3_db, self.TAU1,
                use_bitset=use_bitset,
            )
            assert report.excess.count == 1
            assert report.deficit.count == 1
            assert report.total == 2

    def test_tau1_details(self, figure3_db, example22_program):
        for use_bitset in PATHS:
            # Itemising always runs per link, whatever the path.
            report = compute_defect(
                example22_program, figure3_db, self.TAU1, collect=True,
                use_bitset=use_bitset,
            )
            # The invented fact: o4 needs an incoming a-edge from type1.
            (obj, link), = report.deficit.missing
            assert obj == "o4"
            assert str(link) == "<-a^type1"
            # The disregarded fact: o4's d-edge is used by no type.
            (edge,) = report.excess.unused_edges
            assert edge.src == "o4" and edge.label == "d"

    def test_tau2_defect_is_one(self, figure3_db, example22_program):
        for use_bitset in PATHS:
            assert counts(
                example22_program, figure3_db, self.TAU2, use_bitset
            ) == (1, 0)
        report = compute_defect(
            example22_program, figure3_db, self.TAU2, collect=True
        )
        (edge,) = report.excess.unused_edges
        assert edge.src == "o4" and edge.label == "c"


class TestExcess:
    def test_gfp_assignment_of_perfect_program_has_no_excess(
        self, figure2_db, p0_program
    ):
        from repro.core.fixpoint import greatest_fixpoint

        assignment = greatest_fixpoint(p0_program, figure2_db).assignment()
        report = compute_excess(p0_program, figure2_db, assignment)
        assert report.count == 0
        for use_bitset in PATHS:
            excess, _ = counts(p0_program, figure2_db, assignment, use_bitset)
            assert excess == 0

    def test_untyped_objects_make_all_their_edges_excess(
        self, figure2_db, p0_program
    ):
        report = compute_excess(p0_program, figure2_db, {})
        assert report.count == figure2_db.num_links
        for use_bitset in PATHS:
            assert counts(p0_program, figure2_db, {}, use_bitset) == (
                figure2_db.num_links, 0
            )

    def test_edge_used_via_incoming_requirement(self):
        db = DatabaseBuilder().link("parent", "child", "has").build()
        program = parse_program("p = <empty>\nc = <-has^p")
        assignment = {"parent": {"p"}, "child": {"c"}}
        report = compute_excess(program, db, assignment)
        assert report.count == 0
        for use_bitset in PATHS:
            assert counts(program, db, assignment, use_bitset) == (0, 0)

    def test_collect_edges_flag(self, figure2_db, p0_program):
        report = compute_excess(
            p0_program, figure2_db, {}, collect_edges=False
        )
        assert report.count == figure2_db.num_links
        assert report.unused_edges == ()

    def test_assignment_with_unknown_type_ignored(self, figure2_db, p0_program):
        """Types not in the program (e.g. merged away) impose nothing."""
        assignment = {"g": {"ghost-type"}}
        report = compute_excess(p0_program, figure2_db, assignment)
        assert report.count == figure2_db.num_links
        for use_bitset in PATHS:
            assert counts(p0_program, figure2_db, assignment, use_bitset) == (
                figure2_db.num_links, 0
            )


class TestDeficit:
    def test_gfp_never_yields_deficit(self, figure2_db, p0_program):
        """Section 2: greatest fixpoint semantics may lead to excess but
        cannot yield deficit."""
        from repro.core.fixpoint import greatest_fixpoint

        assignment = greatest_fixpoint(p0_program, figure2_db).assignment()
        report = compute_deficit(p0_program, figure2_db, assignment)
        assert report.count == 0
        for use_bitset in PATHS:
            _, deficit = counts(p0_program, figure2_db, assignment, use_bitset)
            assert deficit == 0

    def test_requirements_deduplicated_across_roles(self):
        """Two assigned types requiring the same missing typed link
        count once (one invented fact repairs both)."""
        db = DatabaseBuilder().attr("o", "x", 1).build()
        program = TypingProgram(
            [
                make_rule("t1", atomic=["x", "missing"]),
                make_rule("t2", atomic=["missing"]),
            ]
        )
        report = compute_deficit(program, db, {"o": {"t1", "t2"}})
        assert report.count == 1
        for use_bitset in PATHS:
            roles = {"o": {"t1", "t2"}}
            assert counts(program, db, roles, use_bitset) == (0, 1)

    def test_deficit_counts_distinct_requirements(self):
        db = DatabaseBuilder().complex("o").build()
        program = TypingProgram([make_rule("t", atomic=["x", "y"])])
        report = compute_deficit(program, db, {"o": {"t"}})
        assert report.count == 2
        for use_bitset in PATHS:
            assert counts(program, db, {"o": {"t"}}, use_bitset) == (0, 2)

    def test_out_requirement_needs_target_type(self):
        """An edge to an object NOT assigned the target type does not
        witness the requirement."""
        db = DatabaseBuilder().link("a", "b", "l").build()
        program = parse_program("t = ->l^u\nu = <empty>")
        missing = compute_deficit(program, db, {"a": {"t"}, "b": set()})
        assert missing.count == 1
        witnessed = compute_deficit(program, db, {"a": {"t"}, "b": {"u"}})
        assert witnessed.count == 0
        for use_bitset in PATHS:
            assert counts(
                program, db, {"a": {"t"}, "b": set()}, use_bitset
            ) == (1, 1)
            assert counts(
                program, db, {"a": {"t"}, "b": {"u"}}, use_bitset
            ) == (0, 0)

    def test_collect_missing_flag(self):
        db = DatabaseBuilder().complex("o").build()
        program = TypingProgram([make_rule("t", atomic=["x"])])
        report = compute_deficit(
            program, db, {"o": {"t"}}, collect_missing=False
        )
        assert report.count == 1
        assert report.missing == ()

    @pytest.mark.parametrize("use_bitset", PATHS)
    def test_one_fact_serving_two_objects_counts_twice(self, use_bitset):
        """The documented over-count: the deficit is an upper bound when
        one invented fact could serve two existing objects.  ``o``
        misses ``->a^c2`` and ``o'`` misses ``<-a^c1``; the single fact
        ``link(o, o', a)`` repairs both, yet the count is 2."""
        program = parse_program("c1 = ->a^c2\nc2 = <-a^c1")
        assignment = {"o": {"c1"}, "o'": {"c2"}}
        db = DatabaseBuilder().complex("o").complex("o'").build()
        assert counts(program, db, assignment, use_bitset) == (0, 2)
        db.add_link("o", "o'", "a")
        assert counts(program, db, assignment, use_bitset) == (0, 0)


class TestDefectReport:
    def test_total_and_summary(self, figure3_db, example22_program):
        for use_bitset in PATHS:
            report = compute_defect(
                example22_program, figure3_db, TestExample22.TAU1,
                use_bitset=use_bitset,
            )
            assert report.total == report.excess.count + report.deficit.count
            assert "defect 2" in report.summary()
            assert "excess 1" in report.summary()
