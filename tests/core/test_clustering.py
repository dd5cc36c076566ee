"""Unit tests for Stage 2 (greedy clustering)."""

import pytest

from repro.core.clustering import (
    EMPTY_TYPE,
    GreedyMerger,
    MergePolicy,
)
from repro.core.notation import parse_program
from repro.core.typing_program import TypedLink, TypingProgram, make_rule
from repro.exceptions import ClusteringError


def simple_program():
    return parse_program(
        """
        t1 = ->a^0, ->b^0
        t2 = ->a^0, ->b^0, ->c^0
        t3 = ->x^0, ->y^0, ->z^0
        """
    )


class TestBasics:
    def test_run_to_k(self):
        merger = GreedyMerger(simple_program(), {"t1": 10, "t2": 5, "t3": 8})
        result = merger.run_to(2)
        assert result.num_types == 2
        assert merger.num_types == 2

    def test_first_merge_is_cheapest_pair(self):
        """delta_2 = d * w2: merging t2 (w=5, d=1) into t1 costs 5."""
        merger = GreedyMerger(simple_program(), {"t1": 10, "t2": 5, "t3": 8})
        record = merger.step()
        assert (record.absorber, record.absorbed) == ("t1", "t2")
        assert record.cost == 5
        assert record.manhattan == 1

    def test_weights_accumulate(self):
        merger = GreedyMerger(simple_program(), {"t1": 10, "t2": 5, "t3": 8})
        merger.step()
        assert merger.current_weights()["t1"] == 15

    def test_total_cost_accumulates(self):
        merger = GreedyMerger(simple_program(), {"t1": 10, "t2": 5, "t3": 8})
        merger.run_to(1)
        assert merger.total_cost == pytest.approx(
            sum(r.cost for r in merger.result().records)
        )

    def test_merge_map_tracks_history(self):
        merger = GreedyMerger(simple_program(), {"t1": 10, "t2": 5, "t3": 8})
        result = merger.run_to(1)
        survivors = {v for v in result.merge_map.values()}
        assert len(survivors) == 1
        assert set(result.merge_map) == {"t1", "t2", "t3"}

    def test_k_validation(self):
        merger = GreedyMerger(simple_program(), {})
        with pytest.raises(ClusteringError):
            merger.run_to(0)
        with pytest.raises(ClusteringError):
            merger.run_to(7)

    def test_cannot_step_below_one(self):
        merger = GreedyMerger(simple_program(), {})
        merger.run_to(1)
        with pytest.raises(ClusteringError):
            merger.step()

    def test_reserved_name_rejected(self):
        bad = TypingProgram([make_rule(EMPTY_TYPE, atomic=["x"])])
        with pytest.raises(ClusteringError):
            GreedyMerger(bad, {})


class TestRelabeling:
    """Example 5.1: coalescing projects the hypercube onto diagonals."""

    EX51 = """
    p1 = ->a^0, ->b^p3
    p2 = ->a^0, ->b^p4
    p3 = ->a^0, ->b^p1
    p4 = ->a^0, ->b^p2
    """

    def test_coalescing_makes_types_identical(self):
        program = parse_program(self.EX51)
        merger = GreedyMerger(program, {n: 1 for n in program.type_names()})
        record = merger.step()
        # After merging, the two remaining referencing types have the
        # same body, so the next merge is free.
        second = merger.step()
        assert second.manhattan == 0
        assert second.cost == 0

    def test_superscripts_rewritten(self):
        program = parse_program(self.EX51)
        merger = GreedyMerger(program, {"p1": 9, "p2": 1, "p3": 5, "p4": 5})
        merger.step()  # cheapest: some w=1 or d-0 pair
        current = merger.current_program()
        for rule in current.rules():
            for link in rule.body:
                assert link.target in set(current.type_names()) | {"0"}

    def test_self_reference_follows_absorber(self):
        program = parse_program("a = ->l^b\nb = ->l^b")
        merger = GreedyMerger(program, {"a": 5, "b": 1})
        merger.run_to(1)
        (rule,) = merger.current_program().rules()
        (link,) = rule.body
        assert link.target == rule.name


class TestPolicies:
    TWO = "t1 = ->a^0, ->b^0\nt2 = ->b^0, ->c^0"

    def _merged_body(self, policy):
        program = parse_program(self.TWO)
        merger = GreedyMerger(
            program, {"t1": 10, "t2": 1}, policy=policy
        )
        merger.run_to(1)
        (rule,) = merger.current_program().rules()
        return {str(l) for l in rule.body}

    def test_absorb_keeps_absorber_body(self):
        assert self._merged_body(MergePolicy.ABSORB) == {"->a^0", "->b^0"}

    def test_union(self):
        assert self._merged_body(MergePolicy.UNION) == {
            "->a^0", "->b^0", "->c^0",
        }

    def test_intersection(self):
        assert self._merged_body(MergePolicy.INTERSECTION) == {"->b^0"}

    def test_weighted_center_majority(self):
        """Weight 10 vs 1: the heavy member's typed links win."""
        assert self._merged_body(MergePolicy.WEIGHTED_CENTER) == {
            "->a^0", "->b^0",
        }

    def test_weighted_center_balanced(self):
        program = parse_program(self.TWO)
        merger = GreedyMerger(
            program, {"t1": 5, "t2": 5}, policy=MergePolicy.WEIGHTED_CENTER
        )
        merger.run_to(1)
        (rule,) = merger.current_program().rules()
        # b has full support; a and c each have exactly half (>= 50% kept).
        assert {str(l) for l in rule.body} == {"->a^0", "->b^0", "->c^0"}


class TestEmptyType:
    def test_outlier_moved_to_empty(self):
        """Example 5.3's shape: a type sharing nothing with the others
        is cheaper to untype (d = |body|) than to merge (d = |body| +
        |other body|), so it goes to the empty type first."""
        program = parse_program(
            """
            big = ->a^0, ->b^0
            mid = ->a^0, ->b^0, ->c^0
            outlier = ->l1^0, ->l2^0, ->l3^0, ->l4^0, ->l5^0, ->l6^0, ->l7^0, ->l8^0
            """
        )
        merger = GreedyMerger(
            program,
            {"big": 100000, "mid": 1000, "outlier": 100},
            allow_empty_type=True,
        )
        result = merger.run_to(2)
        assert result.merge_map["outlier"] is None
        # The two real types survive untouched.
        assert result.merge_map["big"] == "big"
        assert result.merge_map["mid"] == "mid"

    def test_empty_move_record(self):
        program = parse_program("a = ->x^0\nhuge = ->y1^0, ->y2^0, ->y3^0")
        merger = GreedyMerger(
            program, {"a": 1000, "huge": 1}, allow_empty_type=True,
            empty_weight=1.0,
        )
        record = merger.step()
        assert record.absorber == EMPTY_TYPE
        assert record.absorbed == "huge"
        # d to the empty body is the body size.
        assert record.manhattan == 3

    def test_references_to_emptied_type_dropped(self):
        program = parse_program("a = ->x^0, ->r^b\nb = ->y1^0, ->y2^0, ->y3^0, ->y4^0")
        merger = GreedyMerger(
            program, {"a": 1000, "b": 1}, allow_empty_type=True,
            empty_weight=1.0,
        )
        merger.step()
        rule = merger.current_program().rule("a")
        assert {str(l) for l in rule.body} == {"->x^0"}

    def test_map_assignment_untypes_emptied(self):
        program = parse_program("a = ->x^0\nb = ->y1^0, ->y2^0, ->y3^0, ->y4^0")
        merger = GreedyMerger(
            program, {"a": 1000, "b": 1}, allow_empty_type=True,
            empty_weight=1.0,
        )
        merger.step()
        mapped = merger.result().map_assignment(
            {"o1": frozenset(["a"]), "o2": frozenset(["b"])}
        )
        assert mapped["o1"] == {"a"}
        assert mapped["o2"] == frozenset()


class TestDeterminism:
    def test_repeat_runs_identical(self):
        program = parse_program(
            "\n".join(f"t{i} = ->l{i}^0, ->shared^0" for i in range(8))
        )
        weights = {f"t{i}": (i * 7) % 5 + 1 for i in range(8)}
        r1 = GreedyMerger(program, weights).run_to(3)
        r2 = GreedyMerger(program, weights).run_to(3)
        assert r1.merge_map == r2.merge_map
        assert [
            (a.absorber, a.absorbed) for a in r1.records
        ] == [(a.absorber, a.absorbed) for a in r2.records]


class TestWeightedCenterMemberSync:
    """Regression: retargeting must rewrite *member* bodies even when the
    aggregated cluster body no longer mentions the retired type."""

    @staticmethod
    def _program():
        return parse_program(
            """
            A = ->name^0
            B = ->name^0, ->r^C
            C = ->c^0
            D = ->c^0
            E = ->name^0, ->r^D
            """
        )

    def test_minority_member_link_retargeted(self):
        for use_bitset in (True, False):  # kernel and frozenset oracle
            merger = GreedyMerger(
                self._program(),
                {"A": 3, "B": 1, "C": 1, "D": 1, "E": 3},
                policy=MergePolicy.WEIGHTED_CENTER,
                use_bitset=use_bitset,
            )
            # A absorbs B: ->r^C is a 1-of-4 minority, so the aggregated
            # body of A is just ->name^0 — but B's member body keeps ->r^C.
            merger.replay([("A", "B")])
            assert {
                str(l) for l in merger.current_program().rule("A").body
            } == {"->name^0"}
            # D absorbs C.  A's aggregated body does not mention C, but its
            # minority member does; the stale superscript used to survive
            # here and split the link's support forever after.
            merger.replay([("D", "C")])
            # A absorbs E: support for ->r^D is now 1 + 3 of 7 total weight,
            # a weighted majority — but only if the member was retargeted.
            merger.replay([("A", "E")])
            assert {
                str(l) for l in merger.current_program().rule("A").body
            } == {"->name^0", "->r^D"}

    def test_members_never_reference_retired_types(self):
        for use_bitset in (True, False):  # kernel and frozenset oracle
            merger = GreedyMerger(
                self._program(),
                {"A": 3, "B": 1, "C": 1, "D": 1, "E": 3},
                policy=MergePolicy.WEIGHTED_CENTER,
                use_bitset=use_bitset,
            )
            merger.replay([("A", "B")])
            merger.replay([("D", "C")])
            live = set(merger.current_program().type_names())
            space = merger.link_space
            for members in merger._members.values():
                for body, _ in members:
                    links = space.decode(body) if space is not None else body
                    for link in links:
                        assert link.is_atomic_target or link.target in live


class TestEmptyWeightDefault:
    def test_default_averages_positive_weights_only(self):
        program = parse_program("a = ->x^0\nb = ->y^0\nc = ->z^0")
        merger = GreedyMerger(
            program, {"a": 4.0, "b": 0.0, "c": 2.0}, allow_empty_type=True
        )
        # Weight-0 types (artifacts of restricted runs) must not drag
        # the mean down: (4 + 2) / 2, not (4 + 0 + 2) / 3.
        assert merger.empty_weight == pytest.approx(3.0)

    def test_default_falls_back_to_one_when_all_zero(self):
        program = parse_program("a = ->x^0\nb = ->y^0")
        merger = GreedyMerger(program, {}, allow_empty_type=True)
        assert merger.empty_weight == pytest.approx(1.0)

    def test_explicit_empty_weight_still_wins(self):
        program = parse_program("a = ->x^0\nb = ->y^0")
        merger = GreedyMerger(
            program, {"a": 9.0}, allow_empty_type=True, empty_weight=0.5
        )
        assert merger.empty_weight == pytest.approx(0.5)
