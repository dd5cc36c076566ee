"""Additional Stage 2 coverage: candidate upkeep, cost semantics, traces."""

import pytest

from repro.core.clustering import GreedyMerger, MergePolicy
from repro.core.distance import delta_2
from repro.core.notation import parse_program
from repro.exceptions import ClusteringError


class TestCostSemantics:
    def test_delta2_equals_single_merge_defect_upper_bound(self):
        """Section 5.2: delta_2 'measures the defect exactly for a
        single coalescing' — check the cost formula literally."""
        program = parse_program("a = ->x^0, ->y^0\nb = ->x^0, ->z^0")
        merger = GreedyMerger(program, {"a": 7, "b": 3})
        record = merger.step()
        # d(a, b) = 2 (y vs z); w2 = 3 -> cost 6.
        assert record.manhattan == 2
        assert record.cost == 6

    def test_absorber_choice_prefers_light_moves(self):
        """With delta_2 the lighter type is always the one moved."""
        program = parse_program("heavy = ->x^0\nlight = ->y^0")
        merger = GreedyMerger(program, {"heavy": 100, "light": 1})
        record = merger.step()
        assert record.absorber == "heavy"
        assert record.absorbed == "light"

    def test_custom_distance_respected(self):
        """A distance preferring big-into-small reverses the direction."""

        def inverted(w1, w2, d):
            return d * w1  # price the absorber instead

        program = parse_program("heavy = ->x^0\nlight = ->y^0")
        merger = GreedyMerger(program, {"heavy": 100, "light": 1},
                              distance=inverted)
        record = merger.step()
        assert record.absorber == "light"
        assert record.absorbed == "heavy"


class TestHeapLaziness:
    def test_stale_candidates_never_fire(self):
        """After many merges, rows whose cheapest absorber merged away
        have been rescanned; every executed merge must reference two
        live types."""
        lines = [f"t{i} = ->l{i}^0, ->shared^0" for i in range(12)]
        program = parse_program("\n".join(lines))
        merger = GreedyMerger(
            program, {f"t{i}": i + 1 for i in range(12)}
        )
        seen_absorbed = set()
        while merger.num_types > 1:
            record = merger.step()
            assert record.absorbed not in seen_absorbed
            seen_absorbed.add(record.absorbed)
            assert record.absorber not in seen_absorbed

    def test_interleaved_inspection_is_safe(self):
        program = parse_program("a = ->x^0\nb = ->y^0\nc = ->z^0")
        merger = GreedyMerger(program, {"a": 1, "b": 2, "c": 3})
        merger.step()
        snapshot = merger.result()
        merger.step()
        final = merger.result()
        # The snapshot is unaffected by the later step.
        assert snapshot.num_types == 2
        assert final.num_types == 1
        assert len(snapshot.records) == 1


class TestTraceConsistency:
    def test_merge_map_consistent_with_records(self):
        program = parse_program(
            "a = ->x^0\nb = ->x^0, ->y^0\nc = ->z^0\nd = ->z^0, ->w^0"
        )
        merger = GreedyMerger(program, {"a": 4, "b": 3, "c": 2, "d": 1})
        result = merger.run_to(2)
        # Replay the records over the identity map; must land on the
        # final merge_map.
        replay = {name: name for name in ("a", "b", "c", "d")}
        for record in result.records:
            for original, current in replay.items():
                if current == record.absorbed:
                    replay[original] = record.absorber
        assert replay == result.merge_map

    def test_weights_match_home_counts(self):
        program = parse_program("a = ->x^0\nb = ->x^0, ->y^0\nc = ->z^0")
        weights = {"a": 5, "b": 2, "c": 9}
        result = GreedyMerger(program, weights).run_to(2)
        for survivor, weight in result.weights.items():
            members = [
                orig for orig, target in result.merge_map.items()
                if target == survivor
            ]
            assert weight == sum(weights[m] for m in members)
