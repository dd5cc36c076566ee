"""Unit tests for the end-to-end SchemaExtractor pipeline."""

from dataclasses import replace

import pytest

from repro.core.clustering import MergePolicy
from repro.core.notation import format_program, parse_program
from repro.core.pipeline import SchemaExtractor
from repro.core.prior import PriorKnowledge
from repro.core.recast import RecastMode
from repro.exceptions import ClusteringError
from repro.graph.builder import DatabaseBuilder
from repro.perf import PerfRecorder
from repro.synth.datasets import make_dbg


@pytest.fixture
def three_group_db():
    builder = DatabaseBuilder()
    for i in range(8):
        builder.attr(f"p{i}", "name", f"n{i}")
        builder.attr(f"p{i}", "email", f"e{i}")
    for i in range(6):
        builder.attr(f"f{i}", "fname", f"fn{i}")
        builder.attr(f"f{i}", "ticker", f"t{i}")
    for i in range(4):
        builder.attr(f"x{i}", "serial", i)
    return builder.build()


class TestExtraction:
    def test_exact_k(self, three_group_db):
        result = SchemaExtractor(three_group_db).extract(k=3)
        assert result.num_types == 3
        assert result.chosen_k == 3
        assert result.defect.total == 0  # three clean groups

    def test_every_object_assigned(self, three_group_db):
        result = SchemaExtractor(three_group_db).extract(k=3)
        assert set(result.assignment) == set(
            three_group_db.complex_objects()
        )
        assert all(result.assignment.values())

    def test_auto_k_picks_near_three(self, three_group_db):
        """With only three perfect types the sweep has three samples and
        the chord rule lands on 2 or 3 — both defensible knees."""
        result = SchemaExtractor(three_group_db).extract()
        assert result.sensitivity is not None
        assert result.chosen_k in (2, 3)

    def test_k_above_perfect_is_clamped(self, three_group_db):
        result = SchemaExtractor(three_group_db).extract(k=50)
        assert result.num_types == result.num_perfect_types == 3

    def test_k1_merges_everything(self, three_group_db):
        result = SchemaExtractor(three_group_db).extract(k=1)
        assert result.num_types == 1
        assert result.defect.total > 0

    def test_describe_output(self, three_group_db):
        text = SchemaExtractor(three_group_db).extract(k=3).describe()
        assert "perfect types: 3" in text
        assert "optimal types: 3" in text
        assert "defect 0" in text


class TestOptions:
    def test_named_distance_resolution(self, three_group_db):
        for name in ("delta_1", "delta_2", "delta_3", "delta_4", "delta_5"):
            result = SchemaExtractor(three_group_db, distance=name).extract(k=2)
            assert result.num_types == 2

    def test_unknown_distance_rejected(self, three_group_db):
        with pytest.raises(ClusteringError):
            SchemaExtractor(three_group_db, distance="delta_9").extract(k=2)

    def test_callable_distance(self, three_group_db):
        calls = []

        def spy(w1, w2, d):
            calls.append((w1, w2, d))
            return d * w2

        SchemaExtractor(three_group_db, distance=spy).extract(k=2)
        assert calls

    def test_policies(self, three_group_db):
        for policy in MergePolicy:
            result = SchemaExtractor(three_group_db, policy=policy).extract(k=2)
            assert result.num_types == 2

    def test_strict_mode(self, three_group_db):
        result = SchemaExtractor(
            three_group_db, recast_mode=RecastMode.STRICT
        ).extract(k=3)
        assert result.defect.total == 0

    def test_empty_type_option(self, three_group_db):
        result = SchemaExtractor(
            three_group_db, allow_empty_type=True, empty_weight=1.0
        ).extract(k=2)
        assert result.num_types <= 2

    def test_roles_option_runs(self, soccer_movie_db):
        result = SchemaExtractor(soccer_movie_db, use_roles=True).extract(k=2)
        assert result.roles is not None
        assert result.roles.num_removed == 1
        assert result.num_types == 2
        # Cantona keeps both roles through the pipeline.
        assert len(result.assignment["o2"]) == 2

    def test_stage1_cached(self, three_group_db):
        extractor = SchemaExtractor(three_group_db)
        assert extractor.stage1() is extractor.stage1()

    @pytest.mark.parametrize("seed", [3, 7, 1998])
    def test_benchmark_oracle_call_matches_default(self, seed):
        """The reference call of the end-to-end benchmark's oracle:
        frozenset bodies plus the accepted no-op ``use_matrix`` /
        ``recast_memo`` keywords give the default extraction."""
        db = make_dbg(seed=seed)
        oracle = SchemaExtractor(
            db, use_bitset=False, use_matrix=False, recast_memo=False
        ).extract()
        default = SchemaExtractor(db).extract()
        assert format_program(oracle.program) == format_program(
            default.program
        )
        assert oracle.assignment == default.assignment
        assert oracle.defect.total == default.defect.total
        assert oracle.chosen_k == default.chosen_k


#: ``(seed, knobs)`` of the auto-k consistency cases.  The first three
#: set ``empty_weight`` or ``fallback``, which change the merge or the
#: recast, so a sweep that dropped them reads a different defect there.
SWEEP_KNOB_CASES = [
    (1998, dict(distance="delta_3", allow_empty_type=True, empty_weight=100)),
    (1998, dict(distance="delta_1", allow_empty_type=True, empty_weight=100)),
    (3, dict(recast_mode=RecastMode.STRICT, fallback="none")),
    (1998, dict(distance="delta_2", allow_empty_type=True)),
    (3, dict(recast_mode=RecastMode.STRICT)),
    (3, dict(fallback="none")),
    (7, dict()),
]


class TestSweepApi:
    def test_sweep_matches_extract_defect(self, three_group_db):
        extractor = SchemaExtractor(three_group_db)
        sweep = extractor.sweep()
        result = extractor.extract(k=2)
        assert sweep.point_at(2).defect == result.defect.total

    @pytest.mark.parametrize("seed,knobs", SWEEP_KNOB_CASES)
    def test_auto_k_point_matches_result(self, seed, knobs):
        """The sweep point auto-k chose measures the returned result."""
        result = SchemaExtractor(make_dbg(seed=seed), **knobs).extract(
            sweep_step=4
        )
        chosen = result.sensitivity.point_at(result.chosen_k)
        assert chosen.defect == result.defect.total


class TestClasses:
    """Stages 2–3 run on Stage 1's bisimulation classes; withholding
    them (the identity partition) must change nothing but the work."""

    @pytest.mark.parametrize("k", [None, 2, 7])
    def test_withheld_classes_change_nothing(self, k):
        db = make_dbg(seed=1998)
        extractor = SchemaExtractor(db)
        stage1 = extractor.stage1()
        withheld = SchemaExtractor(
            db, stage1=replace(stage1, representative=None)
        )
        fast, slow = extractor.extract(k=k), withheld.extract(k=k)
        assert fast.chosen_k == slow.chosen_k
        assert fast.program == slow.program
        assert fast.stage2 == slow.stage2
        assert fast.recast_result == slow.recast_result
        assert fast.defect == slow.defect
        if k is None:
            assert fast.sensitivity.points == slow.sensitivity.points

    def test_cover_checks_count_classes(self, three_group_db):
        """On the class path Stage 3 tests each (class, rule) once; a
        prior with a known member makes the start not class-constant,
        and Stage 3 tests each (object, rule)."""
        perf = PerfRecorder()
        SchemaExtractor(three_group_db, perf=perf).extract(k=2)
        assert perf.counter("recast.cover_checks") == 3 * 2
        prior = PriorKnowledge(
            program=parse_program("known = ->serial^0"),
            assignment={"x0": {"known"}},
        )
        perf = PerfRecorder()
        SchemaExtractor(three_group_db, prior=prior, perf=perf).extract(k=2)
        assert perf.counter("recast.cover_checks") == 18 * 2


class TestDualProblem:
    """The paper's dual formulation: smallest typing under a defect cap."""

    def test_zero_budget_returns_perfect_size_or_less(self, three_group_db):
        result = SchemaExtractor(three_group_db).extract_within_defect(0)
        assert result.defect.total == 0
        # Three clean groups: k = 3 is the smallest zero-defect typing.
        assert result.num_types == 3

    def test_generous_budget_shrinks_program(self, three_group_db):
        tight = SchemaExtractor(three_group_db).extract_within_defect(0)
        loose = SchemaExtractor(three_group_db).extract_within_defect(10**6)
        assert loose.num_types <= tight.num_types
        assert loose.num_types == 1

    def test_budget_respected(self, three_group_db):
        extractor = SchemaExtractor(three_group_db)
        sweep = extractor.sweep()
        mid = sorted(p.defect for p in sweep.points)[1]
        result = extractor.extract_within_defect(mid)
        assert result.defect.total <= mid

    def test_negative_budget_rejected(self, three_group_db):
        with pytest.raises(ClusteringError):
            SchemaExtractor(three_group_db).extract_within_defect(-1)
