"""End-to-end integration tests across subsystems."""

import pytest

from repro.baselines.dataguide import build_dataguide
from repro.bisim.bisimulation import bisimulation_partition
from repro.core.defect import compute_defect
from repro.core.fixpoint import greatest_fixpoint
from repro.core.notation import format_program, parse_program
from repro.core.perfect import minimal_perfect_typing, verify_perfect
from repro.core.pipeline import SchemaExtractor
from repro.graph.json_codec import from_json
from repro.graph.oem import dumps_oem, loads_oem
from repro.query.evaluator import evaluate_path
from repro.query.optimizer import evaluate_with_schema
from repro.query.path import parse_path
from repro.synth.datasets import make_dbg, make_table1_database


class TestJsonToSchema:
    def test_json_ingest_then_extract(self):
        data = {
            "people": [
                {"name": "A", "email": "a@x"},
                {"name": "B", "email": "b@x"},
                {"name": "C", "email": "c@x"},
            ],
            "firms": [
                {"fname": "Acme", "ticker": "ACM"},
                {"fname": "Mega", "ticker": "MGA"},
            ],
        }
        db = from_json(data, root_id="root")
        result = SchemaExtractor(db).extract(k=3)  # root, people, firms
        assert result.defect.total == 0
        bodies = [
            {str(l) for l in rule.body} for rule in result.program.rules()
        ]
        assert any({"->name^0", "->email^0"} <= b for b in bodies)
        assert any({"->fname^0", "->ticker^0"} <= b for b in bodies)


class TestDbgPipeline:
    @pytest.fixture(scope="class")
    def dbg(self):
        return make_dbg(seed=1998)

    @pytest.fixture(scope="class")
    def extractor(self, dbg):
        return SchemaExtractor(dbg)

    def test_perfect_typing_is_large(self, extractor):
        """The Figure 1 claim: perfect typing an order of magnitude
        bigger than the 6-type optimum."""
        assert extractor.stage1().num_types > 40

    def test_stage1_is_perfect(self, dbg, extractor):
        assert verify_perfect(extractor.stage1(), dbg)

    def test_six_types_recover_concepts(self, dbg, extractor):
        result = extractor.extract(k=6)
        assert result.num_types == 6
        bodies = {
            rule.name: {str(l) for l in rule.body}
            for rule in result.program.rules()
        }
        # Exactly one type looks like a publication, one like a birthday,
        # one like a degree (their signature attributes are unique).
        pubs = [n for n, b in bodies.items() if "->conference^0" in b]
        bdays = [n for n, b in bodies.items() if "->month^0" in b]
        degrees = [n for n, b in bodies.items() if "->school^0" in b]
        assert len(pubs) == 1 and len(bdays) == 1 and len(degrees) == 1

    def test_knee_in_paper_range(self, extractor):
        sweep = extractor.sweep()
        assert 4 <= sweep.knee() <= 12

    def test_defect_decreases_with_k(self, extractor):
        sweep = extractor.sweep()
        d1 = sweep.point_at(1).defect
        d6 = sweep.point_at(6).defect
        dmax = sweep.points[-1].defect
        assert d1 > d6 > dmax == 0


class TestBaselineComparison:
    def test_perfect_typing_vs_bisimulation(self):
        db, _ = make_table1_database(5)
        stage1 = minimal_perfect_typing(db)
        bisim = bisimulation_partition(db, "both")
        # Both are "perfect" summaries and land in the same size regime.
        assert stage1.num_types > 100
        assert len(bisim) > 100
        # Bisimilar objects lie in the same GFP extents, so each block
        # sits inside one Stage 1 home class.
        for block in bisim.values():
            assert len({stage1.home_type[obj] for obj in block}) == 1

    def test_dataguide_on_rooted_data(self):
        data = {
            "member": [
                {"name": "A", "email": "a@x"},
                {"name": "B"},
            ],
        }
        db = from_json(data, root_id="root")
        guide = build_dataguide(db)
        assert guide.target_set(["member", "name"]) != frozenset()


class TestQueryIntegration:
    def test_extracted_schema_prunes_queries(self):
        db = make_dbg(seed=1998)
        result = SchemaExtractor(db).extract(k=6)
        query = parse_path("advisor.name")
        naive = evaluate_path(db, query)
        guided = evaluate_with_schema(
            db, query, result.program, result.recast_result.extents
        )
        # Guided search answers from a fraction of the starting points.
        assert guided.stats.starts_considered < naive.stats.starts_considered
        # And misses nothing the naive search found.
        assert naive.objects <= guided.objects | naive.objects
        assert guided.objects <= naive.objects


class TestSerializationPipeline:
    def test_oem_roundtrip_preserves_extraction(self):
        db, _ = make_table1_database(3)
        reloaded = loads_oem(dumps_oem(db))
        r1 = SchemaExtractor(db).extract(k=6)
        r2 = SchemaExtractor(reloaded).extract(k=6)
        assert format_program(r1.program) == format_program(r2.program)
        assert r1.defect.total == r2.defect.total
