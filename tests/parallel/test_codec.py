"""Unit tests for the int-interned wire codec (repro.parallel.codec)."""

import pytest

from repro.core.perfect import minimal_perfect_typing
from repro.exceptions import ReproError
from repro.graph.builder import DatabaseBuilder
from repro.graph.database import Database
from repro.graph.partition import partition_database
from repro.parallel import codec
from repro.synth.datasets import make_dbg


def _edges(db):
    return sorted((e.src, e.label, e.dst) for e in db.edges())


def _atoms(db):
    return sorted(
        (obj, db.value(obj)) for obj in db.objects() if db.is_atomic(obj)
    )


@pytest.fixture(scope="module")
def dbg():
    return make_dbg(seed=1998)


class TestDatabaseRoundTrip:
    def test_dbg_round_trips(self, dbg):
        decoded, _strings = codec.decode_database(
            codec.encode_database(dbg)
        )
        assert decoded.num_objects == dbg.num_objects
        assert decoded.num_links == dbg.num_links
        assert _edges(decoded) == _edges(dbg)
        assert _atoms(decoded) == _atoms(dbg)

    def test_non_json_values_survive_via_pickle(self):
        builder = DatabaseBuilder()
        builder.attr("o1", "t", ("a", 1))
        builder.attr("o1", "n", 2.5)
        builder.attr("o2", "n", None)
        db = builder.build()
        decoded, _ = codec.decode_database(codec.encode_database(db))
        assert _atoms(decoded) == _atoms(db)

    def test_encoding_is_deterministic(self, dbg):
        assert codec.encode_database(dbg) == codec.encode_database(dbg)

    def test_empty_database(self):
        decoded, _ = codec.decode_database(codec.encode_database(Database()))
        assert decoded.num_objects == 0

    def test_garbage_is_rejected(self):
        with pytest.raises(ReproError):
            codec.decode_database(b"not a wire payload at all")


class TestTypingRoundTrip:
    def test_stage1_round_trips(self, dbg):
        stage1 = minimal_perfect_typing(dbg)
        wire = codec.encode_typing(stage1, distance_name="delta_2")
        decoded, distance_name = codec.decode_typing(wire)
        assert distance_name == "delta_2"
        assert decoded.extents == stage1.extents
        assert decoded.home_type == stage1.home_type
        assert decoded.weights == stage1.weights
        assert decoded.q_iterations == stage1.q_iterations
        assert {
            rule.name: rule.body for rule in decoded.program.rules()
        } == {rule.name: rule.body for rule in stage1.program.rules()}

    def test_assignment_matches(self, dbg):
        stage1 = minimal_perfect_typing(dbg)
        decoded, _ = codec.decode_typing(codec.encode_typing(stage1))
        assert decoded.assignment() == stage1.assignment()


class TestProgramRoundTrip:
    def test_stage1_program_round_trips(self, dbg):
        program = minimal_perfect_typing(dbg).program
        decoded = codec.decode_program(codec.encode_program(program))
        assert [rule.name for rule in decoded.rules()] == [
            rule.name for rule in program.rules()
        ]
        assert {
            rule.name: rule.body for rule in decoded.rules()
        } == {rule.name: rule.body for rule in program.rules()}

    def test_encoding_is_deterministic(self, dbg):
        program = minimal_perfect_typing(dbg).program
        assert codec.encode_program(program) == codec.encode_program(program)

    def test_garbage_is_rejected(self):
        with pytest.raises(ReproError):
            codec.decode_program(b"definitely not a program payload")

    def test_typing_wire_is_not_a_program(self, dbg):
        wire = codec.encode_typing(minimal_perfect_typing(dbg))
        with pytest.raises(ReproError):
            codec.decode_program(wire)


class TestPoolPayload:
    def test_payload_with_shards(self, dbg):
        shards = partition_database(dbg, 2)
        shard_objects = [shard.objects for shard in shards]
        payload, strings = codec.build_pool_payload(dbg, shard_objects)
        decoded_db, decoded_shards, loaded = codec.load_pool_payload(payload)
        assert _edges(decoded_db) == _edges(dbg)
        assert decoded_shards == [frozenset(s) for s in shard_objects]
        assert loaded == strings

    def test_payload_without_shards(self, dbg):
        payload, strings = codec.build_pool_payload(dbg)
        decoded_db, decoded_shards, loaded = codec.load_pool_payload(payload)
        assert decoded_shards is None
        assert decoded_db.num_objects == dbg.num_objects
        assert loaded == strings

    def test_string_table_covers_objects(self, dbg):
        _payload, strings = codec.build_pool_payload(dbg)
        assert set(dbg.objects()) <= set(strings)
