"""Unit tests for the component partitioner (graph/partition.py)."""

import pytest

from repro.exceptions import DatabaseError
from repro.graph.builder import DatabaseBuilder
from repro.graph.database import Database
from repro.graph.partition import extract_shard, partition_database
from repro.graph.traversal import connected_components


def _components_db(sizes):
    """One chain component per entry of ``sizes`` (complex objects)."""
    db = Database()
    for index, size in enumerate(sizes):
        prefix = f"c{index}_"
        db.add_atomic(f"{prefix}leaf", index)
        db.add_link(f"{prefix}o0", f"{prefix}leaf", "v")
        for i in range(size - 1):
            db.add_link(f"{prefix}o{i}", f"{prefix}o{i + 1}", "next")
    return db


def test_partition_covers_and_disjoint():
    db = _components_db([5, 3, 2, 2])
    shards = partition_database(db, 2)
    covered = [obj for shard in shards for obj in shard.objects]
    assert sorted(covered) == sorted(db.objects())
    assert len(covered) == len(set(covered))
    assert sum(shard.num_complex for shard in shards) == db.num_complex


def test_partition_is_deterministic():
    db = _components_db([4, 4, 2, 1])
    first = partition_database(db, 3)
    second = partition_database(db, 3)
    assert [s.objects for s in first] == [s.objects for s in second]


def test_partition_balances_by_complex_load():
    db = _components_db([6, 3, 3])
    shards = partition_database(db, 2)
    assert len(shards) == 2
    # LPT: the 6-component seeds one bin, the two 3-components pack
    # into the other.
    assert sorted(s.num_complex for s in shards) == [6, 6]


def test_single_component_falls_back_to_one_shard():
    db = _components_db([12])
    assert len(connected_components(db)) == 1
    shards = partition_database(db, 4)
    assert len(shards) == 1
    assert shards[0].objects == frozenset(db.objects())
    assert shards[0].num_complex == db.num_complex


def test_num_shards_one_is_one_shard():
    db = _components_db([2, 2])
    shards = partition_database(db, 1)
    assert len(shards) == 1
    assert shards[0].num_components == 2


def test_max_objects_caps_packing():
    db = _components_db([4, 4, 4, 4])
    shards = partition_database(db, 2, max_objects=4)
    # Each 4-complex component needs its own bin under the cap.
    assert len(shards) == 4
    assert all(shard.num_complex == 4 for shard in shards)


def test_oversized_component_keeps_its_own_bin():
    db = _components_db([10, 1, 1])
    shards = partition_database(db, 2, max_objects=3)
    loads = sorted(shard.num_complex for shard in shards)
    # The 10-component exceeds the cap but is never split.
    assert loads[-1] == 10


def test_partition_empty_database():
    assert partition_database(Database(), 4) == []


def test_partition_rejects_bad_arguments():
    db = _components_db([2, 2])
    with pytest.raises(DatabaseError):
        partition_database(db, 0)
    with pytest.raises(DatabaseError):
        partition_database(db, 2, max_objects=0)


def test_extract_shard_roundtrip():
    db = _components_db([3, 2])
    for shard in partition_database(db, 2):
        sub = extract_shard(db, shard.objects)
        assert set(sub.objects()) == set(shard.objects)
        for obj in sub.objects():
            if db.is_atomic(obj):
                assert sub.value(obj) == db.value(obj)
            else:
                assert set(sub.out_edges(obj)) == set(db.out_edges(obj))


def test_extract_shard_rejects_open_edges():
    db = DatabaseBuilder().link("a", "b", "l").build()
    with pytest.raises(DatabaseError):
        extract_shard(db, ["a"])


def test_extract_shard_rejects_unknown_objects():
    db = DatabaseBuilder().link("a", "b", "l").build()
    with pytest.raises(DatabaseError):
        extract_shard(db, ["a", "b", "ghost"])
