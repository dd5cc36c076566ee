"""Property-based tests for sharded Stage 1 (repro.parallel.merge).

The central invariant of the parallel extractor: on any database, the
sharded Stage 1 — per-shard bisimulation classes merged and typed by
the production Stage 1 — *is* the sequential ``minimal_perfect_typing``,
every field of it, ``q_iterations`` included, under both rule
builders.  The strategies generate genuinely multi-component graphs —
the regime where sharding actually splits work — including
multi-root components, copies of one component that land in
different shards (whose classes the merge must unite), disconnected
atomic objects, and disjoint unions of the bisimulation suite's
graphs, with atomics of five sorts, self-loops and isolated objects.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.perfect import (
    local_rule,
    minimal_perfect_typing,
    verify_perfect,
)
from repro.core.sorts import sorted_local_rule
from repro.graph.database import Database
from repro.graph.partition import extract_shard, partition_database
from repro.parallel.merge import sharded_stage1
from tests.property.test_property_bisim import databases as small_databases

labels = st.sampled_from(["a", "b", "c"])


@st.composite
def component_edges(draw, prefix):
    """Random edges over one component's private object pool."""
    pool = [f"{prefix}o{i}" for i in range(4)]
    leaf = f"{prefix}leaf"
    edges = []
    for _ in range(draw(st.integers(1, 8))):
        src = draw(st.sampled_from(pool))
        dst = draw(st.one_of(st.sampled_from(pool), st.just(leaf)))
        if src != dst:
            edges.append((src, dst, draw(labels)))
    return edges


@st.composite
def multi_component_databases(draw):
    db = Database()
    num_components = draw(st.integers(1, 4))
    # Some components are exact copies of an earlier one: their objects
    # must land in the same global types even when the partitioner puts
    # the copies in different shards.
    blueprints = []
    for index in range(num_components):
        if blueprints and draw(st.booleans()):
            edges = [
                (f"d{index}_{s[3:]}", f"d{index}_{d[3:]}", l)
                for s, d, l in blueprints[0]
            ]
        else:
            edges = draw(component_edges(prefix=f"c{index}_"))
            blueprints.append(edges)
        leaf_added = False
        for src, dst, label in edges:
            if dst.endswith("leaf") and not leaf_added:
                db.add_atomic(dst, 0)
                leaf_added = True
            db.add_link(src, dst, label)
    if db.num_complex == 0:
        db.add_complex("solo")
    if draw(st.booleans()):
        # Disconnected atomic object: its own (all-atomic) component.
        db.add_atomic("stray_atom", 42)
    return db


def _disjoint_union(parts):
    """The parts side by side, every object id prefixed per part."""
    db = Database()
    for index, part in enumerate(parts):
        prefix = f"p{index}_"
        for obj, value in part.atomic_items():
            db.add_atomic(prefix + obj, value)
        for obj in part.complex_objects():
            db.add_complex(prefix + obj)
        for edge in part.edges():
            db.add_link(prefix + edge.src, prefix + edge.dst, edge.label)
    return db


@st.composite
def unions_of_small_databases(draw):
    parts = draw(st.lists(small_databases(), min_size=1, max_size=4))
    if draw(st.booleans()):
        parts.append(parts[0])  # a copy, possibly in another shard
    return _disjoint_union(parts)


@pytest.mark.parametrize("build", [local_rule, sorted_local_rule])
@given(
    st.one_of(multi_component_databases(), unions_of_small_databases()),
    st.integers(2, 4),
)
@settings(max_examples=80, deadline=None)
def test_sharded_stage1_is_minimal_perfect_typing(build, db, num_shards):
    assert sharded_stage1(
        db, num_shards, local_rule_fn=build
    ) == minimal_perfect_typing(db, local_rule_fn=build)


@given(multi_component_databases(), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_sharded_stage1_equals_sequential(db, num_shards):
    sharded = sharded_stage1(db, num_shards)
    assert sharded == minimal_perfect_typing(db)
    assert verify_perfect(sharded, db)


@given(multi_component_databases(), st.integers(2, 4), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_sharded_stage1_respects_max_objects(db, num_shards, cap):
    sharded = sharded_stage1(db, num_shards, max_objects=cap)
    assert sharded == minimal_perfect_typing(db)


@given(multi_component_databases(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_partition_invariants(db, num_shards):
    shards = partition_database(db, num_shards)
    covered = [obj for shard in shards for obj in shard.objects]
    assert sorted(covered) == sorted(db.objects())
    assert len(covered) == len(set(covered))
    assert sum(shard.num_complex for shard in shards) == db.num_complex
    for shard in shards:
        # Edge-closure: materialising the shard never raises, and the
        # shard's own edges are exactly the originals between members.
        sub = extract_shard(db, shard.objects)
        assert set(sub.edges()) == {
            edge for edge in db.edges() if edge.src in shard.objects
        }
