"""Property-based tests for sharded Stage 1 (repro.parallel.merge).

The central invariant of the parallel extractor: on any database, the
shard-and-reconcile Stage 1 equals the sequential
``minimal_perfect_typing`` (same program, homes, extents and weights;
only the ``q_iterations`` diagnostic may differ).  The strategy
generates genuinely multi-component graphs — the regime where sharding
actually splits work — including multi-root components, components
that collapse to identical types across shards (the case the
class-level reconcile GFP exists for), and disconnected atomic
objects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.perfect import minimal_perfect_typing, verify_perfect
from repro.graph.database import Database
from repro.graph.partition import extract_shard, partition_database
from repro.parallel.merge import merge_shard_typings, sharded_stage1

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


def _assert_same_typing(left, right):
    assert left.program == right.program
    assert left.home_type == right.home_type
    assert left.extents == right.extents
    assert left.weights == right.weights


@given(multi_component_databases(), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_sharded_stage1_equals_sequential(db, num_shards):
    sequential = minimal_perfect_typing(db)
    sharded = sharded_stage1(db, num_shards)
    _assert_same_typing(sharded, sequential)
    assert verify_perfect(sharded, db)


@given(multi_component_databases(), st.integers(2, 4), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_sharded_stage1_respects_max_objects(db, num_shards, cap):
    sequential = minimal_perfect_typing(db)
    sharded = sharded_stage1(db, num_shards, max_objects=cap)
    _assert_same_typing(sharded, sequential)


@given(multi_component_databases(), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_reconcile_modes_agree_three_ways(db, num_shards):
    """Sequential == full-db-GFP reconcile == restricted reconcile.

    The exactness claim for the distributed reconcile: the quotient +
    per-shard restricted GFP pass (``sharded_stage1``, the in-process
    twin of the pooled path) must produce the same typing as both the
    full-database GFP reconcile (``merge_shard_typings`` without
    ``reconcile=``) and the sequential Stage 1 on any generated
    multi-component database.
    """
    sequential = minimal_perfect_typing(db)
    full_gfp = merge_shard_typings(
        db,
        [
            minimal_perfect_typing(extract_shard(db, shard.objects))
            for shard in partition_database(db, num_shards)
        ],
    )
    restricted = sharded_stage1(db, num_shards)
    _assert_same_typing(full_gfp, sequential)
    _assert_same_typing(restricted, sequential)
    assert verify_perfect(restricted, db)


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
