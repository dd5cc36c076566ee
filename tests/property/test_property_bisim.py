"""Property tests for partition refinement on random graphs.

``refine_partition`` agrees with a brute-force greatest bisimulation in
each direction and with synchronous Moore refinement round by round,
and its forward+backward blocks match Stage 1: bisimilar objects share
a home type, and Stage 1 on the bisimulation classes equals the
per-object Stage 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bisim.partition import Partition, refine_partition
from repro.core.perfect import minimal_perfect_typing
from repro.core.sorts import sorted_local_rule
from repro.graph.database import Database
from tests.bisim.oracle import greatest_bisimulation, synchronous_refinement
from tests.core.oracle import (
    per_object_stage1,
    stage1_fields,
    wrapped_local_rule,
)

labels = st.sampled_from(["a", "b", "c"])
objects = st.sampled_from([f"o{i}" for i in range(7)])

#: Atomic leaves of five sorts (int, float, string, date, none), so
#: sorted local pictures can split objects that plain ones merge.
LEAVES = {
    "leaf1": 1,
    "leaf2": 2,
    "leaf3": 2.5,
    "leaf4": "x",
    "leaf5": "2020-01-01",
    "leaf6": None,
}


@st.composite
def databases(draw):
    """Up to seven complex objects with self-loops, isolated objects
    and edges to atomic leaves of several sorts."""
    db = Database()
    for leaf, value in LEAVES.items():
        db.add_atomic(leaf, value)
    for _ in range(draw(st.integers(1, 16))):
        src = draw(objects)
        dst = draw(st.one_of(objects, st.sampled_from(sorted(LEAVES))))
        db.add_link(src, dst, draw(labels))
    for obj in draw(st.lists(objects, max_size=2)):
        db.add_complex(obj)
    return db


#: A leaf of a sort no other leaf has (``bool``): the twin's atomic
#: targets.
TWIN_LEAF = ("leaf7", True)


@st.composite
def sort_twin_databases(draw):
    """A :func:`databases` graph plus a twin of one complex object.

    The twin has the same complex edges, in and out (a self-loop
    becomes the twin's own), and the original's atomic edges go to
    :data:`TWIN_LEAF` instead, whose sort no original target has.  So
    the two differ only in the sorts of their atomic targets: plain
    local pictures put them in one bisimulation class, sorted ones
    must not.
    """
    db = draw(databases())
    leaf, value = TWIN_LEAF
    db.add_atomic(leaf, value)
    original = draw(st.sampled_from(sorted(db.complex_objects())))
    if not any(
        db.is_atomic(dst)
        for label in db.out_labels(original)
        for dst in db.targets_view(original, label)
    ):
        db.add_link(original, "leaf1", draw(labels))
    twin = "twin"
    for label in db.out_labels(original):
        for dst in list(db.targets_view(original, label)):
            if db.is_atomic(dst):
                dst = leaf
            elif dst == original:
                dst = twin
            db.add_link(twin, dst, label)
    for label in db.in_labels(original):
        for src in list(db.sources_view(original, label)):
            if src != original:
                db.add_link(src, twin, label)
    return db


@st.composite
def twin_databases(draw, base=None):
    """A graph drawn from ``base`` (default :func:`databases`) plus one
    to three twins.

    A twin copies a complex object, possibly an earlier twin, with all
    its edges in and out (a self-loop becomes the twin's own loop), so
    it is bisimilar to the original.  Twins of twins give classes of
    three or more members, and an object with an edge into an original
    gets a second edge of the same kind into the twin, so a class-level
    edge kind counts several edges.
    """
    db = draw(base if base is not None else databases())
    for n in range(draw(st.integers(1, 3))):
        original = draw(st.sampled_from(sorted(db.complex_objects())))
        twin = f"copy{n}"
        db.add_complex(twin)
        for label in db.out_labels(original):
            for dst in list(db.targets_view(original, label)):
                db.add_link(twin, twin if dst == original else dst, label)
        for label in db.in_labels(original):
            for src in list(db.sources_view(original, label)):
                if src != original:
                    db.add_link(src, twin, label)
    return db


@given(databases())
@settings(max_examples=80, deadline=None)
def test_forward_agrees_with_naive(db):
    flags = dict(use_outgoing=True, use_incoming=False)
    assert refine_partition(db, **flags) == greatest_bisimulation(db, **flags)


@given(databases())
@settings(max_examples=80, deadline=None)
def test_both_directions_agree_with_naive(db):
    flags = dict(use_outgoing=True, use_incoming=True)
    assert refine_partition(db, **flags) == greatest_bisimulation(db, **flags)


@given(databases())
@settings(max_examples=40, deadline=None)
def test_backward_only_agrees_with_naive(db):
    flags = dict(use_outgoing=False, use_incoming=True)
    assert refine_partition(db, **flags) == greatest_bisimulation(db, **flags)


@given(databases())
@settings(max_examples=40, deadline=None)
def test_result_is_stable(db):
    """Refining the result once more changes nothing."""
    partition = refine_partition(db)
    again = refine_partition(db, initial=partition)
    assert partition == again


@given(databases())
@settings(max_examples=60, deadline=None)
def test_bisimilar_objects_share_a_stage1_home(db):
    """Rule bodies are positive conjunctions over incoming and outgoing
    edges, so bisimilar objects lie in the same GFP extents: every block
    lies inside one home class of the per-object Stage 1."""
    home = per_object_stage1(db).home_type
    for block in refine_partition(db).blocks:
        assert len({home[obj] for obj in block}) == 1


DIRECTIONS = [
    dict(use_outgoing=True, use_incoming=True),
    dict(use_outgoing=True, use_incoming=False),
    dict(use_outgoing=False, use_incoming=True),
]


@pytest.mark.parametrize(
    "flags", DIRECTIONS, ids=["both", "forward", "backward"]
)
@given(db=databases(), split=st.lists(st.booleans(), min_size=7, max_size=7))
@settings(max_examples=80, deadline=None)
def test_rounds_match_synchronous_refinement(flags, db, split):
    """Round ``r`` of the engine is synchronous round ``r``: the depth-k
    partitions for ``max_rounds`` 0–3, the fixed point, and the fixed
    point from a two-block start partition."""
    for max_rounds in (0, 1, 2, 3, None):
        assert refine_partition(
            db, max_rounds=max_rounds, **flags
        ) == synchronous_refinement(db, max_rounds=max_rounds, **flags)
    objects = sorted(db.complex_objects())
    halves = [
        [obj for obj, bit in zip(objects, split) if bit is side]
        for side in (True, False)
    ]
    initial = Partition(tuple(frozenset(half) for half in halves if half))
    assert refine_partition(
        db, initial=initial, **flags
    ) == synchronous_refinement(db, initial=initial, **flags)


@pytest.mark.parametrize(
    "local_rule_fn", [None, sorted_local_rule, wrapped_local_rule]
)
@given(db=st.one_of(databases(), sort_twin_databases()))
@settings(max_examples=150, deadline=None)
def test_quotient_stage1_matches_per_object_reference(local_rule_fn, db):
    """Stage 1 on the bisimulation quotient equals the per-object GFP in
    program, home types, extents and weights, with plain, sorted and
    wrapped local rules — the three refinement starts.  Half the
    graphs hold a sort twin (:func:`sort_twin_databases`), which only
    a start that tells atomic sorts apart splits."""
    production = minimal_perfect_typing(db, local_rule_fn=local_rule_fn)
    reference = per_object_stage1(db, local_rule_fn)
    assert stage1_fields(production) == stage1_fields(reference)
