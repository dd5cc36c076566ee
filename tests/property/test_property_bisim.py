"""Property tests for partition refinement on random graphs.

``refine_partition`` agrees with a brute-force greatest bisimulation in
each direction, and its forward+backward blocks match Stage 1: bisimilar
objects share a home type, quotienting ``Q_D`` groups the objects the
same way, and Stage 1 on the quotient equals the per-object Stage 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bisim.partition import Partition, refine_partition
from repro.core.fixpoint import bisimulation_quotient
from repro.core.perfect import (
    build_object_program,
    minimal_perfect_typing,
    object_type_name,
)
from repro.core.sorts import sorted_local_rule
from repro.graph.database import Database
from tests.bisim.oracle import greatest_bisimulation
from tests.core.oracle import per_object_stage1, stage1_fields

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


@given(databases())
@settings(max_examples=60, deadline=None)
def test_object_program_quotient_matches_refinement(db):
    """Quotienting ``Q_D`` by syntactic rule bisimilarity groups the
    complex objects exactly as graph bisimulation does."""
    _, mapping = bisimulation_quotient(build_object_program(db))
    groups = {}
    for obj in db.complex_objects():
        groups.setdefault(mapping[object_type_name(obj)], set()).add(obj)
    quotient = Partition(tuple(frozenset(g) for g in groups.values()))
    assert quotient.normalised() == refine_partition(db)


@pytest.mark.parametrize("local_rule_fn", [None, sorted_local_rule])
@given(db=databases())
@settings(max_examples=150, deadline=None)
def test_quotient_stage1_matches_per_object_reference(local_rule_fn, db):
    """Stage 1 on the bisimulation quotient equals the per-object GFP in
    program, home types, extents and weights, with plain and with
    sorted local rules."""
    production = minimal_perfect_typing(db, local_rule_fn=local_rule_fn)
    reference = per_object_stage1(db, local_rule_fn)
    assert stage1_fields(production) == stage1_fields(reference)
