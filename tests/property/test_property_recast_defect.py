"""Property-based tests for defect measures and Stage 3 invariants.

The mask kernel (``use_bitset=True``) of :func:`compute_defect` and
:func:`recast` is pinned against the per-link and frozenset oracles on
graphs with self-loops and leaves of several sorts, programs mixing
plain and sorted atomic links, and assignments that leave objects out,
give them no type, or name types outside the program.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.defect import compute_defect, compute_deficit, compute_excess
from repro.core.fixpoint import greatest_fixpoint
from repro.core.perfect import minimal_perfect_typing
from repro.core.recast import RecastMode, recast, satisfied_types
from repro.core.typing_program import (
    Direction,
    TypedLink,
    TypeRule,
    TypingProgram,
    atomic_target,
)
from repro.graph.database import Database
from repro.perf import PerfRecorder

labels = st.sampled_from(["a", "b", "c"])
objects = st.sampled_from([f"o{i}" for i in range(6)])


@st.composite
def databases(draw):
    db = Database()
    db.add_atomic("leaf", 0)
    for _ in range(draw(st.integers(1, 12))):
        src = draw(objects)
        dst = draw(st.one_of(objects, st.just("leaf")))
        if src == dst:
            continue
        db.add_link(src, dst, draw(labels))
    if db.num_complex == 0:
        db.add_complex("o0")
    return db


@st.composite
def programs(draw):
    names = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    rules = []
    for name in names:
        body = set()
        for _ in range(draw(st.integers(0, 3))):
            form = draw(st.integers(0, 2))
            label = draw(labels)
            target = draw(st.sampled_from(names))
            if form == 0:
                body.add(TypedLink.to_atomic(label))
            elif form == 1:
                body.add(TypedLink.outgoing(label, target))
            else:
                body.add(TypedLink.incoming(label, target))
        rules.append(TypeRule(name, frozenset(body)))
    return TypingProgram(rules)


@st.composite
def assignments(draw, db, program):
    names = list(program.type_names())
    out = {}
    for obj in db.complex_objects():
        chosen = draw(
            st.sets(st.sampled_from(names), max_size=len(names))
            if names
            else st.just(set())
        )
        out[obj] = frozenset(chosen)
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_defect_bounds(data):
    db = data.draw(databases())
    program = data.draw(programs())
    assignment = data.draw(assignments(db, program))
    excess = compute_excess(program, db, assignment)
    deficit = compute_deficit(program, db, assignment)
    # Excess is bounded by the number of links; deficit by the total
    # number of (object, typed-link) requirements.
    assert 0 <= excess.count <= db.num_links
    max_requirements = sum(
        len(
            {
                link
                for name in types
                if name in program
                for link in program.rule(name).body
            }
        )
        for types in assignment.values()
    )
    assert 0 <= deficit.count <= max_requirements
    report = compute_defect(program, db, assignment)
    assert report.total == excess.count + deficit.count


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_gfp_assignment_never_has_deficit(data):
    """Section 2: the GFP semantics cannot yield deficit."""
    db = data.draw(databases())
    program = data.draw(programs())
    assignment = greatest_fixpoint(program, db).assignment()
    assert compute_deficit(program, db, assignment).count == 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_empty_assignment_excess_is_all_links(data):
    db = data.draw(databases())
    program = data.draw(programs())
    assert compute_excess(program, db, {}).count == db.num_links


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_strict_recast_memberships_satisfy_one_step(data):
    """Every STRICT membership is one-step satisfiable under itself."""
    db = data.draw(databases())
    program = data.draw(programs())
    result = recast(program, db, mode=RecastMode.STRICT, fallback="none")
    for obj, types in result.assignment.items():
        sat = satisfied_types(program, db, obj, result.assignment)
        assert types <= sat


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_recast_extents_invert_assignment(data):
    db = data.draw(databases())
    program = data.draw(programs())
    result = recast(program, db, mode=RecastMode.STRICT)
    for type_name, members in result.extents.items():
        for obj in members:
            assert type_name in result.assignment[obj]
    for obj, types in result.assignment.items():
        for type_name in types:
            assert obj in result.extents[type_name]


@given(databases())
@settings(max_examples=40, deadline=None)
def test_full_pipeline_invariants(db):
    """End-to-end on random data: k respected, everyone assigned, and
    the defect at the perfect typing is zero."""
    from repro.core.pipeline import SchemaExtractor

    extractor = SchemaExtractor(db)
    stage1 = extractor.stage1()
    full = extractor.extract(k=stage1.num_types)
    assert full.num_types == stage1.num_types
    assert full.defect.total == 0
    small = extractor.extract(k=1)
    assert small.num_types == 1
    assert set(small.assignment) == set(db.complex_objects())


#: Leaves of five sorts; ``bool`` is a sort no leaf has, so a sorted
#: link to it is never witnessed.
LEAVES = {"leaf": 0, "leaf_f": 2.5, "leaf_s": "x", "leaf_d": "2020-01-01",
          "leaf_n": None}
SORTS = ["int", "float", "string", "date", "none", "bool"]


@st.composite
def rich_databases(draw):
    """Up to six complex objects with self-loops, isolated objects and
    edges to leaves of several sorts."""
    db = Database()
    for leaf, value in LEAVES.items():
        db.add_atomic(leaf, value)
    for _ in range(draw(st.integers(1, 14))):
        src = draw(objects)
        dst = draw(st.one_of(objects, st.sampled_from(sorted(LEAVES))))
        db.add_link(src, dst, draw(labels))
    for obj in draw(st.lists(objects, max_size=2)):
        db.add_complex(obj)
    return db


@st.composite
def rich_programs(draw):
    """Programs mixing plain and sorted atomic links with typed links."""
    names = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    rules = []
    for name in names:
        body = set()
        for _ in range(draw(st.integers(0, 4))):
            form = draw(st.integers(0, 3))
            label = draw(labels)
            target = draw(st.sampled_from(names))
            if form == 0:
                body.add(TypedLink.to_atomic(label))
            elif form == 1:
                sort = draw(st.sampled_from(SORTS))
                body.add(TypedLink(Direction.OUT, label, atomic_target(sort)))
            elif form == 2:
                body.add(TypedLink.outgoing(label, target))
            else:
                body.add(TypedLink.incoming(label, target))
        rules.append(TypeRule(name, frozenset(body)))
    return TypingProgram(rules)


@st.composite
def rich_assignments(draw, db, program):
    """Per complex object: left out (a quarter of the time), or a set
    of the program's types and a ``ghost`` type outside it (possibly
    empty)."""
    pool = sorted(program.type_names()) + ["ghost"]
    out = {}
    for obj in sorted(db.complex_objects()):
        if draw(st.integers(0, 3)) == 0:
            continue
        out[obj] = frozenset(draw(st.sets(st.sampled_from(pool), max_size=3)))
    return out


def _oracle_counts(program, db, assignment):
    return (
        compute_excess(program, db, assignment).count,
        compute_deficit(program, db, assignment).count,
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mask_defect_matches_per_link_counts(data):
    db = data.draw(rich_databases())
    program = data.draw(rich_programs())
    assignment = data.draw(rich_assignments(db, program))
    kernel = compute_defect(program, db, assignment, use_bitset=True)
    oracle = compute_defect(program, db, assignment, use_bitset=False)
    expected = _oracle_counts(program, db, assignment)
    assert (kernel.excess.count, kernel.deficit.count) == expected
    assert (oracle.excess.count, oracle.deficit.count) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_defect_typing_a_leaf_matches_per_link_counts(data):
    """A leaf with types (never a Stage 3 output) is measured too."""
    db = data.draw(rich_databases())
    program = data.draw(rich_programs())
    assignment = dict(data.draw(rich_assignments(db, program)))
    assignment[data.draw(st.sampled_from(sorted(LEAVES)))] = frozenset(
        program.type_names()
    )
    kernel = compute_defect(program, db, assignment, use_bitset=True)
    assert (kernel.excess.count, kernel.deficit.count) == _oracle_counts(
        program, db, assignment
    )


@pytest.mark.parametrize("fallback", ["closest", "none"])
@pytest.mark.parametrize("mode", list(RecastMode))
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_recast_paths_agree(mode, fallback, data):
    """Both recast paths give the same memberships, fallback and
    untyped objects, and count the same subset tests; homes leave
    objects out, name types outside the program and mark objects
    explicitly untyped (an empty set)."""
    db = data.draw(rich_databases())
    program = data.draw(rich_programs())
    home = data.draw(rich_assignments(db, program))
    if mode is RecastMode.STRICT and data.draw(st.booleans()):
        home = None
    results, checks = [], []
    for use_bitset in (True, False):
        perf = PerfRecorder()
        results.append(
            recast(
                program, db, home=home, mode=mode, fallback=fallback,
                perf=perf, use_bitset=use_bitset,
            )
        )
        checks.append(perf.counter("recast.cover_checks"))
    kernel, oracle = results
    assert kernel == oracle
    assert checks[0] == checks[1]
