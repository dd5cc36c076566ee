"""Property-based tests for the fixpoint engine and Stage 1.

The central invariants:

* the optimised GFP engine agrees with the naive top-down oracle and
  with the generic datalog engine on random databases and programs;
* the GFP is a fixpoint (one application of ``T_P`` changes nothing)
  and dominates the LFP;
* Stage 1 always yields a perfect (zero-defect) typing whose home
  extents partition the complex objects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.defect import compute_defect
from repro.core.fixpoint import (
    greatest_fixpoint,
    greatest_fixpoint_naive,
    least_fixpoint,
    satisfies_link,
)
from repro.core.perfect import minimal_perfect_typing, verify_perfect
from repro.core.typing_program import TypedLink, TypeRule, TypingProgram
from repro.datalog.evaluation import evaluate_gfp
from repro.datalog.translate import (
    database_to_edb,
    extents_from_relations,
    typing_program_to_datalog,
)
from repro.graph.database import Database

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
    """Random 1-3 type programs over labels a/b/c."""
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


@given(databases(), programs())
@settings(max_examples=60, deadline=None)
def test_gfp_engines_agree(db, program):
    fast = greatest_fixpoint(program, db)
    slow = greatest_fixpoint_naive(program, db)
    assert fast.extents == slow.extents


@given(databases(), programs())
@settings(max_examples=30, deadline=None)
def test_gfp_matches_generic_datalog(db, program):
    ours = greatest_fixpoint(program, db).extents
    generic = extents_from_relations(
        program,
        evaluate_gfp(typing_program_to_datalog(program), database_to_edb(db)),
    )
    assert {k: set(v) for k, v in ours.items()} == {
        k: set(v) for k, v in generic.items()
    }


@given(databases(), programs())
@settings(max_examples=60, deadline=None)
def test_gfp_is_a_fixpoint(db, program):
    """``T_P(M) = M``: a complex object is in a type's extent exactly
    when it satisfies the type's body under the result."""
    result = greatest_fixpoint(program, db)
    for rule in program.rules():
        for obj in db.complex_objects():
            satisfied = all(
                satisfies_link(db, obj, link, result.extents)
                for link in rule.body
            )
            assert (obj in result.members(rule.name)) == satisfied


@given(databases(), programs())
@settings(max_examples=60, deadline=None)
def test_lfp_below_gfp(db, program):
    gfp = greatest_fixpoint(program, db)
    lfp = least_fixpoint(program, db)
    for name in program.type_names():
        assert lfp.members(name) <= gfp.members(name)


@given(databases())
@settings(max_examples=50, deadline=None)
def test_stage1_is_always_perfect(db):
    stage1 = minimal_perfect_typing(db)
    assert verify_perfect(stage1, db)
    # Zero defect holds under the *full* GFP assignment: extents
    # overlap, and a rule like ->a^t2 may be witnessed by a neighbour
    # whose home is t1 but which also satisfies t2.  The collapsed
    # home assignment can show a spurious deficit on such databases
    # (see test_perfect_overlapping_extents below).
    report = compute_defect(stage1.program, db, stage1.full_assignment())
    assert report.total == 0


def test_perfect_overlapping_extents():
    """The minimal database where home-only defect is nonzero.

    o0 and o1 exchange `a` edges and o0 also points at o2, giving
    t1 = ->a^t1, ->a^t2, <-a^t1 and t2 = <-a^t1.  o1:t1 needs an
    ->a edge to a t2 object; its only target is o0, whose home is t1
    but which also lies in t2's extent — so the typing is perfect
    even though the home assignment alone shows a deficit.
    """
    db = Database()
    db.add_atomic("leaf", 0)
    db.add_link("o0", "o1", "a")
    db.add_link("o0", "o2", "a")
    db.add_link("o1", "o0", "a")
    stage1 = minimal_perfect_typing(db)
    assert verify_perfect(stage1, db)
    assert compute_defect(
        stage1.program, db, stage1.full_assignment()
    ).total == 0
    assert compute_defect(
        stage1.program, db, stage1.assignment()
    ).total == 1


@given(databases())
@settings(max_examples=50, deadline=None)
def test_stage1_homes_partition_objects(db):
    stage1 = minimal_perfect_typing(db)
    assert set(stage1.home_type) == set(db.complex_objects())
    assert sum(stage1.weights.values()) == db.num_complex
    # Every home type has at least one home object.
    assert all(w > 0 for w in stage1.weights.values())


@given(databases())
@settings(max_examples=50, deadline=None)
def test_stage1_home_inside_extent(db):
    stage1 = minimal_perfect_typing(db)
    for obj, home in stage1.home_type.items():
        assert obj in stage1.extents[home]
