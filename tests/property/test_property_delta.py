"""Property-based tests for incremental Stage 1 maintenance.

The central invariant is *oracle equality*: on any database, any
mutation batch, :class:`Stage1Maintainer` produces exactly what
:func:`minimal_perfect_typing` produces from scratch on the post-batch
database (program, homes, extents and weights), including across
*chained* batches folded into one maintainer;

plus the drift-counter contract of
:class:`~repro.core.incremental.IncrementalTyper`: ``refresh`` resets
the counters iff it adopts a result, and ``stale()`` never trips below
``min_updates``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import Stage1Maintainer
from repro.core.incremental import IncrementalTyper
from repro.core.perfect import minimal_perfect_typing
from repro.core.pipeline import SchemaExtractor
from repro.graph.database import Database

labels = st.sampled_from(["a", "b", "c"])
objects = st.sampled_from([f"o{i}" for i in range(6)])
new_objects = st.sampled_from([f"n{i}" for i in range(3)])


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
def mutation_batches(draw):
    """A list of closures, each mutating the database one step."""
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            src, dst, label = draw(objects), draw(
                st.one_of(objects, new_objects, st.just("leaf"))
            ), draw(labels)
            if src != dst:
                ops.append(lambda d, s=src, t=dst, l=label: d.add_link(s, t, l))
        elif kind == 1:
            index = draw(st.integers(0, 30))

            def remove_nth_link(d, n=index):
                edges = sorted(d.edges())
                if edges:
                    edge = edges[n % len(edges)]
                    d.remove_link(edge.src, edge.dst, edge.label)

            ops.append(remove_nth_link)
        elif kind == 2:
            index = draw(st.integers(0, 30))

            def remove_nth_object(d, n=index):
                pool = sorted(d.complex_objects())
                if len(pool) > 1:
                    d.remove_object(pool[n % len(pool)])

            ops.append(remove_nth_object)
        else:
            obj = draw(new_objects)
            ops.append(lambda d, o=obj: d.add_complex(o))
    return ops


def apply_batch(db, batch):
    with db.track_changes() as log:
        for op in batch:
            op(db)
    return log


@given(databases(), mutation_batches())
@settings(max_examples=50, deadline=None)
def test_stage1_maintainer_matches_oracle(db, batch):
    maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
    log = apply_batch(db, batch)
    maintained = maintainer.apply(log)
    oracle = minimal_perfect_typing(db)
    assert maintained.program == oracle.program
    assert maintained.home_type == oracle.home_type
    assert maintained.extents == oracle.extents
    assert maintained.weights == oracle.weights


@given(databases(), mutation_batches(), mutation_batches())
@settings(max_examples=30, deadline=None)
def test_stage1_maintainer_chains(db, batch1, batch2):
    maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
    for batch in (batch1, batch2):
        log = apply_batch(db, batch)
        maintained = maintainer.apply(log)
        oracle = minimal_perfect_typing(db)
        assert maintained.extents == oracle.extents
        assert maintained.home_type == oracle.home_type


@given(databases(), mutation_batches(), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_refresh_resets_counters_iff_adopted(db, batch, min_updates):
    result = SchemaExtractor(db).extract(k=1)
    typer = IncrementalTyper(db, result, min_updates=min_updates)
    typer._updates, typer._fallbacks = 4, 3  # simulate prior drift

    empty = apply_batch(db, [])
    assert typer.refresh(empty) is None
    assert typer.drift().updates == 4  # not adopted -> not reset

    log = apply_batch(db, batch)
    refreshed = typer.refresh(log)
    if log.empty:
        assert refreshed is None
        assert typer.drift().updates == 4
    else:
        assert refreshed is not None
        assert typer.drift().updates == 0
        assert typer.drift().fallbacks == 0
        # adopted result equals a from-scratch rebuild
        oracle = SchemaExtractor(db).extract(k=typer._k)
        assert refreshed.program == oracle.program
        assert refreshed.assignment == oracle.assignment


@given(databases(), st.integers(1, 8), st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_stale_never_trips_below_min_updates(db, min_updates, edits):
    result = SchemaExtractor(db).extract(k=1)
    typer = IncrementalTyper(db, result, min_updates=min_updates)
    for i in range(edits):
        db.add_atomic(f"weird{i}", i)
        db.add_link(f"intruder{i}", f"weird{i}", f"odd{i}")
        typer.note_new_object(f"intruder{i}")
        if typer.drift().updates < min_updates:
            assert not typer.stale()
    assert typer.drift().updates == edits
