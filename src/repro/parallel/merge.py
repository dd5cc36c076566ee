"""Merging shard-local Stage 1 results into the global perfect typing.

The sharded Stage 1 is the production Stage 1
(:func:`repro.core.perfect.minimal_perfect_typing`) cut at the
boundary between its two halves:

1. each shard — a union of whole weakly-connected components — runs
   :func:`~repro.core.perfect.bisimulation_classes` on its own: a map
   from every complex object of the shard to its class's
   representative, and the shard's class database;
2. the coordinator takes the disjoint union of the shards' class
   databases and runs the production Stage 1 on it:
   :func:`~repro.core.perfect.bisimulation_classes` again, which
   merges the classes that several shards share, then
   :func:`~repro.core.perfect.typing_from_classes` with the two
   representative maps composed, which runs Stage 1's GFP and collapse
   and lifts them to ``db``'s objects.

Why the result is the sequential one, field for field: bisimilarity
of two objects is decided inside their components, so a shard's
classes are ``db``'s classes restricted to the shard, and every
object is bisimilar to its shard representative.  A class database is
bisimilar to the database it quotients, so two shard representatives
are bisimilar in the union iff they are in ``db``.  The union's
quotient therefore has ``db``'s classes, each represented by the
smallest of its shard representatives — the class's smallest object,
as in the sequential run — and the union's class database is exactly
``db``'s.  The GFP, the collapse and the ``q_iterations`` count are
the ones :func:`minimal_perfect_typing` computes on ``db``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.perfect import (
    PerfectTyping,
    bisimulation_classes,
    minimal_perfect_typing,
    typing_from_classes,
)
from repro.exceptions import ClusteringError
from repro.graph.database import Database, ObjectId
from repro.graph.partition import extract_shard, partition_database
from repro.perf import PerfRecorder, resolve as _resolve_perf

#: One shard's bisimulation classes: the representative of every
#: complex object of the shard, and the shard's class database.
ShardClasses = Tuple[Mapping[ObjectId, ObjectId], Database]


def shard_classes(
    db: Database,
    objects: Iterable[ObjectId],
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> ShardClasses:
    """The bisimulation classes of the shard of ``db`` on ``objects``
    (step 1 of the module doc).

    A ``parallel.shard_stage1`` span times them, without the carving
    of the shard, so shard work stays attributable apart from the
    merge's ``parallel.reconcile`` span.
    """
    shard_db = extract_shard(db, objects)
    with _resolve_perf(perf).span("parallel.shard_stage1"):
        _, representative, class_db = bisimulation_classes(
            shard_db, local_rule_fn=local_rule_fn, perf=perf
        )
    return representative, class_db


def merge_shard_typings(
    db: Database,
    shards: Sequence[ShardClasses],
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> PerfectTyping:
    """The global perfect typing from per-shard bisimulation classes.

    ``shards[i]`` must be the classes of shard ``i`` of an edge-closed
    partition of ``db``, computed with the same ``local_rule_fn``
    (see the module doc).  Returns a :class:`PerfectTyping` equal to
    ``minimal_perfect_typing(db)`` in every field; its maps are keyed
    by ``db``'s own object ids.  Raises :class:`ClusteringError` when
    the shard maps do not cover every complex object of ``db`` exactly
    once.
    """
    recorder = _resolve_perf(perf)
    with recorder.span("parallel.reconcile"):
        union = Database()
        shard_rep: Dict[ObjectId, ObjectId] = {}
        covered = 0
        for representative, class_db in shards:
            covered += len(representative)
            shard_rep.update(representative)
            for obj, value in class_db.atomic_items():
                union.add_atomic(obj, value)
            for obj in class_db.complex_objects():
                union.add_complex(obj)
            for edge in class_db.edges():
                union.add_link(edge.src, edge.dst, edge.label)
        if covered != db.num_complex or not all(
            obj in shard_rep for obj in db.complex_objects()
        ):
            raise ClusteringError(
                "the shard classes must cover every complex object of "
                "the database exactly once"
            )
        quotient, union_rep, class_db = bisimulation_classes(
            union, local_rule_fn=local_rule_fn, perf=perf
        )
        representative = {
            obj: union_rep[shard_rep[obj]] for obj in db.complex_objects()
        }
        return typing_from_classes(
            db, quotient, representative, class_db,
            local_rule_fn=local_rule_fn, perf=perf,
        )


def sharded_stage1(
    db: Database,
    num_shards: int,
    max_objects: Optional[int] = None,
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> PerfectTyping:
    """Stage 1 via sharding, in-process (no worker pool).

    The in-process twin of :func:`repro.parallel.extractor.parallel_stage1`:
    partition, take each shard's classes as the pool workers do, merge.
    A partition of one shard runs the plain sequential Stage 1.
    """
    shards = partition_database(db, num_shards, max_objects=max_objects)
    if len(shards) <= 1:
        return minimal_perfect_typing(
            db, local_rule_fn=local_rule_fn, perf=perf
        )
    classes = [
        shard_classes(db, shard.objects, local_rule_fn, perf)
        for shard in shards
    ]
    return merge_shard_typings(
        db, classes, local_rule_fn=local_rule_fn, perf=perf
    )
