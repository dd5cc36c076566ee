"""Reconciling shard-local Stage 1 typings into a global one.

Why this is sound
-----------------
The GFP extent of a per-object type is ``M(q:o) = {p : p ≽ o}`` under
mutual-step similarity, which is computed pairwise inside weakly-
connected components: whether ``p`` simulates ``o`` depends only on the
two objects' own components.  Running Stage 1 on a shard (a union of
whole components) therefore yields ``M_S(q:o) = M(q:o) ∩ S``, and two
shard objects with equal *restricted* extents are mutually similar —
hence, by transitivity of the similarity preorder, have equal *global*
extents.  Shard-local equivalence classes are exactly the global
classes restricted to the shard; what remains is to discover which
classes of *different* shards coincide.

That is a class-level problem: prefix-rename each shard's program
apart (``s<i>.``), union the programs, and run **one** GFP over the
full database.  The combined program has one rule per shard class —
``K`` classes, typically orders of magnitude fewer than the ``N``
per-object rules of ``Q_D`` — so the reconcile pass is cheap relative
to re-running Stage 1 sequentially.  Its extents are the global
``M(q:leader)`` of each class, and grouping classes by those extents
reproduces the sequential collapse exactly: same classes, same
smallest-home-object leaders, same canonical ``t1..tn`` names, same
representative rules and weights.  The only sequential field that
differs is the ``q_iterations`` diagnostic (work now happens in
several fixpoints); tests compare everything else.

Distributing the reconcile
--------------------------
At 100+ shards the single full-database GFP becomes the dominant
*sequential* tail of the parallel pipeline (Amdahl).  The same
component-closure argument that makes sharded Stage 1 exact also makes
the reconcile embarrassingly parallel: for every class ``q`` of the
combined program, ``M(q) = ⋃_i M(q) ∩ S_i`` and each restricted extent
``M(q) ∩ S_i`` is computable from shard ``i`` alone
(:func:`repro.core.fixpoint.greatest_fixpoint_restricted`).  Two
further facts make the distributed pass an outright algorithmic win
rather than a bare parallelism one:

* **Quotient before broadcast.**  Rule bodies are positive
  conjunctions, so collapsing syntactically bisimilar rules
  (:func:`repro.core.fixpoint.bisimulation_quotient`) preserves GFP
  extents exactly.  Databases with many structurally similar
  components — precisely the ones that shard well — shrink the
  ``shards × classes``-rule combined program to one rule per
  structurally distinct class, cutting the per-shard candidate pairs
  by the duplication factor.
* **Extents are shared per quotient class.**  The coordinator unions
  the per-shard extents per quotient class and shares one frozenset
  instance across all classes of a quotient class, so the
  extent-identity grouping below hashes each distinct extent once.

:func:`merge_shard_typings` accepts the distributed pass as an
injected ``reconcile`` callable, built by :func:`quotient_reconcile`
from a source of per-shard restricted fixpoints: the live worker pool
(:func:`repro.parallel.extractor.parallel_stage1`) or an in-process
loop (:func:`restricted_reconcile`).  Any failure falls back to the
full-database GFP (``parallel.reconcile_fallbacks``) so the parallel
path can never produce a worse answer than the sequential one.
"""

from __future__ import annotations

import logging
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.fixpoint import (
    bisimulation_quotient,
    greatest_fixpoint,
    greatest_fixpoint_restricted,
)
from repro.core.perfect import (
    PerfectTyping,
    canonical_typing,
    local_rule,
    minimal_perfect_typing,
)
from repro.core.typing_program import TypeRule, TypingProgram
from repro.exceptions import ClusteringError, ExecutionInterruptedError
from repro.graph.database import Database, ObjectId
from repro.graph.partition import extract_shard, partition_database
from repro.perf import PerfRecorder, resolve as _resolve_perf
from repro.runtime.budget import Budget

logger = logging.getLogger("repro.parallel.merge")

#: The injected reconcile pass: ``(combined program, budget)`` to
#: ``(extents by class name, iteration count)``.  Must cover every
#: type name of the combined program.
ReconcileFn = Callable[
    [TypingProgram, Optional[Budget]],
    Tuple[Dict[str, FrozenSet[ObjectId]], int],
]

#: The per-shard half of the distributed reconcile: ``(quotient
#: program, budget)`` to one ``(restricted extents by class name,
#: iteration count)`` pair per shard.
ShardFixpointsFn = Callable[
    [TypingProgram, Optional[Budget]],
    List[Tuple[Mapping[str, FrozenSet[ObjectId]], int]],
]

#: Separator between the shard prefix and the shard-local class name.
#: Shard-local names are ``t<i>`` and final names are ``t<i>``, so the
#: ``s<i>.`` prefix can never collide with either.
_SHARD_PREFIX = "s{index}."


def merge_shard_typings(
    db: Database,
    typings: Sequence[PerfectTyping],
    local_rule_fn=None,
    budget: Optional[Budget] = None,
    perf: Optional[PerfRecorder] = None,
    reconcile: Optional[ReconcileFn] = None,
) -> PerfectTyping:
    """Merge per-shard Stage 1 results into the global perfect typing.

    ``typings[i]`` must be the minimal perfect typing of shard ``i`` of
    an edge-closed partition of ``db`` (every complex object of ``db``
    appears in exactly one shard typing).  ``local_rule_fn`` must match
    the one the shards used.  Returns a :class:`PerfectTyping` equal to
    the sequential ``minimal_perfect_typing(db)`` in every field except
    ``q_iterations``.

    ``budget`` makes the reconcile pass *cancellation*-aware: only its
    token is honoured (via an otherwise-unlimited local budget), never
    its timeout or iteration cap — Stage 1 is the pipeline's mandatory
    minimum and must not degrade differently from the sequential path,
    but a Ctrl-C must be able to stop a large reconcile GFP mid-flight.

    ``reconcile`` optionally replaces the full-database GFP with a
    distributed or shard-restricted pass (see the module doc).  It must
    return extents for every class of the combined program;
    cancellation propagates, any other failure logs a warning, bumps
    ``parallel.reconcile_fallbacks`` and falls back to the full-db GFP.
    """
    recorder = _resolve_perf(perf)
    build = local_rule_fn if local_rule_fn is not None else local_rule
    gfp_budget: Optional[Budget] = None
    if budget is not None and budget.token is not None:
        gfp_budget = Budget(token=budget.token).start()

    # 1. Prefix-rename each shard's classes apart and pool the rules.
    with recorder.span("parallel.reconcile"):
        prefixed_rules: List[TypeRule] = []
        shard_members: Dict[str, List[ObjectId]] = {}
        for index, typing in enumerate(typings):
            prefix = _SHARD_PREFIX.format(index=index)
            rename = {
                name: prefix + name for name in typing.program.type_names()
            }
            for rule in typing.program.rules():
                prefixed_rules.append(
                    rule.rename_targets(rename).with_name(rename[rule.name])
                )
            for obj, home in typing.home_type.items():
                shard_members.setdefault(prefix + home, []).append(obj)
        combined = TypingProgram(prefixed_rules, check=False)

        # 2. Global extents of every shard class: either the injected
        # (distributed / shard-restricted) reconcile pass, or one
        # class-level GFP over the *full* database.
        extents_by_name: Optional[Dict[str, FrozenSet[ObjectId]]] = None
        reconcile_iterations = 0
        if reconcile is not None:
            try:
                extents_by_name, reconcile_iterations = reconcile(
                    combined, gfp_budget
                )
            except ExecutionInterruptedError:
                raise
            except Exception:
                logger.warning(
                    "distributed reconcile failed; falling back to the "
                    "full-database GFP",
                    exc_info=True,
                )
                recorder.incr("parallel.reconcile_fallbacks")
                extents_by_name = None
        if extents_by_name is None:
            fixpoint = greatest_fixpoint(
                combined, db, budget=gfp_budget, perf=perf
            )
            extents_by_name = {
                name: fixpoint.members(name)
                for name in combined.type_names()
            }
            reconcile_iterations = fixpoint.iterations
        recorder.incr("parallel.reconcile_classes", len(prefixed_rules))

        # 3. Group shard classes by global extent — the cross-shard
        # half of the sequential collapse — and name the groups as the
        # sequential collapse does.
        by_extent: Dict[FrozenSet[ObjectId], List[str]] = {}
        for name in combined.type_names():
            by_extent.setdefault(
                extents_by_name.get(name, frozenset()), []
            ).append(name)

        homes: Dict[FrozenSet[ObjectId], List[ObjectId]] = {}
        seen: set = set()
        for extent, names in by_extent.items():
            members: List[ObjectId] = []
            for name in names:
                members.extend(shard_members.get(name, ()))
            if not members:
                raise ClusteringError(
                    "shard typings do not cover the database: class(es) "
                    f"{sorted(names)} have no home objects"
                )
            for member in members:
                if member in seen:
                    raise ClusteringError(
                        f"object {member!r} appears in more than one shard "
                        "typing; shards must partition the database"
                    )
                seen.add(member)
            homes[extent] = members

        return canonical_typing(
            db,
            build,
            homes,
            sum(t.q_iterations for t in typings) + reconcile_iterations,
        )


def quotient_reconcile(
    shard_fixpoints: ShardFixpointsFn,
    perf: Optional[PerfRecorder] = None,
) -> ReconcileFn:
    """The distributed reconcile pass over a per-shard fixpoint source.

    Quotients the combined program
    (:func:`~repro.core.fixpoint.bisimulation_quotient` — exact for the
    positive rule bodies), evaluates it shard by shard through
    ``shard_fixpoints`` and unions the restricted extents per quotient
    class.  Extent-identical to the full-database GFP by the
    component-closure argument in the module doc.
    """
    recorder = _resolve_perf(perf)

    def run(
        combined: TypingProgram, gfp_budget: Optional[Budget]
    ) -> Tuple[Dict[str, FrozenSet[ObjectId]], int]:
        quotient, mapping = bisimulation_quotient(combined)
        recorder.incr("parallel.reconcile_quotient_rules", len(quotient))
        union: Dict[str, set] = {name: set() for name in quotient.type_names()}
        iterations = 0
        for extents, shard_iterations in shard_fixpoints(quotient, gfp_budget):
            iterations += shard_iterations
            for name, extent in extents.items():
                union[name] |= extent
            recorder.incr("parallel.reconcile_tasks")
        frozen = {name: frozenset(members) for name, members in union.items()}
        recorder.incr(
            "parallel.reconcile_members",
            sum(len(members) for members in frozen.values()),
        )
        return {name: frozen[rep] for name, rep in mapping.items()}, iterations

    return run


def restricted_reconcile(
    db: Database,
    shard_objects: Sequence[FrozenSet[ObjectId]],
    perf: Optional[PerfRecorder] = None,
) -> ReconcileFn:
    """In-process shard-restricted reconcile pass.

    Evaluates one
    :func:`~repro.core.fixpoint.greatest_fixpoint_restricted` per shard
    in this process — the exact algorithm the pooled path distributes,
    minus the worker pool.  Used by :func:`sharded_stage1` and by the
    property suite as the middle oracle between the sequential Stage 1
    and the distributed reconcile.
    """

    def shard_fixpoints(
        quotient: TypingProgram, gfp_budget: Optional[Budget]
    ) -> List[Tuple[Mapping[str, FrozenSet[ObjectId]], int]]:
        outcomes = []
        for objects in shard_objects:
            members = [obj for obj in objects if db.is_complex(obj)]
            fixpoint = greatest_fixpoint_restricted(
                quotient, db, members, budget=gfp_budget, perf=perf
            )
            outcomes.append((fixpoint.extents, fixpoint.iterations))
        return outcomes

    return quotient_reconcile(shard_fixpoints, perf)


def sharded_stage1(
    db: Database,
    num_shards: int,
    max_objects: Optional[int] = None,
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> PerfectTyping:
    """Stage 1 via sharding, in-process (no worker pool).

    The single-process skeleton of the parallel Stage 1: partition,
    type each shard independently, reconcile through
    :func:`restricted_reconcile` (the in-process twin of the
    distributed pass).  The process-pool extractor dispatches the same
    per-shard work to workers; the property-test suite uses this
    function to check the sharded result against the sequential oracle
    without multiprocessing noise.

    Per-shard typing runs inside a ``parallel.shard_stage1`` span so
    shard work and the reconcile pass stay separately attributable in
    the aggregated recorder (previously both landed in the same
    undifferentiated counters).
    """
    recorder = _resolve_perf(perf)
    shards = partition_database(db, num_shards, max_objects=max_objects)
    if len(shards) <= 1:
        # One giant component (or an empty/trivial database): the
        # documented fallback to the plain sequential path.
        return minimal_perfect_typing(
            db, local_rule_fn=local_rule_fn, perf=perf
        )
    with recorder.span("parallel.shard_stage1"):
        typings = [
            minimal_perfect_typing(
                extract_shard(db, shard.objects),
                local_rule_fn=local_rule_fn,
                perf=perf,
            )
            for shard in shards
        ]
    return merge_shard_typings(
        db,
        typings,
        local_rule_fn=local_rule_fn,
        perf=perf,
        reconcile=restricted_reconcile(
            db, [shard.objects for shard in shards], perf=perf
        ),
    )
