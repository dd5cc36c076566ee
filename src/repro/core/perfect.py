"""Stage 1: the minimal perfect typing (Section 4).

Given a database ``D``, the algorithm:

1. builds the program ``Q_D`` with one type per complex object, whose
   rule is the object's *local picture* — one typed link per incident
   edge (outgoing to atomic -> ``->l^0``, outgoing to a complex object
   ``o_i`` -> ``->l^{t_i}``, incoming from ``o_i`` -> ``<-l^{t_i}``);
2. computes the greatest fixpoint ``M`` of ``Q_D`` on ``D``;
3. collapses extent-equivalent types (``type_i ≡ type_j`` iff
   ``M(type_i) = M(type_j)``) into equivalence classes, picks one
   representative rule per class and rewrites its targets to class
   names.

The result is *perfect* — every object fits its home type with no
defect — and *minimal* in the sense that it is the coarsest
exact-fit classification (any perfect typing refines it).

Remark 4.1 of the paper gives a pairwise test for the equivalence
(``type_i ≡ type_j`` iff ``o_j ∈ M(type_i)`` and ``o_i ∈ M(type_j)``);
we group by extent directly — same result, near-linear with hashing —
and expose the remark as :func:`equivalent_by_membership` so the test
suite can verify the two characterisations agree.

Stage 1 on the bisimulation quotient
------------------------------------
Started from the signature upper bound, the GFP of ``Q_D`` costs time
quadratic in the objects that share a signature.
:func:`minimal_perfect_typing` runs it over one object per
bisimulation class instead:

1. :func:`repro.bisim.partition.refine_partition` computes the
   forward+backward bisimulation classes of the complex objects on
   ``D`` itself.  It starts from :func:`atomic_start`, the objects
   grouped by the atomic links their local pictures carry, so under
   :func:`repro.core.sorts.sorted_local_rule` classes split by sort.
   Each class is represented by its smallest object, so the work
   counters do not follow ``PYTHONHASHSEED``.
2. The *class database* holds one complex object per class, its
   representative, with the representative's atomic out-edges and
   its complex out-edges redirected to the targets' representatives.
   Incoming edges need no copy: the partition is stable, so every
   incoming ``l``-edge from a class ``C`` is mirrored by an outgoing
   ``l``-edge of ``C``'s representative into the owner's class, which
   the class database points at the owner's representative.  So ``Q``
   of the class database (:func:`build_object_program` on it) is
   exactly the quotient of ``Q_D``: each rule is a representative's
   local picture with every complex target renamed to its class, and
   bisimilar objects have equal renamed pictures.  ``Q_D`` of the
   whole database is never built.
3. The GFP runs on the class database, and the collapse groups
   classes by class-level extent.

Why this is exact: the GFP extent ``M(q:o)`` is the set of objects
that simulate ``o`` — over labelled outgoing and incoming edges to
typed neighbours, and over the atomic kinds of ``o``'s local picture.
Simulation is invariant under bisimulation (if ``p`` simulates ``o``,
every object bisimilar to ``p`` simulates every object bisimilar to
``o``), and each object of ``D`` is bisimilar to its class's
representative in the class database.  So ``p ∈ M(q:o)`` iff the
representative of ``p``'s class lies in the class-level extent of
``o``'s class, and a Stage 1 type's extent is the union of the
members of the classes in its class-level extent.

:func:`minimal_perfect_typing` is the two halves in a row:
:func:`bisimulation_classes` (steps 1–2) and
:func:`typing_from_classes` (step 3).  The sharded Stage 1
(:mod:`repro.parallel.merge`) runs the first half per shard and both
halves on the disjoint union of the shards' class databases.  Both
keep the classes on the typing (:attr:`PerfectTyping.representative`),
and Stages 2–3 run on them: the sweep's samples and Stage 3 read one
position per class (:class:`repro.core.recast.LocalIndex`), by the
same invariance argument (``DESIGN.md`` §5).

The per-object path — :func:`build_object_program` on ``D``,
:func:`repro.core.fixpoint.greatest_fixpoint` and
:func:`collapse_object_fixpoint` — stays as the oracle the test suite
compares against (``tests/core/oracle.py``); the differential maintainer
(:class:`repro.core.delta.Stage1Maintainer`) re-enters
:func:`collapse_object_fixpoint` with per-object extents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.bisim.partition import Partition, refine_partition
from repro.core.fixpoint import FixpointResult, greatest_fixpoint
from repro.core.sorts import sort_of, sorted_local_rule
from repro.core.typing_program import TypedLink, TypeRule, TypingProgram
from repro.graph.database import Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf

#: Prefix of the per-object type names in ``Q_D``; chosen so generated
#: names cannot collide with the canonical ``t<i>`` class names.
_Q_PREFIX = "q:"


def object_type_name(obj: ObjectId) -> str:
    """Name of the per-object type of ``obj`` in ``Q_D``."""
    return f"{_Q_PREFIX}{obj}"


def object_of_type_name(name: str) -> ObjectId:
    """Inverse of :func:`object_type_name`."""
    return name[len(_Q_PREFIX):]


def local_rule(db: Database, obj: ObjectId) -> TypeRule:
    """The local picture of ``obj`` as a ``Q_D`` rule (step 1)."""
    body = set()
    for edge in db.out_edges(obj):
        if db.is_atomic(edge.dst):
            body.add(TypedLink.to_atomic(edge.label))
        else:
            body.add(TypedLink.outgoing(edge.label, object_type_name(edge.dst)))
    for edge in db.in_edges(obj):
        body.add(TypedLink.incoming(edge.label, object_type_name(edge.src)))
    return TypeRule(object_type_name(obj), frozenset(body))


def build_object_program(db: Database, local_rule_fn=None) -> TypingProgram:
    """The program ``Q_D``: one type per complex object, in object order.

    ``local_rule_fn`` overrides how local pictures are built — the
    Remark 2.1 sorts extension passes
    :func:`repro.core.sorts.sorted_local_rule` here.
    """
    build = local_rule_fn if local_rule_fn is not None else local_rule
    return TypingProgram(
        [build(db, obj) for obj in sorted(db.complex_objects())], check=False
    )


def atomic_start(db: Database, local_rule_fn=None) -> Optional[Partition]:
    """The partition Stage 1's refinement starts from.

    Groups the complex objects by the atomic links their local
    pictures would carry, so bisimulation classes split wherever the
    rule builder tells atomic targets apart.  The plain builder needs
    no start (``None``): its atomic targets are all ``0``, which the
    refinement's single atomic block already encodes.  Under
    :func:`repro.core.sorts.sorted_local_rule` the groups are read
    straight from ``db`` — the set of ``(label, sort)`` over an
    object's atomic out-edges — and any other builder is called once
    per object and its rule's atomic links are the key.
    """
    if local_rule_fn is None or local_rule_fn is local_rule:
        return None
    if local_rule_fn is sorted_local_rule:
        def key(obj: ObjectId) -> FrozenSet:
            return frozenset(
                (label, sort_of(db.value(dst)))
                for label in db.out_labels(obj)
                for dst in db.targets_view(obj, label)
                if db.is_atomic(dst)
            )
    else:
        def key(obj: ObjectId) -> FrozenSet:
            return frozenset(
                link for link in local_rule_fn(db, obj).body
                if link.is_atomic_target
            )
    groups: Dict[FrozenSet, List[ObjectId]] = {}
    for obj in db.complex_objects():
        groups.setdefault(key(obj), []).append(obj)
    return Partition(tuple(frozenset(members) for members in groups.values()))


def equivalent_by_membership(
    fixpoint: FixpointResult, obj_i: ObjectId, obj_j: ObjectId
) -> bool:
    """Remark 4.1: ``type_i ≡ type_j`` iff each object belongs to the
    other's per-object type in the GFP of ``Q_D``."""
    return obj_j in fixpoint.members(object_type_name(obj_i)) and obj_i in (
        fixpoint.members(object_type_name(obj_j))
    )


@dataclass(frozen=True)
class PerfectTyping:
    """Result of Stage 1.

    Attributes
    ----------
    program:
        The minimal perfect typing program ``P_D`` with canonical type
        names ``t1 .. tn`` (ordered by smallest home object).
    home_type:
        Maps every complex object to its home type.
    extents:
        The GFP extents of ``P_D`` per type.  Extents may overlap —
        the program has no negation, so objects with *more* typed links
        than a rule requires also satisfy it (the paper's ODMG-style
        inheritance remark in Section 4.2).
    weights:
        Number of home objects per type — Stage 2's point weights.
    q_iterations:
        Type re-checks of the Stage 1 GFP (diagnostics).  Production
        Stage 1 runs the GFP on the bisimulation quotient, so this
        counts class-level work; the per-object oracle
        (:func:`collapse_object_fixpoint`) counts re-checks of the
        per-object types of ``Q_D``.
    representative:
        The bisimulation classes Stage 1 ran on: every complex object
        mapped to its class's representative, the class's smallest
        object (:func:`typing_from_classes`).  Stages 2–3 run on them
        (:meth:`classes_for`).  ``None`` for a typing built per object
        — the oracle and the differential maintainer — which Stages
        2–3 treat as the identity partition.
    """

    program: TypingProgram
    home_type: Dict[ObjectId, str]
    extents: Dict[str, FrozenSet[ObjectId]]
    weights: Dict[str, int]
    q_iterations: int
    representative: Optional[Mapping[ObjectId, ObjectId]] = None

    @property
    def num_types(self) -> int:
        """Size of the perfect typing (the "Perfect Types" Table 1 column)."""
        return len(self.program)

    def home_members(self, type_name: str) -> FrozenSet[ObjectId]:
        """Objects whose *home* is ``type_name`` (extent may be larger)."""
        return frozenset(
            obj for obj, home in self.home_type.items() if home == type_name
        )

    def assignment(self) -> Dict[ObjectId, FrozenSet[str]]:
        """Home assignment as an object -> set-of-types map."""
        return {obj: frozenset([home]) for obj, home in self.home_type.items()}

    def full_assignment(self) -> Dict[ObjectId, FrozenSet[str]]:
        """The complete GFP assignment: *every* type an object satisfies.

        Extents overlap, so an object can carry types beyond its home
        (the Section 4.2 inheritance remark).  The paper's zero-defect
        guarantee for the perfect typing holds under this assignment —
        a rule of the form ``->l^t2`` can be witnessed by a neighbour
        whose *home* is some ``t1`` but which also satisfies ``t2`` —
        while the collapsed home assignment can show a spurious deficit
        on such databases.
        """
        full: Dict[ObjectId, set] = {obj: set() for obj in self.home_type}
        for type_name, members in self.extents.items():
            for obj in members:
                full.setdefault(obj, set()).add(type_name)
        return {obj: frozenset(types) for obj, types in full.items()}

    def classes_for(
        self, assignment: Mapping[ObjectId, Optional[AbstractSet[str]]]
    ) -> Optional[Mapping[ObjectId, ObjectId]]:
        """Stage 1's classes, when ``assignment`` is class-constant.

        A starting home assignment is *class-constant* when it gives
        every member of a class its representative's homes (or none,
        like its representative).  Every Stage 1 type is a union of
        classes, so the Stage 1 homes, the roles and the empty type
        are; a prior with known members need not be.  Returns
        :attr:`representative` then, and ``None`` (the identity
        partition, one class per object) otherwise or without classes.
        """
        representative = self.representative
        if representative is None:
            return None
        get = assignment.get
        if all(get(obj) == get(rep) for obj, rep in representative.items()):
            return representative
        return None

    def apply_delta(
        self,
        db: Database,
        changes,
        local_rule_fn=None,
        budget=None,
        perf: Optional[PerfRecorder] = None,
    ) -> "PerfectTyping":
        """Fold one mutation batch into this typing differentially.

        ``db`` is the database *after* the batch and ``changes`` the
        :class:`~repro.graph.database.ChangeLog` recorded while it was
        applied; the result equals ``minimal_perfect_typing(db)``.
        One-shot convenience over
        :class:`repro.core.delta.Stage1Maintainer` — it pays a full
        signature-index build per call, so callers folding repeated
        batches should hold a maintainer (or use
        :meth:`repro.core.incremental.IncrementalTyper.refresh`)
        to amortise it.
        """
        from repro.core.delta import Stage1Maintainer

        maintainer = Stage1Maintainer(db, self, local_rule_fn=local_rule_fn)
        return maintainer.apply(changes, budget=budget, perf=perf)


def minimal_perfect_typing(
    db: Database,
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> PerfectTyping:
    """Run Stage 1 on ``db`` and return the :class:`PerfectTyping`.

    The GFP runs over one object per bisimulation class (see the
    module doc): :func:`bisimulation_classes` then
    :func:`typing_from_classes`.  ``local_rule_fn`` optionally
    overrides the local-picture builder (used by the Remark 2.1 sorts
    extension).  ``perf`` threads a :class:`repro.perf.PerfRecorder`
    into the GFP engine, times the stage's phases (spans
    ``stage1.quotient`` and ``stage1.collapse``) and counts the
    classes (``stage1.bisim_classes``).

    Example
    -------
    >>> from repro.graph import DatabaseBuilder
    >>> b = DatabaseBuilder()
    >>> for i in range(3):
    ...     _ = b.attr(f"p{i}", "name", f"n{i}")
    >>> result = minimal_perfect_typing(b.build())
    >>> result.num_types
    1
    """
    quotient, representative, class_db = bisimulation_classes(
        db, local_rule_fn=local_rule_fn, perf=perf
    )
    return typing_from_classes(
        db, quotient, representative, class_db,
        local_rule_fn=local_rule_fn, perf=perf,
    )


def bisimulation_classes(
    db: Database,
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> Tuple[TypingProgram, Dict[ObjectId, ObjectId], Database]:
    """Steps 1–2 of the module doc: the bisimulation classes of ``db``.

    Returns ``(quotient, representative, class_db)``: the quotient of
    ``Q_D``, which is ``Q`` of the class database; the map from every
    complex object to its class's representative (its smallest
    object); and the class database.
    """
    perf = _resolve_perf(perf)
    with perf.span("stage1.quotient"):
        partition = refine_partition(
            db, initial=atomic_start(db, local_rule_fn)
        )
        rep_of: Dict[ObjectId, ObjectId] = {}
        for block in partition.blocks:
            rep_of.update(dict.fromkeys(block, min(block)))
        # Keyed in object order, so the typing lists each class's home
        # objects in the same order on every run.
        representative = {obj: rep_of[obj] for obj in sorted(rep_of)}
        class_db = _class_database(db, representative)
        quotient = build_object_program(class_db, local_rule_fn)
    perf.incr("stage1.bisim_classes", len(quotient))
    return quotient, representative, class_db


def typing_from_classes(
    db: Database,
    quotient: TypingProgram,
    representative: Mapping[ObjectId, ObjectId],
    class_db: Database,
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> PerfectTyping:
    """Step 3 of the module doc: the GFP of ``quotient`` on
    ``class_db`` and the class-level collapse, lifted to ``db``'s
    objects through ``representative``.

    ``representative`` must map every complex object of ``db`` to an
    object of ``class_db`` it is bisimilar to; the Stage 1 types'
    home sets and extents are keyed by its keys, and the typing keeps
    it as :attr:`PerfectTyping.representative`.
    """
    perf = _resolve_perf(perf)
    build = local_rule_fn if local_rule_fn is not None else local_rule
    fixpoint = greatest_fixpoint(quotient, class_db, perf=perf)
    with perf.span("stage1.collapse"):
        members: Dict[ObjectId, List[ObjectId]] = {}
        for obj, rep in representative.items():
            members.setdefault(rep, []).append(obj)
        reps_by_extent: Dict[FrozenSet[ObjectId], List[ObjectId]] = {}
        for rep in members:
            reps_by_extent.setdefault(
                fixpoint.members(object_type_name(rep)), []
            ).append(rep)
        homes: Dict[FrozenSet[ObjectId], List[ObjectId]] = {}
        for class_extent, reps in reps_by_extent.items():
            extent = frozenset(
                obj for rep in class_extent for obj in members[rep]
            )
            homes[extent] = [obj for rep in reps for obj in members[rep]]
        return canonical_typing(
            db, build, homes, fixpoint.iterations, representative
        )


def _class_database(
    db: Database, representative: Mapping[ObjectId, ObjectId]
) -> Database:
    """One complex object per bisimulation class: its representative.

    Keeps the representative's atomic out-edges and points each
    complex out-edge at the target's representative (step 2 of the
    module doc); incoming edges follow from the mirrored out-edges.
    """
    class_db = Database()
    for rep in dict.fromkeys(representative.values()):
        class_db.add_complex(rep)
        for edge in db.out_edges(rep):
            if db.is_atomic(edge.dst):
                class_db.add_atomic(edge.dst, db.value(edge.dst))
                class_db.add_link(rep, edge.dst, edge.label)
            else:
                class_db.add_link(rep, representative[edge.dst], edge.label)
    return class_db


def collapse_object_fixpoint(
    db: Database, build, fixpoint: FixpointResult
) -> PerfectTyping:
    """Steps 2–3 on per-object extents: collapse extent-equivalent
    ``Q_D`` types into classes.

    ``fixpoint`` maps every per-object type name to its extent.  The
    per-object oracle of Stage 1 ends here, and the differential
    maintainer (:class:`repro.core.delta.Stage1Maintainer`) re-enters
    here with the incrementally maintained extents."""
    homes: Dict[FrozenSet[ObjectId], List[ObjectId]] = {}
    for obj in db.complex_objects():
        extent = fixpoint.members(object_type_name(obj))
        homes.setdefault(extent, []).append(obj)
    return canonical_typing(db, build, homes, fixpoint.iterations)


def canonical_typing(
    db: Database,
    build,
    homes: Mapping[FrozenSet[ObjectId], Sequence[ObjectId]],
    q_iterations: int,
    representative: Optional[Mapping[ObjectId, ObjectId]] = None,
) -> PerfectTyping:
    """Name Stage 1's classes and rebuild their rules (step 3).

    ``homes`` maps each class's GFP extent to its home objects; the
    home sets must partition the complex objects of ``db``.  Classes
    are named ``t1 .. tn`` in order of their smallest home object (the
    *leader*), so reruns on the same data are reproducible; each
    class's rule is the leader's local picture (``build``) with its
    targets renamed to class names, and its weight is its number of
    home objects.  Shared by the per-object collapse and Stage 1 on
    the quotient, which passes its classes as ``representative``.
    """
    classes = sorted(
        ((min(objs), objs, extent) for extent, objs in homes.items()),
        key=lambda group: group[0],
    )
    home_type: Dict[ObjectId, str] = {}
    extents: Dict[str, FrozenSet[ObjectId]] = {}
    weights: Dict[str, int] = {}
    leaders: Dict[str, ObjectId] = {}
    for index, (leader, objs, extent) in enumerate(classes, start=1):
        name = f"t{index}"
        extents[name] = extent
        weights[name] = len(objs)
        leaders[name] = leader
        for obj in objs:
            home_type[obj] = name

    rename = {object_type_name(obj): name for obj, name in home_type.items()}
    program = TypingProgram(
        build(db, leader).rename_targets(rename).with_name(name)
        for name, leader in leaders.items()
    )
    return PerfectTyping(
        program=program,
        home_type=home_type,
        extents=extents,
        weights=weights,
        q_iterations=q_iterations,
        representative=representative,
    )


def verify_perfect(typing: PerfectTyping, db: Database) -> bool:
    """Check that every object satisfies its home type's rule exactly.

    "Exactly" means: re-evaluating the GFP of ``P_D`` on ``db`` places
    every object in (at least) its home type.  Used by integration
    tests and the Table 1 harness as a sanity gate.
    """
    fixpoint = greatest_fixpoint(typing.program, db)
    return all(
        obj in fixpoint.members(home) for obj, home in typing.home_type.items()
    )

