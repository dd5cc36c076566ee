"""Greatest-fixpoint semantics of typing programs (Section 2).

For a database ``D`` and a typing program ``P``, the semantics of ``P``
is the *greatest* fixpoint of ``P`` on ``D``: the largest assignment of
complex objects to types such that every membership is justified by the
rule body.  (The least fixpoint would classify nothing for recursive
programs such as the person/firm example.)

Algorithm
---------
The immediate-consequence operator ``T_P`` restricted to complex
objects is monotone, so on the finite lattice of assignments the
decreasing sequence ``M, T_P(M), T_P(T_P(M)), ...`` converges to the
GFP whenever the start ``M`` is a *pre-fixpoint* (``T_P(M) ⊆ M``) that
contains the GFP.  Instead of starting from the top element (every
object in every type — quadratic in the database), we start from the
**signature upper bound**: object ``o`` is a candidate for type ``c``
iff for each typed link in the body of ``c``, ``o`` has an edge of the
corresponding *kind*, where a kind forgets the target type and only
remembers ``(direction, label, complex-or-atomic)``.

* It contains the GFP: a membership justified by actual typed objects
  in particular has edges of each required kind.
* It is a pre-fixpoint: if ``o ∈ T_P(M0)(c)`` then every typed link in
  the body of ``c`` is witnessed by an edge, so ``o``'s signature
  covers the body kinds and ``o ∈ M0(c)``.

Hence downward iteration from the signature bound converges exactly to
the GFP (the limit is a fixpoint and every fixpoint below the start is
below the limit; the GFP is below the start).

Worklist with object-level dirty tracking
-----------------------------------------
The iteration is a worklist over types with **object-level dirty
tracking**: every type is verified in full exactly once; afterwards,
when the extent of type ``j`` loses objects ``S``, a member ``o`` of a
dependent type can lose a witness only if ``o`` has an edge into ``S``
of the label/direction the dependent link requires.  Those objects are
enumerated through the database's reverse (and forward) adjacency
indexes — ``Database.sources_view`` / ``Database.targets_view``, built
once and maintained incrementally — and only they are re-verified.
The worklist is seeded in type-name order and bodies are checked in
:meth:`~repro.core.typing_program.TypeRule.sorted_body` order, so the
work counters do not depend on string-hash order (``PYTHONHASHSEED``).

Two further consequences of starting from the signature bound are
exploited:

* **atomic links are free** — a member of the bound has, by the
  superset test that put it there, an edge of every required atomic
  kind, which *is* the satisfaction condition for an atomic-target
  link; the database is immutable during the fixpoint, so those links
  can never fail and the engine only ever evaluates complex-target
  links;
* **failures are permanent** — extents only shrink, so verification
  stops at the first failing link (no resurrection to track).

Its oracle is :func:`greatest_fixpoint_naive`, the paper's
"straightforward method" (start from every object in every type,
iterate rounds); the test suite also checks it against the generic
datalog engine (:func:`repro.datalog.evaluation.evaluate_gfp`), and
``benchmarks/bench_perf_regression.py`` gates its wall time against
the naive one.

Stage 1 (:mod:`repro.core.perfect`) runs this engine once per
extraction, on its class database: one object per bisimulation class,
the classes found on the database itself by
:func:`repro.bisim.partition.refine_partition`.  The module also
provides the naive least fixpoint and membership explanations used by
the defect reports and the test suite.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.sorts import sort_of
from repro.core.typing_program import (
    Direction,
    is_atomic_name,
    TypedLink,
    TypeRule,
    TypingProgram,
)
from repro.graph.database import Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core)
    from repro.runtime.budget import Budget

logger = logging.getLogger("repro.core.fixpoint")

#: An extent map: type name -> set of complex objects.
Extents = Dict[str, FrozenSet[ObjectId]]

# A signature kind: (direction, label, marker) where the marker is
# "c" for a complex endpoint, "a" for an atomic endpoint of any sort,
# or "a:<sort>" for a sorted atomic endpoint (Remark 2.1).  Incoming
# links always have complex sources.
_Kind = Tuple[Direction, str, str]


def link_kind(link: TypedLink) -> _Kind:
    """The signature kind one typed link requires of its owner."""
    if not link.is_atomic_target:
        return (link.direction, link.label, "c")
    sort = link.sort
    return (link.direction, link.label, "a" if sort is None else f"a:{sort}")


def rule_kinds(rule: TypeRule) -> FrozenSet[_Kind]:
    """The set of edge kinds a rule's body requires.

    An object belongs to the rule's signature upper bound iff this set
    is a subset of its :func:`object_signature` — the candidacy test
    shared by :func:`greatest_fixpoint` and the incremental Stage 1 in
    :mod:`repro.core.delta`.
    """
    return frozenset(link_kind(link) for link in rule.body)


def object_signature(db: Database, obj: ObjectId) -> FrozenSet[_Kind]:
    """The edge-kind signature of a complex object.

    Contains ``(OUT, l, "a")`` (and ``(OUT, l, "a:<sort>")``) when
    ``obj`` has an outgoing ``l``-edge to an atomic object,
    ``(OUT, l, "c")`` when it has one to a complex object, and
    ``(IN, l, "c")`` when it has an incoming ``l``-edge.  Atomic edges
    emit both the generic and the sorted kind so the signature covers
    plain and sorted requirements alike.
    """
    kinds: Set[_Kind] = set()
    for edge in db.out_edges(obj):
        if db.is_atomic(edge.dst):
            kinds.add((Direction.OUT, edge.label, "a"))
            kinds.add(
                (Direction.OUT, edge.label, f"a:{sort_of(db.value(edge.dst))}")
            )
        else:
            kinds.add((Direction.OUT, edge.label, "c"))
    for edge in db.in_edges(obj):
        kinds.add((Direction.IN, edge.label, "c"))
    return frozenset(kinds)


@dataclass(frozen=True)
class FixpointResult:
    """Outcome of a fixpoint computation.

    Attributes
    ----------
    extents:
        Type name -> frozen set of member objects.
    iterations:
        Number of type re-checks performed (a work measure, not a
        round count).
    """

    extents: Extents
    iterations: int

    def members(self, type_name: str) -> FrozenSet[ObjectId]:
        """Extent of one type (empty if the type has an empty extent)."""
        return self.extents.get(type_name, frozenset())

    def types_of(self, obj: ObjectId) -> FrozenSet[str]:
        """All types containing ``obj``."""
        return frozenset(
            name for name, members in self.extents.items() if obj in members
        )

    def assignment(self) -> Dict[ObjectId, FrozenSet[str]]:
        """Invert the extents into an object -> types map."""
        inverted: Dict[ObjectId, Set[str]] = {}
        for name, members in self.extents.items():
            for obj in members:
                inverted.setdefault(obj, set()).add(name)
        return {obj: frozenset(types) for obj, types in inverted.items()}

    def nonempty_types(self) -> FrozenSet[str]:
        """Types with at least one member."""
        return frozenset(n for n, m in self.extents.items() if m)


def satisfies_link(
    db: Database,
    obj: ObjectId,
    link: TypedLink,
    extents: Mapping[str, Set[ObjectId]],
) -> bool:
    """Whether ``obj`` satisfies one typed link under ``extents``."""
    if link.direction is Direction.OUT:
        neighbours = db.targets_view(obj, link.label)
        if link.is_atomic_target:
            sort = link.sort
            if sort is None:
                return any(db.is_atomic(n) for n in neighbours)
            return any(
                db.is_atomic(n) and sort_of(db.value(n)) == sort
                for n in neighbours
            )
        members = extents.get(link.target)
        if not members:
            return False
        return any(n in members for n in neighbours)
    members = extents.get(link.target)
    if not members:
        return False
    return any(n in members for n in db.sources_view(obj, link.label))


def _signature_upper_bound(
    program: TypingProgram,
    db: Database,
    perf: PerfRecorder,
    budget: Optional["Budget"] = None,
) -> Dict[str, Set[ObjectId]]:
    """The pre-fixpoint start assignment described in the module doc.

    ``budget`` is checked (never charged) once per rule, so a tripped
    limit stops a large program here rather than at the worklist's
    first step.
    """
    # Group objects by signature so the superset tests run once per
    # distinct signature rather than once per object.
    by_signature: Dict[FrozenSet[_Kind], List[ObjectId]] = {}
    for obj in db.complex_objects():
        by_signature.setdefault(object_signature(db, obj), []).append(obj)
    bound: Dict[str, Set[ObjectId]] = {}
    for rule in program.rules():
        if budget is not None:
            budget.check()
        required = rule_kinds(rule)
        members: Set[ObjectId] = set()
        for signature, objs in by_signature.items():
            if required <= signature:
                members.update(objs)
        bound[rule.name] = members
    perf.incr("gfp.signatures", len(by_signature))
    return bound


def dependent_links(
    program: TypingProgram,
) -> Dict[str, List[Tuple[str, TypedLink]]]:
    """``j -> [(dependent type, the link of its body targeting j)]``.

    Built in type-name order over :meth:`TypeRule.sorted_body`, so the
    worklists that consume it do not follow string-hash order.
    """
    dependents: Dict[str, List[Tuple[str, TypedLink]]] = {}
    for rule in sorted(program.rules(), key=lambda r: r.name):
        for link in rule.sorted_body():
            if not is_atomic_name(link.target):
                dependents.setdefault(link.target, []).append((rule.name, link))
    return dependents


def greatest_fixpoint(
    program: TypingProgram,
    db: Database,
    budget: Optional["Budget"] = None,
    perf: Optional[PerfRecorder] = None,
) -> FixpointResult:
    """Compute the greatest fixpoint of ``program`` on ``db``.

    Parameters
    ----------
    program:
        The typing program.  Only complex objects are classified;
        atomic objects implicitly form ``type_0``.
    db:
        The database.
    budget:
        Optional :class:`~repro.runtime.budget.Budget` charged one unit
        per type re-check and checked once per rule while the
        signature bound is built; a tripped limit unwinds with
        :class:`~repro.exceptions.BudgetExceededError` (the iteration
        is downward-monotone, so there is no meaningful partial GFP —
        callers degrade at a stage boundary instead).
    perf:
        Optional :class:`~repro.perf.PerfRecorder`.  Records the spans
        ``gfp.signature_bound`` / ``gfp.iterate`` and the counters
        ``gfp.signatures``, ``gfp.type_rechecks``, ``gfp.object_checks``
        (bodies verified), ``gfp.satisfaction_checks`` (per-object
        typed-link evaluations — the work measure the dirty tracking
        and the atomic-link elision reduce) and ``gfp.objects_removed``.

    Returns a :class:`FixpointResult` with the GFP extents.
    """
    perf = _resolve_perf(perf)
    with perf.span("gfp.signature_bound"):
        extents = _signature_upper_bound(program, db, perf, budget)

    dependents = dependent_links(program)
    # Atomic-target links hold by construction for every member of the
    # signature bound (see the module doc), so only complex-target
    # links are ever evaluated.
    complex_body: Dict[str, Tuple[TypedLink, ...]] = {
        rule.name: tuple(
            l for l in rule.sorted_body() if not l.is_atomic_target
        )
        for rule in program.rules()
    }

    # Dirty protocol: ``None`` means the type still awaits its initial
    # full verification (which subsumes any dirty marks); afterwards a
    # set of objects that may have lost a witness since the last check.
    dirty: Dict[str, Optional[Set[ObjectId]]] = {name: None for name in extents}
    queue = deque(sorted(extents))
    queued: Set[str] = set(extents)
    iterations = 0
    object_checks = 0
    satisfaction_checks = 0
    objects_removed = 0
    with perf.span("gfp.iterate"):
        while queue:
            if budget is not None:
                budget.charge()
            name = queue.popleft()
            queued.discard(name)
            iterations += 1
            members = extents[name]
            pending = dirty[name]
            dirty[name] = set()
            if not members:
                continue
            body = complex_body[name]
            if not body:
                continue
            if pending is None:
                to_check = members
            else:
                to_check = pending & members
                if not to_check:
                    continue
            object_checks += len(to_check)
            removed = set()
            for obj in to_check:
                for link in body:
                    satisfaction_checks += 1
                    if not satisfies_link(db, obj, link, extents):
                        removed.add(obj)
                        break
            if not removed:
                continue
            extents[name] = members - removed
            objects_removed += len(removed)
            # Object-level dirty propagation: a member of a dependent
            # type can lose a witness only if it has an edge into
            # ``removed`` of the label/direction its link requires.
            for dep_name, link in dependents.get(name, ()):
                bucket = dirty.get(dep_name)
                if bucket is None:
                    # Initial full check still pending (the type is
                    # necessarily queued); it covers these objects.
                    continue
                before = len(bucket)
                if link.direction is Direction.OUT:
                    for gone in removed:
                        bucket |= db.sources_view(gone, link.label)
                else:
                    for gone in removed:
                        bucket |= db.targets_view(gone, link.label)
                if len(bucket) > before and dep_name not in queued:
                    queue.append(dep_name)
                    queued.add(dep_name)

    perf.incr("gfp.type_rechecks", iterations)
    perf.incr("gfp.object_checks", object_checks)
    perf.incr("gfp.satisfaction_checks", satisfaction_checks)
    perf.incr("gfp.objects_removed", objects_removed)
    logger.debug(
        "gfp: converged after %d type re-check(s) / %d object check(s) "
        "over %d type(s)",
        iterations, object_checks, len(extents),
    )
    return FixpointResult(
        extents={name: frozenset(members) for name, members in extents.items()},
        iterations=iterations,
    )


def greatest_fixpoint_naive(program: TypingProgram, db: Database) -> FixpointResult:
    """Reference GFP: start from *all* objects in *all* types, iterate rounds.

    Exactly the "straightforward method" of Section 4.1.  Quadratic in
    the database; kept as the oracle the optimised engine is tested
    against.
    """
    all_objects = set(db.complex_objects())
    extents: Dict[str, Set[ObjectId]] = {
        rule.name: set(all_objects) for rule in program.rules()
    }
    iterations = 0
    changed = True
    while changed:
        changed = False
        for rule in program.rules():
            iterations += 1
            survivors = {
                obj
                for obj in extents[rule.name]
                if all(satisfies_link(db, obj, link, extents) for link in rule.body)
            }
            if survivors != extents[rule.name]:
                extents[rule.name] = survivors
                changed = True
    return FixpointResult(
        extents={name: frozenset(members) for name, members in extents.items()},
        iterations=iterations,
    )


def least_fixpoint(program: TypingProgram, db: Database) -> FixpointResult:
    """Compute the least fixpoint (bottom-up) of ``program`` on ``db``.

    Provided for the Section 2 comparison: for the recursive
    person/firm program the LFP classifies nothing, while for
    non-recursive programs (e.g. relational data) LFP equals GFP.
    """
    extents: Dict[str, Set[ObjectId]] = {rule.name: set() for rule in program.rules()}
    complex_objects = list(db.complex_objects())
    iterations = 0
    changed = True
    while changed:
        changed = False
        for rule in program.rules():
            iterations += 1
            for obj in complex_objects:
                if obj in extents[rule.name]:
                    continue
                if all(satisfies_link(db, obj, link, extents) for link in rule.body):
                    extents[rule.name].add(obj)
                    changed = True
    return FixpointResult(
        extents={name: frozenset(members) for name, members in extents.items()},
        iterations=iterations,
    )


@dataclass(frozen=True)
class LinkSupport:
    """Why one typed link of a membership holds: the witnessing edges."""

    link: TypedLink
    witnesses: Tuple[ObjectId, ...]


def explain_membership(
    program: TypingProgram,
    db: Database,
    extents: Mapping[str, FrozenSet[ObjectId]],
    obj: ObjectId,
    type_name: str,
) -> List[LinkSupport]:
    """Justify ``obj ∈ type_name`` under ``extents``.

    Returns one :class:`LinkSupport` per typed link of the rule, listing
    the neighbour objects that witness it.  A link with no witnesses
    yields an empty tuple — callers use that to display defects.
    """
    rule = program.rule(type_name)
    supports: List[LinkSupport] = []
    for link in rule.sorted_body():
        if link.direction is Direction.OUT:
            neighbours = db.targets(obj, link.label)
            if link.is_atomic_target:
                witnesses = tuple(
                    sorted(
                        n
                        for n in neighbours
                        if db.is_atomic(n)
                        and (link.sort is None or sort_of(db.value(n)) == link.sort)
                    )
                )
            else:
                members = extents.get(link.target, frozenset())
                witnesses = tuple(sorted(n for n in neighbours if n in members))
        else:
            members = extents.get(link.target, frozenset())
            witnesses = tuple(
                sorted(n for n in db.sources(obj, link.label) if n in members)
            )
        supports.append(LinkSupport(link, witnesses))
    return supports
