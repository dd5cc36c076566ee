"""Incremental Stage 1 (Section 6's open problem).

Section 6 of the paper leaves "recomputing efficiently the typing
program" after database updates open.  :class:`Stage1Maintainer`
answers it for Stage 1: given the minimal perfect typing of the
pre-update database and a :class:`~repro.graph.database.ChangeLog`
describing a batch of mutations, it computes the **exact** new typing
while visiting only objects inside the edit's ripple — never the whole
database.  Its oracle is
:func:`~repro.core.perfect.minimal_perfect_typing` run from scratch.

The maintained program is ``Q_D``, one rule ``q:o`` per complex object
(the object's local picture), so a batch changes the *rules* too:
seeds (complex objects whose neighbourhood changed: endpoints of
added/removed edges, added or resurfaced objects, neighbours of
resurfaced objects) get rebuilt rules, added objects get new rules and
removed objects lose theirs.  ``Q_D`` itself is never materialised:
rules are rebuilt on demand and the rules referencing ``q:o`` are read
off ``o``'s adjacency.

Why this is exact
-----------------
Write ``M_old`` for the old per-object GFP and ``D'`` for the mutated
database.  The maintainer builds a start assignment ``M0`` in three
steps:

1. **carry over** — every rule keeps the surviving members of its old
   class's extent (members removed from the database are stripped);
2. **reseed** — every changed or new rule restarts from the signature
   upper bound of its rebuilt body, served by a persistent
   :class:`SignatureIndex`; and every seed has its candidacies in the
   unchanged rules recomputed from its fresh edge-kind signature: it is
   retracted from rules whose required kinds the signature no longer
   covers and added (as a candidate) to rules it newly covers;
3. **gains closure** — whenever a pair ``(n, t)`` is added beyond the
   carry-over, each neighbour ``o`` of ``n`` reachable through a
   dependent link of some rule ``c`` is tested against ``c``'s
   signature bound *and* its (atomic-elided) body against the current
   extents; passing candidates are admitted and propagate further.
   The eager body test is what keeps the closure from resurrecting
   every pair the old run already refuted — but it is inductive, and
   the GFP admits cyclically-supported members *coinductively*.  So
   rejected candidates are collected, and when the queue drains they
   are settled (:func:`_settle_pending`): their sigbound-admissible
   witness cone is pulled in, all of it is assumed true, and a local
   downward fixpoint drops the unsupported pairs.  The survivors —
   exactly the mutually-supported gains — re-enter the closure, and
   the alternation repeats until neither queue nor settlement yields
   anything new.

``M0`` contains the new GFP: suppose some ``(w, c)`` of the new GFP
were missing.  Changed and new rules start from their whole signature
bound, and seeds are admitted to unchanged rules by the signature test
alone, so ``c`` is an unchanged rule, ``w`` a non-seed with unchanged
edges, and carry-over forces ``w ∉ M_old(c)``.  If any of ``w``'s
new-GFP witnesses is an admitted gain, ``w`` was tested when that gain
fired, so ``w`` reached the final settlement inside the witness cone,
whose alive set supports every missing pair that the new GFP supports
— ``w`` would have survived, a contradiction.  Otherwise every witness
of ``w`` (and, inductively, of every untested missing pair) lies in
``M_old`` or is itself an untested missing pair over pre-existing
edges and unchanged rules; the union of ``M_old`` and those pairs is
then a post-fixpoint of the old operator on the old database, hence
contained in ``M_old`` — again a contradiction.

``M0`` may over-admit (settled survivors are candidates, not proofs),
so every admission beyond the carry-over is marked dirty, and so is
every surviving member whose carried proof may be stale: fellow seeds
(their adjacency changed), members of a rule that gained a complex
body link, and the dependents of every retraction.  A member of a rule
that only lost links satisfies the smaller body a fortiori.  The
downward worklist (:func:`_descend`) started from the dirty part of
``M0`` then converges to the exact new GFP, which is re-collapsed into
canonical classes exactly as a from-scratch Stage 1 collapses its
fixpoint.

The downward phase reuses the from-scratch engine's machinery —
object-level dirty tracking over ``Database.sources_view`` /
``targets_view``, atomic-link elision (every candidate entered through
a signature test whose kinds include the atomic requirements, and
atomic values can only change by removing-and-readding the atomic
object, which makes its sources seeds) and first-failure
short-circuiting.  Objects outside the ripple are never touched: they
are carried over inside shared per-class extent sets that are copied
only when first written.

Instrumentation: ``delta.seeds``, ``delta.objects_visited``,
``delta.retractions``, ``delta.gains``, ``delta.type_rechecks``,
``delta.satisfaction_checks``, ``delta.signature_updates`` counters
and ``delta.index`` / ``delta.seed`` / ``delta.closure`` /
``delta.iterate`` / ``delta.collapse`` spans (see
docs/PERFORMANCE.md and docs/INCREMENTAL.md).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.fixpoint import (
    FixpointResult,
    _Kind,
    object_signature,
    rule_kinds,
    satisfies_link,
)
from repro.core.typing_program import Direction, TypedLink, TypeRule
from repro.graph.database import ChangeLog, Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.perfect import PerfectTyping
    from repro.runtime.budget import Budget

logger = logging.getLogger("repro.core.delta")


@dataclass
class DeltaStats:
    """Work measures of one differential run.

    ``objects_visited`` is the ripple's reach: the seeds plus the
    distinct objects the downward descent re-verified.  The regression
    bench gates ``objects_visited / num_complex`` for small edit
    batches.  It is not the engine's work: the gains closure and its
    settle phase test the bodies of candidate objects without adding
    them, so ``satisfaction_checks``, which counts every typed-link
    evaluation, is the measure of work.
    """

    seeds: int = 0  #: complex objects whose neighbourhood changed.
    objects_visited: int = 0  #: seeds plus objects the descent verified.
    retractions: int = 0  #: memberships withdrawn (seed + worklist).
    gains: int = 0  #: candidate memberships added beyond the carry-over.
    type_rechecks: int = 0  #: worklist dequeues in the downward phase.
    satisfaction_checks: int = 0  #: typed-link evaluations performed.


def _record(perf: PerfRecorder, stats: DeltaStats) -> None:
    perf.incr("delta.seeds", stats.seeds)
    perf.incr("delta.objects_visited", stats.objects_visited)
    perf.incr("delta.retractions", stats.retractions)
    perf.incr("delta.gains", stats.gains)
    perf.incr("delta.type_rechecks", stats.type_rechecks)
    perf.incr("delta.satisfaction_checks", stats.satisfaction_checks)


def _mark_dependents(
    db: Database,
    deps: Iterable[Tuple[str, TypedLink]],
    gone: Iterable[ObjectId],
    dirty: Dict[str, Set[ObjectId]],
) -> None:
    """Mark objects that may have lost a witness when ``gone`` left a type."""
    for dep_name, link in deps:
        bucket = dirty.setdefault(dep_name, set())
        if link.direction is Direction.OUT:
            for obj in gone:
                bucket |= db.sources_view(obj, link.label)
        else:
            for obj in gone:
                bucket |= db.targets_view(obj, link.label)


def _settle_pending(
    db: Database,
    pending: Set[Tuple[ObjectId, str]],
    extents: Dict[str, Set[ObjectId]],
    body_of: Callable[[str], Tuple[TypedLink, ...]],
    sigbound_ok: Callable[[ObjectId, str], bool],
    stats: DeltaStats,
    budget: Optional["Budget"],
) -> Set[Tuple[ObjectId, str]]:
    """Admit the coinductively-supported subset of rejected candidates.

    ``pending`` holds ``(object, type)`` pairs whose eager body check
    failed during the gains closure.  An inductive closure can never
    admit gains that only support each other in a cycle — each test
    sees the others still missing — but the *greatest* fixpoint
    contains such cycles.  Two phases recover them:

    1. **expand** — pull in the sigbound-admissible witness cone of the
       rejected pairs (for every unsatisfied body link, every adjacent
       object passing the target's signature bound), so a support cycle
       is present as a whole even when only one of its pairs was ever
       adjacent to an actual gain;
    2. **settle** — run a downward fixpoint over just those pairs:
       assume all of them members, repeatedly drop pairs whose body
       lacks a witness in ``extents`` extended with the still-alive
       pairs.  The survivors are exactly the mutually-supported gains.

    Survivors are *candidates*: the caller adds them to the extents and
    the dirty buckets, so the final descent re-verifies them against
    the settled state.
    """
    alive: Set[Tuple[ObjectId, str]] = {
        pair for pair in pending if pair[0] not in extents.get(pair[1], ())
    }
    frontier = list(alive)
    while frontier:
        if budget is not None:
            budget.charge()
        next_frontier: List[Tuple[ObjectId, str]] = []
        for obj, name in frontier:
            for link in body_of(name):
                stats.satisfaction_checks += 1
                if satisfies_link(db, obj, link, extents):
                    continue
                if link.direction is Direction.OUT:
                    adjacent = db.targets_view(obj, link.label)
                else:
                    adjacent = db.sources_view(obj, link.label)
                target = link.target
                for witness in adjacent:
                    pair = (witness, target)
                    if (
                        pair in alive
                        or not db.is_complex(witness)
                        or witness in extents.get(target, ())
                        or not sigbound_ok(witness, target)
                    ):
                        continue
                    alive.add(pair)
                    next_frontier.append(pair)
        frontier = next_frontier
    while alive:
        if budget is not None:
            budget.charge()
        view: Dict[str, Set[ObjectId]] = dict(extents)
        for obj, name in alive:
            members = view.get(name)
            if members is extents.get(name):
                members = set(members) if members is not None else set()
                view[name] = members
            members.add(obj)
        dropped = False
        for pair in list(alive):
            obj, name = pair
            body = body_of(name)
            stats.satisfaction_checks += len(body)
            if not all(satisfies_link(db, obj, link, view) for link in body):
                alive.discard(pair)
                dropped = True
        if not dropped:
            break
    return alive


def _descend(
    db: Database,
    extents: Dict[str, Set[ObjectId]],
    body_of: Callable[[str], Tuple[TypedLink, ...]],
    dependents_of: Callable[[str], Iterable[Tuple[str, TypedLink]]],
    dirty: Dict[str, Set[ObjectId]],
    stats: DeltaStats,
    visited: Set[ObjectId],
    budget: Optional["Budget"],
) -> None:
    """Downward worklist from a dirty pre-fixpoint to the exact GFP.

    Identical protocol to ``greatest_fixpoint``'s iterate phase, except
    the initial dirt is the delta seeding rather than a full first
    verification pass; like it, the queue starts in type-name order so
    the work counters do not follow string-hash order.  Retractions
    rebind ``extents[name]`` (never mutate in place), so extent sets
    shared between types by the copy-on-write carry-over stay
    consistent.
    """
    queue = deque(sorted(name for name, bucket in dirty.items() if bucket))
    queued: Set[str] = set(queue)
    while queue:
        if budget is not None:
            budget.charge()
        name = queue.popleft()
        queued.discard(name)
        stats.type_rechecks += 1
        pending = dirty[name]
        dirty[name] = set()
        to_check = pending & extents[name]
        if not to_check:
            continue
        body = body_of(name)
        if not body:
            continue
        visited.update(to_check)
        removed: Set[ObjectId] = set()
        for obj in to_check:
            for link in body:
                stats.satisfaction_checks += 1
                if not satisfies_link(db, obj, link, extents):
                    removed.add(obj)
                    break
        if not removed:
            continue
        extents[name] = extents[name] - removed
        stats.retractions += len(removed)
        for dep_name, link in dependents_of(name):
            bucket = dirty.setdefault(dep_name, set())
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


class SignatureIndex:
    """Persistent signature / local-rule-kind index over complex objects.

    Groups objects by edge-kind signature (for :meth:`cover`: "which
    objects can satisfy this rule?") and by the kind set of their local
    rule (for :meth:`admitting_rules`: "which per-object types can this
    object satisfy?").  Built once in O(database) and updated per batch
    only for the seeds, it replaces the from-scratch engine's
    per-run signature scan in :class:`Stage1Maintainer`.
    """

    def __init__(
        self,
        db: Database,
        local_rule_fn: Optional[Callable[[Database, ObjectId], TypeRule]] = None,
        objects: Optional[Iterable[ObjectId]] = None,
    ) -> None:
        if local_rule_fn is None:
            from repro.core.perfect import local_rule as local_rule_fn
        self._build = local_rule_fn
        self._sig_of: Dict[ObjectId, FrozenSet[_Kind]] = {}
        self._kinds_of: Dict[ObjectId, FrozenSet[_Kind]] = {}
        self._sig_groups: Dict[FrozenSet[_Kind], Set[ObjectId]] = {}
        self._kind_groups: Dict[FrozenSet[_Kind], Set[ObjectId]] = {}
        pool = db.complex_objects() if objects is None else objects
        for obj in pool:
            self._insert(db, obj)

    def __len__(self) -> int:
        return len(self._sig_of)

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._sig_of

    def _insert(self, db: Database, obj: ObjectId) -> None:
        sig = object_signature(db, obj)
        kinds = rule_kinds(self._build(db, obj))
        self._sig_of[obj] = sig
        self._kinds_of[obj] = kinds
        self._sig_groups.setdefault(sig, set()).add(obj)
        self._kind_groups.setdefault(kinds, set()).add(obj)

    def _discard(self, obj: ObjectId) -> None:
        sig = self._sig_of.pop(obj, None)
        if sig is not None:
            group = self._sig_groups[sig]
            group.discard(obj)
            if not group:
                del self._sig_groups[sig]
        kinds = self._kinds_of.pop(obj, None)
        if kinds is not None:
            group = self._kind_groups[kinds]
            group.discard(obj)
            if not group:
                del self._kind_groups[kinds]

    def update(self, db: Database, objects: Iterable[ObjectId]) -> int:
        """Re-index ``objects``; ids no longer complex are dropped.

        Returns the number of objects whose signature was recomputed.
        """
        refreshed = 0
        for obj in objects:
            self._discard(obj)
            if db.is_complex(obj):
                self._insert(db, obj)
                refreshed += 1
        return refreshed

    def signature(self, obj: ObjectId) -> FrozenSet[_Kind]:
        """The indexed signature of ``obj``."""
        return self._sig_of[obj]

    def kinds(self, obj: ObjectId) -> FrozenSet[_Kind]:
        """The kind set of ``obj``'s local rule."""
        return self._kinds_of[obj]

    def cover(self, kinds: FrozenSet[_Kind]) -> Set[ObjectId]:
        """Objects whose signature covers ``kinds`` — the signature
        upper bound of a rule requiring exactly those kinds."""
        members: Set[ObjectId] = set()
        for sig, objs in self._sig_groups.items():
            if kinds <= sig:
                members |= objs
        return members

    def admitting_rules(self, sig: FrozenSet[_Kind]) -> Set[ObjectId]:
        """Owners of per-object rules an object with signature ``sig``
        is a candidate of (the transpose of :meth:`cover`)."""
        owners: Set[ObjectId] = set()
        for kinds, objs in self._kind_groups.items():
            if kinds <= sig:
                owners |= objs
        return owners


class Stage1Maintainer:
    """Incremental Stage 1: keep a :class:`PerfectTyping` exact under edits.

    The maintained program is ``Q_D`` — one rule per complex object —
    so the batch changes the *rules* too: seeds get rebuilt local
    pictures, added objects get new rules, removed objects lose theirs.
    Changed and new rules restart from their signature upper bound (via
    the persistent :class:`SignatureIndex`); unchanged rules carry their
    old extents over inside shared per-class sets that are copied only
    when first written, so the cost is proportional to the ripple, not
    to ``Q_D`` (see the module doc for why the result is exact).

    The maintainer owns mutable state (the index and the current
    typing); use one instance per database, apply batches in order,
    and never interleave with untracked mutations:

    >>> from repro.graph import Database
    >>> from repro.core.perfect import minimal_perfect_typing
    >>> db = Database.from_links([("p1", "p2", "knows")])
    >>> maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
    >>> with db.track_changes() as log:
    ...     _ = db.add_link("p2", "p1", "knows")
    >>> maintainer.apply(log).num_types
    1
    """

    def __init__(
        self,
        db: Database,
        stage1: "PerfectTyping",
        local_rule_fn: Optional[Callable[[Database, ObjectId], TypeRule]] = None,
    ) -> None:
        if local_rule_fn is None:
            from repro.core.perfect import local_rule as local_rule_fn
        self._db = db
        self._stage1 = stage1
        self._build = local_rule_fn
        self._index: Optional[SignatureIndex] = None
        self.last_stats: Optional[DeltaStats] = None

    @property
    def stage1(self) -> "PerfectTyping":
        """The currently maintained typing."""
        return self._stage1

    def apply(
        self,
        changes: ChangeLog,
        budget: Optional["Budget"] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> "PerfectTyping":
        """Fold a mutation batch into the typing and return the new one.

        The result is extent-identical (program, home types, extents,
        weights) to ``minimal_perfect_typing(db)`` run from scratch on
        the post-batch database — the property suite and the perf
        bench assert this oracle equality.
        """
        from repro.core.perfect import (
            collapse_object_fixpoint,
            object_of_type_name,
            object_type_name,
        )

        perf = _resolve_perf(perf)
        stats = DeltaStats()
        if changes.empty:
            self.last_stats = stats
            return self._stage1

        db = self._db
        old = self._stage1
        retired = changes.retired
        seeds = changes.touched_complex(db)
        stats.seeds = len(seeds)
        # Seeds are walked in id order and bodies checked in
        # sorted_body() order, so the work counters do not depend on
        # PYTHONHASHSEED.
        ordered_seeds = sorted(seeds)
        visited: Set[ObjectId] = set()

        # The index amortises signature maintenance across batches: the
        # first apply pays one full build, later ones only re-sign seeds
        # (counted as delta.signature_updates, not objects_visited).
        with perf.span("delta.index"):
            if self._index is None:
                self._index = SignatureIndex(db, self._build)
                perf.incr("delta.index_builds")
                perf.incr("delta.signature_updates", len(self._index))
            else:
                refreshed = self._index.update(db, set(seeds) | set(retired))
                perf.incr("delta.signature_updates", refreshed)
        index = self._index

        with perf.span("delta.seed"):
            # Carry-over: one mutable set per old class, shared by every
            # rule of the class until a write privatizes it.
            class_sets: Dict[str, Set[ObjectId]] = {}
            for cname, extent in old.extents.items():
                members = set(extent)
                if retired:
                    members -= retired
                class_sets[cname] = members

            extents: Dict[str, Set[ObjectId]] = {}
            home_members: Dict[str, List[ObjectId]] = {}
            for obj, home in old.home_type.items():
                if obj in retired:
                    continue
                extents[object_type_name(obj)] = class_sets[home]
                home_members.setdefault(home, []).append(obj)
            owned: Set[str] = set()

            def privatize(name: str) -> None:
                if name not in owned:
                    extents[name] = set(extents[name])
                    owned.add(name)

            rules_cache: Dict[str, TypeRule] = {}
            body_cache: Dict[str, Tuple[TypedLink, ...]] = {}
            dep_cache: Dict[str, List[Tuple[str, TypedLink]]] = {}

            def rule_of(name: str) -> TypeRule:
                rule = rules_cache.get(name)
                if rule is None:
                    rule = self._build(db, object_of_type_name(name))
                    rules_cache[name] = rule
                return rule

            def body_of(name: str) -> Tuple[TypedLink, ...]:
                # Atomic-target links are elided: every candidate entered
                # through a signature-bound test covering the atomic
                # kinds, and atomic values can only change through a
                # remove/re-add that turns their sources into seeds.
                body = body_cache.get(name)
                if body is None:
                    body = tuple(
                        l
                        for l in rule_of(name).sorted_body()
                        if not l.is_atomic_target
                    )
                    body_cache[name] = body
                return body

            def dependents_of(name: str) -> List[Tuple[str, TypedLink]]:
                # Graph-native dependents: the rules referencing q:obj
                # are exactly the neighbours' local pictures, so they
                # are read off the adjacency indexes — Q_D itself is
                # never materialised.
                deps = dep_cache.get(name)
                if deps is None:
                    obj = object_of_type_name(name)
                    deps = []
                    for edge in db.out_edges(obj):
                        if db.is_complex(edge.dst):
                            deps.append((
                                object_type_name(edge.dst),
                                TypedLink.incoming(edge.label, name),
                            ))
                    for edge in db.in_edges(obj):
                        deps.append((
                            object_type_name(edge.src),
                            TypedLink.outgoing(edge.label, name),
                        ))
                    dep_cache[name] = deps
                return deps

            dirty: Dict[str, Set[ObjectId]] = {}
            gain_queue: deque = deque()
            changed_names = {object_type_name(seed) for seed in seeds}
            retraction_marks: Dict[str, Set[ObjectId]] = {}

            # Seeds whose rebuilt rule *gained* a complex-target body
            # link (a new edge with a complex far end).  Only they
            # invalidate their surviving members' carried proofs: a rule
            # that merely lost links is satisfied a fortiori by every
            # old member, and atomic gains are guaranteed by the
            # signature-bound start set.
            gained_body: Set[ObjectId] = set()
            for edge in changes.added_links:
                if db.is_complex(edge.dst):
                    gained_body.add(edge.src)
                    gained_body.add(edge.dst)

            # Changed and new rules restart from the signature upper
            # bound of their rebuilt body.  New candidates are always
            # dirty; surviving members are re-verified only when the
            # rule gained body links (or belongs to a resurfaced owner,
            # whose whole body is untrusted).  Memberships silently
            # dropped by the restart mark their dependents exactly like
            # worklist retractions, so carried proofs that relied on
            # them are re-checked.
            for seed in ordered_seeds:
                name = object_type_name(seed)
                start = index.cover(index.kinds(seed))
                prev = extents.get(name)
                resurfaced_owner = prev is None and seed in old.home_type
                if resurfaced_owner:
                    # The owner was removed and re-added inside the
                    # batch: its old per-object extent is its old home
                    # class's (already stripped of retired members).
                    prev = class_sets[old.home_type[seed]]
                extents[name] = start
                owned.add(name)
                bucket = dirty.setdefault(name, set())
                if prev is None:
                    bucket.update(start)
                    stats.gains += len(start)
                    for obj in start:
                        gain_queue.append((obj, name))
                else:
                    gone = prev - start
                    if gone:
                        stats.retractions += len(gone)
                        retraction_marks[name] = set(gone)
                    fresh = start - prev
                    stats.gains += len(fresh)
                    bucket.update(fresh)
                    for obj in fresh:
                        gain_queue.append((obj, name))
                    if resurfaced_owner or seed in gained_body:
                        bucket.update(start)
                    else:
                        # Surviving members keep their carried proofs —
                        # except fellow seeds, whose own adjacency
                        # changed out from under those proofs.
                        bucket.update(start & seeds)

            # Seeds' memberships in unchanged rules: recompute their
            # candidacies from the new signature through the index
            # (admitting_rules) instead of scanning every rule.
            for seed in ordered_seeds:
                admitting = index.admitting_rules(index.signature(seed))
                holders: Set[ObjectId] = set()
                for cname, extent in old.extents.items():
                    if seed in extent:
                        holders.update(home_members.get(cname, ()))
                for owner in admitting:
                    name = object_type_name(owner)
                    if name in changed_names:
                        continue
                    if seed in extents[name]:
                        dirty.setdefault(name, set()).add(seed)
                    else:
                        privatize(name)
                        extents[name].add(seed)
                        dirty.setdefault(name, set()).add(seed)
                        gain_queue.append((seed, name))
                        stats.gains += 1
                for owner in holders:
                    if owner in admitting:
                        continue
                    name = object_type_name(owner)
                    if name in changed_names:
                        continue
                    if seed in extents[name]:
                        privatize(name)
                        extents[name].discard(seed)
                        stats.retractions += 1
                        retraction_marks.setdefault(name, set()).add(seed)

            for name, gone in retraction_marks.items():
                _mark_dependents(db, dependents_of(name), gone, dirty)

        def _sigbound_ok(obj: ObjectId, type_name: str) -> bool:
            owner = object_of_type_name(type_name)
            return index.kinds(owner) <= index.signature(obj)

        with perf.span("delta.closure"):
            # Eager verification: sigbound filters the atomic
            # requirements, then the full (complex) body must check out
            # against the current extents before the candidate
            # propagates.  Pairs that fail are re-tested by later
            # adjacent gains, and the still-rejected remainder goes
            # through _settle_pending to recover cyclically-supported
            # gains.
            pending: Set[Tuple[ObjectId, str]] = set()
            while True:
                while gain_queue:
                    gained, type_name = gain_queue.popleft()
                    for dep_name, link in dependents_of(type_name):
                        if link.direction is Direction.OUT:
                            adjacent = db.sources_view(gained, link.label)
                        else:
                            adjacent = db.targets_view(gained, link.label)
                        for obj in adjacent:
                            if (
                                not db.is_complex(obj)
                                or obj in extents[dep_name]
                            ):
                                continue
                            if not _sigbound_ok(obj, dep_name):
                                continue
                            stats.satisfaction_checks += len(
                                body_of(dep_name)
                            )
                            if all(
                                satisfies_link(db, obj, body_link, extents)
                                for body_link in body_of(dep_name)
                            ):
                                pending.discard((obj, dep_name))
                                privatize(dep_name)
                                extents[dep_name].add(obj)
                                dirty.setdefault(dep_name, set()).add(obj)
                                gain_queue.append((obj, dep_name))
                                stats.gains += 1
                            else:
                                pending.add((obj, dep_name))
                if not pending:
                    break
                survivors = _settle_pending(
                    db, pending, extents, body_of, _sigbound_ok, stats,
                    budget,
                )
                pending.clear()
                if not survivors:
                    break
                for obj, dep_name in survivors:
                    privatize(dep_name)
                    extents[dep_name].add(obj)
                    dirty.setdefault(dep_name, set()).add(obj)
                    gain_queue.append((obj, dep_name))
                    stats.gains += 1

        with perf.span("delta.iterate"):
            _descend(
                db, extents, body_of, dependents_of, dirty, stats, visited,
                budget,
            )

        # Re-collapse into canonical classes.  Shared (untouched) sets
        # are frozen once and reused, so the grouping pass is dictionary
        # work, not verification.
        with perf.span("delta.collapse"):
            frozen_by_id: Dict[int, FrozenSet[ObjectId]] = {}
            final: Dict[str, FrozenSet[ObjectId]] = {}
            for name, members in extents.items():
                key = id(members)
                value = frozen_by_id.get(key)
                if value is None:
                    value = frozenset(members)
                    frozen_by_id[key] = value
                final[name] = value
            fixpoint = FixpointResult(
                extents=final,
                iterations=old.q_iterations + stats.type_rechecks,
            )
            new_stage1 = collapse_object_fixpoint(db, self._build, fixpoint)

        visited.update(seeds)
        stats.objects_visited = len(visited)
        self._stage1 = new_stage1
        self.last_stats = stats
        _record(perf, stats)
        logger.debug(
            "stage1 delta: %d seed(s), %d visited of %d complex, "
            "%d retraction(s), %d gain(s) -> %d class(es)",
            stats.seeds, stats.objects_visited, db.num_complex,
            stats.retractions, stats.gains, new_stage1.num_types,
        )
        return new_stage1
