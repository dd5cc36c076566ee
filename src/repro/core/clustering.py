"""Stage 2: reducing the number of types by clustering (Section 5).

Finding the best typing with ``k`` types is NP-hard (even for bipartite
databases), so the paper uses a **greedy pairwise merging** heuristic —
a special case of the fixed-cost median / facility-location heuristics
of [Hochbaum 82, Korupolu-Plaxton-Rajaraman 98], with an ``O(log n)``
approximation guarantee under assumptions.

State: every live type has a *body* (its point on the typed-link
hypercube) and a *weight* (number of home objects).  A step picks the
ordered pair ``(t1, t2)`` minimising ``delta(w1, w2, d(t1, t2))`` and
moves the objects of ``t2`` into ``t1``.  Crucially, coalescing also
rewrites every superscript ``t2`` in all remaining bodies to ``t1`` —
the paper's "projection of the hypercube points onto its diagonals" —
which may make other types identical (they then merge at zero cost,
Example 5.1).

An optional **empty type** (Example 5.3) lets the algorithm *untype*
outlier objects instead of forcing them into a bad cluster: moving
``t`` to the empty type costs ``delta(empty_weight, w_t, |body(t)|)``
and typed links referencing ``t`` are dropped from all bodies.

Merge policies (``MergePolicy``) control the body of the surviving
type; ``ABSORB`` (keep the absorbing type's body) matches the
asymmetric reading of ``delta`` and is the default, while
``WEIGHTED_CENTER`` implements the Section 5.2 "variation to
k-clustering" where the cluster is represented by its (weighted
majority) centre.

The candidates are kept per row, as in Müllner's generic agglomerative
algorithm (arXiv:1109.2378): every live type that may be absorbed has
a row holding its cheapest absorber, ``(cost, absorber)``, the minimum
over every other live type and, when enabled, the empty type.  A step
executes the minimum ``(cost, absorber, absorbed)`` over the rows.  A
cost reads only the two bodies and weights, so after a merge only pairs
touching ``changed`` — the absorber and every retargeted type — are
repriced, by one rule for every policy, distance, empty type and frozen
set (see ``docs/PERFORMANCE.md``):

* the absorbed type's row is dropped;
* rows in ``changed``, and rows whose cheapest absorber was the
  absorbed type, are rescanned;
* a row whose cheapest absorber is in ``changed`` is repriced, and
  rescanned only if that cost rose;
* every row not rescanned then tests just the ``changed`` columns.

:meth:`GreedyMerger.replay` applies a recorded trace instead of
searching: it merges pair after pair without touching the rows and
prices every row once at the end, leaving the state :meth:`run_to`
would.  The auto-``k`` pipeline replays the sensitivity sweep's trace
down to the knee, and checkpoint restore a checkpoint's.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.distance import WeightedDistance, delta_2
from repro.core.linkspace import BodyKernel, LinkSpace
from repro.core.typing_program import TypedLink, TypeRule, TypingProgram
from repro.exceptions import ClusteringError
from repro.graph.database import ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core)
    from repro.runtime.budget import Budget

logger = logging.getLogger("repro.core.clustering")

#: Name of the distinguished empty type.  Objects mapped here are left
#: untyped; the name never appears in an output program.
EMPTY_TYPE = "_untyped"

#: A rule body in either representation: an ``int`` bitmask over a
#: :class:`~repro.core.linkspace.LinkSpace` (the default), or the
#: original frozenset of typed links (``use_bitset=False`` oracle path).
#: Both support ``|``/``&``/``^`` with identical link-set semantics.
Body = Union[int, FrozenSet[TypedLink]]


class MergePolicy(enum.Enum):
    """How the surviving type's body is derived when two types merge."""

    ABSORB = "absorb"  #: keep the absorbing type's body (paper default).
    UNION = "union"  #: union of both bodies.
    INTERSECTION = "intersection"  #: intersection of both bodies.
    WEIGHTED_CENTER = "weighted-center"  #: weighted-majority typed links.


@dataclass(frozen=True)
class MergeRecord:
    """One executed merge step."""

    absorber: str  #: surviving type (or :data:`EMPTY_TYPE`).
    absorbed: str  #: type merged away.
    cost: float  #: ``delta`` value paid for the step.
    manhattan: int  #: raw ``d`` between the two bodies at merge time.
    types_after: int  #: live (non-empty-type) type count after the step.


@dataclass(frozen=True)
class Stage2Result:
    """Outcome of a clustering run.

    Attributes
    ----------
    program:
        The reduced typing program (empty type excluded).
    merge_map:
        Maps every *original* type name to its surviving type, or
        ``None`` when it was moved to the empty type.
    weights:
        Final weight per surviving type.
    records:
        The merge trace in execution order.
    total_cost:
        Sum of the per-merge ``delta`` costs — the paper's "total
        distance" curve in Figure 6.
    """

    program: TypingProgram
    merge_map: Dict[str, Optional[str]]
    weights: Dict[str, float]
    records: Tuple[MergeRecord, ...]
    total_cost: float

    @property
    def num_types(self) -> int:
        """Number of surviving types."""
        return len(self.program)

    def map_assignment(
        self, assignment: Mapping[ObjectId, AbstractSet[str]]
    ) -> Dict[ObjectId, FrozenSet[str]]:
        """Push a Stage 1 home assignment through the merges.

        Objects whose every home type went to the empty type end up
        with an empty set (untyped).
        """
        out: Dict[ObjectId, FrozenSet[str]] = {}
        for obj, homes in assignment.items():
            mapped = {
                self.merge_map.get(home)
                for home in homes
                if self.merge_map.get(home) is not None
            }
            out[obj] = frozenset(t for t in mapped if t is not None)
        return out


class GreedyMerger:
    """Stateful greedy merger; drive with :meth:`step` or :meth:`run_to`,
    or apply a recorded trace with :meth:`replay`.

    Parameters
    ----------
    program:
        Starting program (normally the Stage 1 output).
    weights:
        Weight per type (home-object counts).  Types without an entry
        get weight 0.
    distance:
        The weighted distance ``delta(w1, w2, d)``; the paper's
        experiments use :func:`repro.core.distance.delta_2`.
    policy:
        Body policy for merges (:class:`MergePolicy`).
    allow_empty_type:
        When true, "merge into the empty type" moves are candidates.
    empty_weight:
        ``w1`` used when pricing empty-type moves (application
        dependent, per Example 5.3); defaults to the mean *positive*
        type weight (1.0 when no type has positive weight).  Weight-0
        types are artifacts of restricted Stage 1 runs — counting them
        would drag the average toward 0 and make untyping spuriously
        cheap for every ``delta`` that is increasing in ``w1``-adjacent
        pricing of the empty move.
    perf:
        Optional :class:`repro.perf.PerfRecorder`; counters are listed
        in ``docs/PERFORMANCE.md``.  Defaults to the shared no-op
        recorder.
    use_bitset:
        When true (the default), bodies are interned into a
        :class:`~repro.core.linkspace.LinkSpace` and held as ``int``
        bitmasks, so the hot operations (Manhattan distance,
        merged-body aggregation, superscript retargeting) are integer
        bit arithmetic instead of frozenset algebra.  ``False`` keeps
        the original frozenset representation — the oracle path the
        property suite pins the bitset path against (CLI
        ``--no-bitset``).  Merge traces and results are identical
        either way.
    frozen:
        Type names that may *absorb* other types but can never be
        absorbed or moved to the empty type — the Section 2 "a priori
        knowledge" extension: known types survive clustering.  A frozen
        type keeps its body verbatim under every merge policy; only the
        mandatory superscript relabeling (when some *other* type is
        coalesced or emptied) can touch it, which preserves
        well-formedness of the program.
    """

    def __init__(
        self,
        program: TypingProgram,
        weights: Mapping[str, float],
        distance: WeightedDistance = delta_2,
        policy: MergePolicy = MergePolicy.ABSORB,
        allow_empty_type: bool = False,
        empty_weight: Optional[float] = None,
        frozen: Optional[AbstractSet[str]] = None,
        perf: Optional[PerfRecorder] = None,
        use_bitset: bool = True,
    ) -> None:
        if EMPTY_TYPE in program:
            raise ClusteringError(
                f"{EMPTY_TYPE!r} is reserved for the empty type"
            )
        self._frozen: FrozenSet[str] = frozenset(frozen or ())
        unknown_frozen = self._frozen - {r.name for r in program.rules()}
        if unknown_frozen:
            raise ClusteringError(
                f"frozen types not in the program: {sorted(unknown_frozen)}"
            )
        self._distance = distance
        self._policy = policy
        self._allow_empty = allow_empty_type
        self._initial_program = program
        self._bodies: Dict[str, Body] = {
            rule.name: rule.body for rule in program.rules()
        }
        self._weights: Dict[str, float] = {
            name: float(weights.get(name, 0.0)) for name in self._bodies
        }
        self._initial_weights: Dict[str, float] = dict(self._weights)
        if empty_weight is None:
            # Average over *positive* weights only: weight-0 types carry
            # no home objects and would skew the empty move's pricing.
            positive = [w for w in self._weights.values() if w > 0]
            empty_weight = sum(positive) / len(positive) if positive else 1.0
        self._empty_weight = float(empty_weight)
        self._perf = _resolve_perf(perf)
        self._use_bitset = bool(use_bitset)
        self._space: Optional[LinkSpace] = None
        if self._use_bitset:
            space = LinkSpace()
            with self._perf.span("linkspace.encode"):
                self._bodies = {
                    name: space.encode(body)
                    for name, body in self._bodies.items()
                }
            self._perf.incr("linkspace.encodes", len(self._bodies))
            self._space = space
        # Per-cluster members for WEIGHTED_CENTER: (body, weight) pairs
        # in the active representation.
        self._members: Dict[str, List[Tuple[Body, float]]] = {
            name: [(body, self._weights[name])]
            for name, body in self._bodies.items()
        }
        self._merge_map: Dict[str, Optional[str]] = {
            name: name for name in self._bodies
        }
        self._records: List[MergeRecord] = []
        self._total_cost = 0.0
        # Number of typed links in a body (``d`` to the empty type).
        self._size: Callable[[Body], int] = (
            int.bit_count if self._use_bitset else len
        )
        # Row minima: absorbed type -> (cost, absorber), its cheapest
        # absorber.  Frozen types are never absorbed and have no row.
        self._rows: Dict[str, Tuple[float, str]] = {}
        for name in self._bodies:
            if name not in self._frozen:
                self._scan_row(name)

    # ------------------------------------------------------------------
    # Row minima
    # ------------------------------------------------------------------
    def _cost(self, absorber: str, absorbed: str) -> Tuple[float, int]:
        """``(delta, d)`` of moving ``absorbed`` into ``absorber`` now."""
        body = self._bodies[absorbed]
        if absorber == EMPTY_TYPE:
            d = self._size(body)
            w1 = self._empty_weight
        else:
            d = self._size(self._bodies[absorber] ^ body)
            w1 = self._weights[absorber]
        return self._distance(w1, self._weights[absorbed], d), d

    def _scan_row(self, absorbed: str) -> None:
        """Recompute the cheapest absorber of ``absorbed`` over all types."""
        distance, weights, size = self._distance, self._weights, self._size
        body, weight = self._bodies[absorbed], weights[absorbed]
        best: Optional[Tuple[float, str]] = None
        if self._allow_empty:
            best = (distance(self._empty_weight, weight, size(body)), EMPTY_TYPE)
        for absorber, other in self._bodies.items():
            if absorber != absorbed:
                candidate = (
                    distance(weights[absorber], weight, size(other ^ body)),
                    absorber,
                )
                if best is None or candidate < best:
                    best = candidate
        self._perf.incr("merge.row_scans")
        self._perf.incr("merge.manhattan_evals", len(self._bodies) - 1)
        if best is None:
            self._rows.pop(absorbed, None)
        else:
            self._rows[absorbed] = best

    def _update_rows(self, absorbed: str, changed: AbstractSet[str]) -> None:
        """Restore every row minimum after ``absorbed`` merged away.

        ``changed`` holds the absorber (if any) and the retargeted
        types: a cost reads only its pair's bodies and weights, so the
        merge moved only the costs of pairs touching ``changed``.
        """
        self._rows.pop(absorbed, None)
        evals = 0
        for name, (cost, absorber) in list(self._rows.items()):
            if name in changed or absorber == absorbed:
                self._scan_row(name)
                continue
            best = (cost, absorber)
            if absorber in changed:
                best = (self._cost(absorber, name)[0], absorber)
                evals += 1
                if best[0] > cost:
                    self._scan_row(name)
                    continue
            for column in changed:
                if column != absorber:
                    candidate = (self._cost(column, name)[0], column)
                    evals += 1
                    if candidate < best:
                        best = candidate
            self._rows[name] = best
        self._perf.incr("merge.manhattan_evals", evals)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def num_types(self) -> int:
        """Current number of live types (empty type excluded)."""
        return len(self._bodies)

    @property
    def total_cost(self) -> float:
        """Cumulative ``delta`` cost of the merges so far."""
        return self._total_cost

    @property
    def initial_program(self) -> TypingProgram:
        """The program this merger started from (before any merge)."""
        return self._initial_program

    @property
    def initial_weights(self) -> Dict[str, float]:
        """The starting per-type weights (before any merge)."""
        return dict(self._initial_weights)

    @property
    def policy(self) -> MergePolicy:
        """The configured merge policy."""
        return self._policy

    @property
    def allow_empty_type(self) -> bool:
        """Whether empty-type moves are candidate merges."""
        return self._allow_empty

    @property
    def empty_weight(self) -> float:
        """The weight used when pricing empty-type moves."""
        return self._empty_weight

    @property
    def frozen(self) -> FrozenSet[str]:
        """Type names that can absorb but never be absorbed."""
        return self._frozen

    @property
    def use_bitset(self) -> bool:
        """Whether bodies are held as link-space bitmasks."""
        return self._use_bitset

    @property
    def link_space(self) -> Optional[LinkSpace]:
        """The interner behind the masks (``None`` on the set path)."""
        return self._space

    @property
    def bodies(self) -> Mapping[str, Body]:
        """The live types' bodies as a read-only live view: masks over
        :attr:`link_space` on the bitset path, frozensets otherwise.
        The sensitivity sweep reads its samples from it without
        decoding a program."""
        return MappingProxyType(self._bodies)

    @property
    def records(self) -> Tuple[MergeRecord, ...]:
        """The merge trace so far (execution order)."""
        return tuple(self._records)

    def current_program(self) -> TypingProgram:
        """The live types as a :class:`TypingProgram`."""
        if self._use_bitset:
            space = self._space
            assert space is not None
            return TypingProgram(
                [
                    TypeRule(name, space.decode(body))
                    for name, body in self._bodies.items()
                ]
            )
        return TypingProgram(
            [TypeRule(name, body) for name, body in self._bodies.items()]
        )

    def current_weights(self) -> Dict[str, float]:
        """Weight per live type."""
        return dict(self._weights)

    def merge_map(self) -> Dict[str, Optional[str]]:
        """Original type -> surviving type (``None`` = empty type)."""
        return dict(self._merge_map)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _merged_body(self, absorber: str, absorbed: str) -> Body:
        if self._policy is MergePolicy.ABSORB:
            return self._bodies[absorber]
        if self._policy is MergePolicy.UNION:
            return self._bodies[absorber] | self._bodies[absorbed]
        if self._policy is MergePolicy.INTERSECTION:
            return self._bodies[absorber] & self._bodies[absorbed]
        # WEIGHTED_CENTER: typed links supported by >= half the weight.
        members = self._members[absorber] + self._members[absorbed]
        if self._use_bitset:
            return BodyKernel.weighted_center(members)
        total = sum(weight for _, weight in members)
        support: Dict[TypedLink, float] = {}
        for body, weight in members:
            for link in body:
                support[link] = support.get(link, 0.0) + weight
        return frozenset(
            link for link, s in support.items() if 2 * s >= total and total > 0
        )

    def _retarget(self, old: str, new: Optional[str]) -> List[str]:
        """Rewrite ``old`` superscripts everywhere; return changed types.

        ``new=None`` (empty-type move) drops the typed links instead —
        a requirement pointing at untyped objects is meaningless.
        """
        changed: List[str] = []
        sync_members = self._policy is MergePolicy.WEIGHTED_CENTER
        if self._use_bitset:
            space = self._space
            assert space is not None
            old_mask = space.mask_targeting(old)
            if not old_mask:
                return changed
            for name, body in list(self._bodies.items()):
                if body & old_mask:
                    rewritten = space.retarget(body, old, new)
                    if rewritten != body:
                        self._bodies[name] = rewritten
                        changed.append(name)
                # Same stale-superscript hazard as the set path below:
                # sync members whenever *any* member references ``old``,
                # not just when the aggregated body did.
                if sync_members and any(
                    mbody & old_mask for mbody, _ in self._members[name]
                ):
                    self._members[name] = [
                        (space.retarget(mbody, old, new), weight)
                        for mbody, weight in self._members[name]
                    ]
            return changed
        for name, body in list(self._bodies.items()):
            if any(link.target == old for link in body):
                if new is None:
                    rewritten = frozenset(l for l in body if l.target != old)
                else:
                    rewritten = frozenset(l.rename({old: new}) for l in body)
                if rewritten != body:
                    self._bodies[name] = rewritten
                    changed.append(name)
            # Keep members in sync for WEIGHTED_CENTER.  This must NOT
            # be gated on the aggregated body mentioning ``old``: a
            # minority member can reference ``old`` even when the
            # weighted-majority centre dropped that link, and a stale
            # superscript would silently split the link's support in
            # every later centre computation.
            if sync_members and any(
                l.target == old
                for mbody, _ in self._members[name]
                for l in mbody
            ):
                self._members[name] = [
                    (
                        frozenset(l for l in mbody if l.target != old)
                        if new is None
                        else frozenset(l.rename({old: new}) for l in mbody),
                        weight,
                    )
                    for mbody, weight in self._members[name]
                ]
        return changed

    def step(self, budget: Optional["Budget"] = None) -> MergeRecord:
        """Execute the single cheapest merge and return its record.

        With a ``budget``, one work unit is charged *before* choosing
        the merge, so a tripped limit always leaves the merger at its
        last completed merge (checkpoint-safe).
        """
        if budget is not None:
            budget.charge()
        if len(self._bodies) <= 1:
            raise ClusteringError("cannot merge: at most one type left")
        if not self._rows:
            raise ClusteringError("no merge candidates left")
        _, absorber, absorbed = min(
            (cost, absorber, absorbed)
            for absorbed, (cost, absorber) in self._rows.items()
        )
        record, changed = self._merge(absorber, absorbed)
        self._update_rows(absorbed, changed)
        return record

    def _check_pair(self, absorber: str, absorbed: str) -> None:
        """Raise :class:`ClusteringError` unless the merge is possible now
        (a replayed trace may come from a checkpoint file)."""
        if absorbed not in self._bodies:
            raise ClusteringError(f"unknown or already-merged type {absorbed!r}")
        if absorbed in self._frozen:
            raise ClusteringError(f"frozen type {absorbed!r} cannot be absorbed")
        if absorber == EMPTY_TYPE:
            if not self._allow_empty:
                raise ClusteringError(
                    "empty-type moves are disabled for this merger"
                )
        elif absorber not in self._bodies:
            raise ClusteringError(f"unknown or already-merged type {absorber!r}")
        if absorber == absorbed:
            raise ClusteringError(f"cannot merge {absorbed!r} into itself")

    def _merge(
        self, absorber: str, absorbed: str
    ) -> Tuple[MergeRecord, AbstractSet[str]]:
        """The merge half of a step: bodies, weights, merge map, cost and
        record.  Returns the record and the types whose costs moved (the
        absorber and every retargeted type); the rows are left as they
        were."""
        cost, d = self._cost(absorber, absorbed)
        target = None if absorber == EMPTY_TYPE else absorber
        if target is not None:
            # Known types keep their body verbatim under any policy.
            if absorber not in self._frozen:
                self._bodies[absorber] = self._merged_body(absorber, absorbed)
            if self._policy is MergePolicy.WEIGHTED_CENTER:
                self._members[absorber] = (
                    self._members[absorber] + self._members[absorbed]
                )
            self._weights[absorber] += self._weights[absorbed]
        del self._bodies[absorbed]
        del self._weights[absorbed]
        self._members.pop(absorbed, None)
        changed = set(self._retarget(absorbed, target))
        if target is not None:
            changed.add(target)

        # Redirect the merge map.
        for original, current in self._merge_map.items():
            if current == absorbed:
                self._merge_map[original] = target

        self._perf.incr("merge.steps")
        if target is not None:
            self._perf.incr("merge.manhattan_evals")

        self._total_cost += cost
        record = MergeRecord(
            absorber=absorber,
            absorbed=absorbed,
            cost=cost,
            manhattan=d,
            types_after=len(self._bodies),
        )
        self._records.append(record)
        return record, changed

    def replay(
        self,
        pairs: Iterable[Tuple[str, str]],
        budget: Optional["Budget"] = None,
        on_step: Optional[Callable[["GreedyMerger"], None]] = None,
    ) -> None:
        """Apply recorded ``(absorber, absorbed)`` merges in order.

        Each pair is checked (it must name two live types, or the
        empty type when that is enabled, and not absorb a frozen type)
        and merged at its current cost, as :meth:`step` would merge it,
        but the row minima are not restored after each merge: every
        row is priced once, from scratch, when the replay ends.
        Replaying the first ``n - k`` pairs of a trace that :meth:`step`
        produced leaves the state :meth:`run_to` ``(k)`` leaves —
        program with its rule order, merge map, weights, records, total
        cost and rows — so a later :meth:`step` continues along the same
        trace.  The auto-``k`` pipeline replays the sensitivity sweep's
        trace down to the knee, and
        :func:`repro.runtime.checkpoint.restore_merger` a checkpoint's.

        ``budget`` and ``on_step`` behave as in :meth:`run_to`: one work
        unit is charged before each merge and the callback runs after
        it.  When the budget trips, the merger stays at its last
        completed merge, with its rows priced.
        """
        start, done = len(self._bodies), 0
        try:
            for absorber, absorbed in pairs:
                if budget is not None:
                    budget.charge()
                self._check_pair(absorber, absorbed)
                self._merge(absorber, absorbed)
                done += 1
                if on_step is not None:
                    on_step(self)
        finally:
            if done:
                self._rows.clear()
                for name in self._bodies:
                    if name not in self._frozen:
                        self._scan_row(name)
        logger.info(
            "stage2: replayed %d merge(s), %d -> %d types (total cost %.4f)",
            done, start, len(self._bodies), self._total_cost,
        )

    def run_to(
        self,
        k: int,
        budget: Optional["Budget"] = None,
        on_step: Optional[Callable[["GreedyMerger"], None]] = None,
    ) -> Stage2Result:
        """Merge until ``k`` types remain, then return the result.

        Parameters
        ----------
        k:
            Target type count.
        budget:
            Optional :class:`~repro.runtime.budget.Budget` charged one
            unit per merge; on exhaustion the loop unwinds with
            :class:`~repro.exceptions.BudgetExceededError` at the last
            completed merge (use :meth:`result` for the partial state).
        on_step:
            Callback invoked with the merger after every completed
            merge — the checkpoint-writing hook.
        """
        if k < 1:
            raise ClusteringError(f"target type count must be >= 1, got {k}")
        if k > len(self._bodies):
            raise ClusteringError(
                f"target {k} exceeds current type count {len(self._bodies)}"
            )
        start = len(self._bodies)
        while len(self._bodies) > k:
            self.step(budget=budget)
            if on_step is not None:
                on_step(self)
        logger.info(
            "stage2: merged %d -> %d types (total cost %.4f)",
            start, len(self._bodies), self._total_cost,
        )
        return self.result()

    def result(self) -> Stage2Result:
        """Snapshot the current state as a :class:`Stage2Result`."""
        return Stage2Result(
            program=self.current_program(),
            merge_map=dict(self._merge_map),
            weights=dict(self._weights),
            records=tuple(self._records),
            total_cost=self._total_cost,
        )
