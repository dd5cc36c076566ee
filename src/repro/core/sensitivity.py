"""Sensitivity analysis: defect as a function of the number of types.

Section 7.2 argues that instead of fixing ``k`` in advance one should
sweep it from the size of the minimal perfect typing down to 1 and
look at the trade-off between the defect and the size of the program
(Figure 6).  For non-random semistructured data there is usually a
small *optimal range* of ``k`` — 6–10 for the DBG dataset — where the
defect curve flattens.

:func:`sensitivity_sweep` drives a :class:`~repro.core.clustering.GreedyMerger`
one merge at a time, and at every (sampled) ``k`` recasts the data and
measures the defect, producing the two Figure 6 series:

* ``total distance`` — the cumulative ``delta`` cost of the merges
  performed so far (monotone non-increasing in ``k``), and
* ``defect`` — excess + deficit of the recast data at that ``k``.

On the bitset path (the default) a sample runs on the merger's live
masks: one :class:`~repro.core.recast.LocalIndex` is read from the
database on the merger's :class:`~repro.core.linkspace.LinkSpace` per
sweep, with one position per bisimulation class of Stage 1 when the
starting assignment is class-constant
(:meth:`~repro.core.perfect.PerfectTyping.classes_for`; per object
otherwise).  The first sample pushes the starting homes through the
merge map once per position and runs the bulk kernels,
:func:`~repro.core.recast.recast_masks` (``STRICT`` takes the
memberships from the GFP of the decoded program) and
:func:`~repro.core.defect.defect_masks`, which weight each class by its
size and edge counts; every later sample carries each position's state
over from the last and re-derives only what the merges since touched
(:class:`_CarriedSample`) — no program decoded, no body encoded, no
database call.  ``use_bitset=False`` runs
``merger.result()``, the frozenset :func:`~repro.core.recast.recast`
and the per-link defect at every sample: the oracle.  Spans
``sweep.recast`` and ``sweep.defect`` split each ``sweep.sample``.
The result carries the sweep's merge trace, which the auto-``k``
pipeline replays down to the knee
(:meth:`~repro.core.clustering.GreedyMerger.replay`).

Knee detection (:func:`find_knee`) uses the standard
maximum-distance-to-chord rule on the defect curve, and
:func:`optimal_range` returns the paper's "small range": the ``k``
values beyond the knee whose extra types buy less than a tolerance
fraction of the total defect drop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.clustering import GreedyMerger, MergePolicy
from repro.core.defect import (
    compute_defect,
    defect_masks,
    deficit_at,
    excess_at,
)
from repro.core.distance import WeightedDistance, delta_2
from repro.core.fixpoint import greatest_fixpoint
from repro.core.linkspace import LinkSpace
from repro.core.perfect import PerfectTyping, minimal_perfect_typing
from repro.core.recast import (
    LocalIndex,
    RecastMode,
    closest_by_mask,
    recast,
    recast_masks,
)
from repro.exceptions import ClusteringError, ExecutionInterruptedError
from repro.graph.database import Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core)
    from repro.runtime.budget import Budget

logger = logging.getLogger("repro.core.sensitivity")


@dataclass(frozen=True)
class SensitivityPoint:
    """One sample of the Figure 6 curves."""

    k: int  #: number of types.
    total_distance: float  #: cumulative merge cost down to this ``k``.
    defect: int  #: excess + deficit after recasting with ``k`` types.
    excess: int
    deficit: int


@dataclass(frozen=True)
class SensitivityResult:
    """The full sweep, sorted by ascending ``k``.

    ``exhausted`` is set when a budget ran out mid-sweep: the points
    then cover only the high-``k`` prefix actually sampled, and
    :meth:`knee` is the best knee found *so far* rather than the knee
    of the complete curve.
    """

    points: Tuple[SensitivityPoint, ...]
    exhausted: bool = False
    #: The ``(absorber, absorbed)`` merges the sweep executed, in order:
    #: its first ``n - k`` pairs rebuild Stage 2 at any sampled ``k``
    #: (:meth:`~repro.core.clustering.GreedyMerger.replay`).
    trace: Tuple[Tuple[str, str], ...] = ()

    def series(self) -> Tuple[List[int], List[float], List[int]]:
        """``(ks, total_distances, defects)`` as parallel lists."""
        ks = [p.k for p in self.points]
        return ks, [p.total_distance for p in self.points], [p.defect for p in self.points]

    def point_at(self, k: int) -> SensitivityPoint:
        """The sample at exactly ``k`` (raises ``KeyError`` if unsampled)."""
        for point in self.points:
            if point.k == k:
                return point
        raise KeyError(k)

    def knee(self) -> int:
        """Convenience wrapper over :func:`find_knee`."""
        return find_knee(self.points)

    def optimal_range(self, tolerance: float = 0.05) -> Tuple[int, int]:
        """Convenience wrapper over :func:`optimal_range`."""
        return optimal_range(self.points, tolerance=tolerance)


def find_knee(points: Sequence[SensitivityPoint]) -> int:
    """The ``k`` of maximum perpendicular distance to the defect chord.

    The chord joins the first (smallest ``k``) and last (largest ``k``)
    samples of the defect curve; the sample farthest below/above the
    chord is the knee — the classic "elbow" rule.  With fewer than
    three samples the smallest ``k`` wins.
    """
    if not points:
        raise ClusteringError("cannot find a knee of an empty sweep")
    pts = sorted(points, key=lambda p: p.k)
    if len(pts) < 3:
        return pts[0].k
    x0, y0 = float(pts[0].k), float(pts[0].defect)
    x1, y1 = float(pts[-1].k), float(pts[-1].defect)
    dx, dy = x1 - x0, y1 - y0
    norm = (dx * dx + dy * dy) ** 0.5
    if norm == 0:
        return pts[0].k
    best_k, best_dist = pts[0].k, -1.0
    for point in pts:
        dist = abs(dy * (point.k - x0) - dx * (point.defect - y0)) / norm
        if dist > best_dist:
            best_k, best_dist = point.k, dist
    return best_k


def optimal_range(
    points: Sequence[SensitivityPoint], tolerance: float = 0.03
) -> Tuple[int, int]:
    """The paper's "small range" ``[k_lo, k_hi]`` of near-optimal ``k``.

    ``k_lo`` is the knee.  Walking up from the knee, the range extends
    while the accumulated defect improvement stays below ``tolerance``
    times the total defect drop of the curve — i.e. it ends at the
    first ``k`` whose extra types have bought a material improvement
    over the knee (on the DBG curve this yields the paper's 6–10 style
    plateau rather than running to the perfect typing, whose defect is
    trivially 0).
    """
    pts = sorted(points, key=lambda p: p.k)
    knee_k = find_knee(pts)
    knee_defect = next(p.defect for p in pts if p.k == knee_k)
    total_drop = max(p.defect for p in pts) - min(p.defect for p in pts)
    threshold = tolerance * total_drop
    k_hi = knee_k
    for point in pts:
        if point.k <= knee_k:
            continue
        if knee_defect - point.defect >= threshold:
            break
        k_hi = point.k
    return knee_k, k_hi


def sample_grid(
    num_types: int,
    min_k: int = 1,
    max_k: Optional[int] = None,
    step: int = 1,
    sample_at: Optional[Iterable[int]] = None,
    num_frozen: int = 0,
) -> Set[int]:
    """The ``k`` values a sweep from ``num_types`` types samples.

    Every ``step``-th ``k`` of ``[min_k, max_k]`` plus both endpoints,
    or the members of ``sample_at`` inside that range.  ``max_k`` is
    capped at ``num_types`` and ``min_k`` raised to the number of
    frozen types.
    """
    if max_k is None or max_k > num_types:
        max_k = num_types
    min_k = max(1, min_k, num_frozen)
    if sample_at is not None:
        return {k for k in sample_at if min_k <= k <= max_k}
    return set(range(min_k, max_k + 1, step)) | {min_k, max_k}


_EMPTY: FrozenSet[str] = frozenset()


class _CarriedSample:
    """A sweep's sample state, carried from one sampled ``k`` to the next.

    Per position of the :class:`LocalIndex` (a class of Stage 1, or an
    object; "object" below) it holds
    its homes (its starting homes pushed through the merge map), its
    local picture under the homes and the rules that picture covers,
    its pre-fallback and final types, ``required`` (the OR of its final
    types' bodies) and its excess and deficit terms; per rule, the
    objects that cover it; per type, the objects that hold it.  Excess
    and deficit are running totals.  Equal type sets are one object.

    The first :meth:`recast` and :meth:`defect` run the bulk kernels
    (:func:`recast_masks`, :func:`defect_masks`).  Every later sample
    diffs the merger's state against the last sample's — the merge
    map, the bodies, and the bits the :class:`LinkSpace` interned
    since — and re-derives only what changed:

    * the local pictures of the neighbours of objects whose homes
      moved, and of the neighbours of a new bit's type's home members;
    * the rules each changed picture covers (tested against all rules)
      and the objects each changed rule covers (against all objects);
    * the fallback of every object that needs one;
    * ``required`` of objects whose final types changed or that hold a
      changed body; their deficit terms and those of the neighbours of
      objects whose final types changed; their excess terms and those
      of their in-neighbours.

    A new bit can enter a local picture without any home changing, but
    it is held only by bodies rewritten since the last sample, so it
    changes no cover test, ``required`` or defect term that the rules
    above do not re-derive.  ``STRICT`` takes its pre-fallback types
    from the GFP memberships at every sample and diffs those.
    """

    def __init__(
        self,
        index: LocalIndex,
        space: LinkSpace,
        start_homes: Sequence[Optional[AbstractSet[str]]],
        fallback: str,
        perf: PerfRecorder,
    ) -> None:
        self._index = index
        self._space = space
        self._start = start_homes
        self._fallback = fallback
        self._perf = perf
        #: original type -> positions homed there at the start.
        self._by_original: Dict[str, List[int]] = {}
        for i, homes in enumerate(start_homes):
            for original in homes or ():
                self._by_original.setdefault(original, []).append(i)
        self._sets: Dict[FrozenSet[str], FrozenSet[str]] = {}
        # The last sample's merger state.
        self._bodies: Dict[str, int] = {}
        self._map: Dict[str, Optional[str]] = {}
        self._dimension = 0
        # Per position (filled by the first sample).
        self._homes: List[FrozenSet[str]] = []
        self._local: Optional[List[int]] = None
        self._covered: List[FrozenSet[str]] = []
        self._assigned: List[FrozenSet[str]] = []
        self._final: List[FrozenSet[str]] = []
        self._required: List[int] = []
        self._excess: List[int] = []
        self._deficit: List[int] = []
        self._placed: Set[int] = set()
        self._cover_of: Dict[str, Set[int]] = {}
        self._holders: Dict[str, Set[int]] = {}
        self.excess = 0
        self.deficit = 0
        # What this sample's recast changed, for its defect.
        self._final_changed: List[int] = []
        self._changed: List[str] = []

    def _intern(self, types: FrozenSet[str]) -> FrozenSet[str]:
        return self._sets.setdefault(types, types)

    def _homes_of(
        self, i: int, merge_map: Mapping[str, Optional[str]]
    ) -> FrozenSet[str]:
        return self._intern(frozenset(
            merge_map[h] for h in self._start[i] or ()
            if merge_map.get(h) is not None
        ))

    def _neighbours(self, positions: Iterable[int]) -> Set[int]:
        out, inc = self._index.out, self._index.inc
        found: Set[int] = set()
        for i in positions:
            found.update(edge[2] for edge in out[i])
            found.update(j for _, j in inc[i])
        return found

    def _in_neighbours(self, positions: Iterable[int]) -> Set[int]:
        inc = self._index.inc
        found: Set[int] = set()
        for i in positions:
            found.update(j for _, j in inc[i])
        return found

    def _explicitly_untyped(self, i: int) -> bool:
        return self._start[i] is not None and not self._homes[i]

    def recast(
        self,
        bodies: Mapping[str, int],
        merge_map: Mapping[str, Optional[str]],
        members: Optional[Sequence[AbstractSet[str]]] = None,
    ) -> Sequence[FrozenSet[str]]:
        """This sample's final types per position (``members``:
        ``STRICT``'s GFP memberships per position)."""
        # Fold the bits the merges minted into the index's rows first:
        # the single-object terms read them directly.
        self._index.sync()
        rules = list(bodies.items())
        if self._final:
            self._update(bodies, rules, merge_map, members)
        else:
            self._first(rules, merge_map, members)
        self._bodies = dict(bodies)
        self._map = dict(merge_map)
        self._dimension = self._space.dimension
        return self._final

    def _first(
        self,
        rules: List[Tuple[str, int]],
        merge_map: Mapping[str, Optional[str]],
        members: Optional[Sequence[AbstractSet[str]]],
    ) -> None:
        home = [
            None if homes is None else self._homes_of(i, merge_map)
            for i, homes in enumerate(self._start)
        ]
        final, placed, local, covered = recast_masks(
            self._index, rules, home, members, self._fallback, self._perf
        )
        intern = self._intern
        self._homes = [_EMPTY if homes is None else homes for homes in home]
        self._local = local
        self._final = [intern(types) for types in final]
        self._placed = set(placed)
        self._assigned = list(self._final)
        for i in placed:
            self._assigned[i] = intern(_EMPTY)
        if covered is not None:
            self._covered = [intern(cover) for cover in covered]
            for i, cover in enumerate(self._covered):
                for name in cover:
                    self._cover_of.setdefault(name, set()).add(i)
        for i, types in enumerate(self._final):
            for name in types:
                self._holders.setdefault(name, set()).add(i)
        self._final_changed = []
        self._changed = []

    def _update(
        self,
        bodies: Mapping[str, int],
        rules: List[Tuple[str, int]],
        merge_map: Mapping[str, Optional[str]],
        members: Optional[Sequence[AbstractSet[str]]],
    ) -> None:
        index, intern = self._index, self._intern
        homes, assigned = self._homes, self._assigned
        removed = [name for name in self._bodies if name not in bodies]
        changed = [
            name for name, body in rules if self._bodies.get(name) != body
        ]
        moved: Set[int] = set()
        for original, target in merge_map.items():
            if self._map.get(original) != target:
                moved.update(self._by_original.get(original, ()))
        for i in moved:
            homes[i] = self._homes_of(i, merge_map)

        if members is None:
            candidates = moved | self._update_covers(
                bodies, rules, merge_map, moved, removed, changed
            )
            for i in candidates:
                assigned[i] = intern(homes[i] | self._covered[i])
        else:
            candidates = set(moved)
            for i, types in enumerate(members):
                if types != assigned[i]:
                    assigned[i] = intern(frozenset(types))
                    candidates.add(i)

        placed = self._placed
        before = set(placed)
        if self._fallback == "closest" and rules:
            for i in candidates:
                if assigned[i] or self._explicitly_untyped(i):
                    placed.discard(i)
                else:
                    placed.add(i)
        chosen: Dict[int, FrozenSet[str]] = {}
        for i in placed:
            name, _ = closest_by_mask(rules, index.local_mask(i, assigned))
            chosen[i] = intern(frozenset((name,)))

        final, holders = self._final, self._holders
        final_changed: List[int] = []
        for i in candidates | before | placed:
            types = chosen.get(i, assigned[i])
            old = final[i]
            if types == old:
                continue
            for name in old - types:
                holders[name].discard(i)
            for name in types - old:
                holders.setdefault(name, set()).add(i)
            final[i] = types
            final_changed.append(i)
        for name in removed:
            holders.pop(name, None)
        self._final_changed = final_changed
        self._changed = changed

    def _update_covers(
        self,
        bodies: Mapping[str, int],
        rules: List[Tuple[str, int]],
        merge_map: Mapping[str, Optional[str]],
        moved: Set[int],
        removed: List[str],
        changed: List[str],
    ) -> Set[int]:
        """Re-derive the local pictures and cover sets the diff touches;
        return the positions whose cover set changed."""
        index, intern = self._index, self._intern
        local, covered, cover_of = self._local, self._covered, self._cover_of
        assert local is not None
        dirty = self._neighbours(moved)
        space = self._space
        if space.dimension > self._dimension:
            fresh = (1 << space.dimension) - (1 << self._dimension)
            targets = {
                link.target for link in space.links_of(fresh)
                if not link.is_atomic_target
            }
            homed: Set[int] = set()
            for original, target in merge_map.items():
                if target in targets:
                    homed.update(self._by_original.get(original, ()))
            dirty |= self._neighbours(homed)
        homes = self._homes
        pictured: List[int] = []
        for i in dirty:
            mask = index.local_mask(i, homes)
            if mask != local[i]:
                local[i] = mask
                pictured.append(i)

        recovered: Set[int] = set()
        for name in removed:
            for i in cover_of.pop(name, ()):
                covered[i] = intern(covered[i] - {name})
                recovered.add(i)
        for i in pictured:
            uncovered = ~local[i]
            cover = intern(frozenset(
                name for name, body in rules if not body & uncovered
            ))
            old = covered[i]
            if cover == old:
                continue
            for name in old - cover:
                cover_of[name].discard(i)
            for name in cover - old:
                cover_of.setdefault(name, set()).add(i)
            covered[i] = cover
            recovered.add(i)
        for name in changed:
            body = bodies[name]
            now = {i for i, mask in enumerate(local) if not body & ~mask}
            for i in now.symmetric_difference(cover_of.get(name, ())):
                covered[i] = intern(covered[i] ^ {name})
                recovered.add(i)
            cover_of[name] = now
        checks = len(pictured) * len(rules) + len(changed) * len(local)
        self._perf.incr("recast.cover_checks", checks)
        self._perf.incr("recast.evaluations", checks)
        return recovered

    def defect(self) -> Tuple[int, int]:
        """``(excess, deficit)`` of this sample's final types."""
        index, bodies = self._index, self._bodies
        final, required = self._final, self._required
        if not required:
            required[:], self._excess, self._deficit = defect_masks(
                index, bodies, final
            )
            self.excess, self.deficit = sum(self._excess), sum(self._deficit)
            return self.excess, self.deficit
        touched = set(self._final_changed)
        for name in self._changed:
            touched.update(self._holders.get(name, ()))
        for i in touched:
            mask = 0
            for name in final[i]:
                mask |= bodies.get(name, 0)
            required[i] = mask
        for i in touched | self._neighbours(self._final_changed):
            term = deficit_at(index, i, required, final)
            self.deficit += term - self._deficit[i]
            self._deficit[i] = term
        for i in touched | self._in_neighbours(touched):
            term = excess_at(index, i, required, final)
            self.excess += term - self._excess[i]
            self._excess[i] = term
        return self.excess, self.deficit


def sensitivity_sweep(
    db: Database,
    stage1: Optional[PerfectTyping] = None,
    assignment: Optional[Mapping[ObjectId, FrozenSet[str]]] = None,
    weights: Optional[Mapping[str, float]] = None,
    distance: WeightedDistance = delta_2,
    policy: MergePolicy = MergePolicy.ABSORB,
    allow_empty_type: bool = False,
    empty_weight: Optional[float] = None,
    mode: RecastMode = RecastMode.HOME_GUIDED,
    fallback: str = "closest",
    min_k: int = 1,
    max_k: Optional[int] = None,
    step: int = 1,
    frozen: Optional[FrozenSet[str]] = None,
    budget: Optional["Budget"] = None,
    perf: Optional[PerfRecorder] = None,
    sample_at: Optional[Iterable[int]] = None,
    use_bitset: bool = True,
) -> SensitivityResult:
    """Sweep ``k`` from the perfect typing size down to ``min_k``.

    Parameters
    ----------
    db:
        The database.
    stage1:
        A precomputed Stage 1 result (computed on demand otherwise).
    assignment, weights:
        Starting home assignment / weights; default to the Stage 1 home
        types (pass the role-decomposed ones to sweep with roles).
    distance, policy, allow_empty_type, empty_weight:
        Stage 2 knobs (see :class:`GreedyMerger`).
    mode, fallback:
        Stage 3 knobs used when measuring the defect at each ``k`` (see
        :func:`~repro.core.recast.recast`).
    min_k, max_k:
        Sweep bounds; ``max_k`` defaults to the Stage 1 type count.
        With frozen types, ``min_k`` is clamped to their number.
    step:
        Sample every ``step``-th ``k`` (1 = every ``k``); the endpoints
        are always sampled.
    budget:
        Optional :class:`~repro.runtime.budget.Budget`.  Each merge and
        each defect sample charges one unit; when the budget trips the
        sweep **does not raise** (unless no point was sampled at all) —
        it returns the points gathered so far with ``exhausted=True``,
        so the caller still gets the best knee found.
    perf:
        Optional :class:`repro.perf.PerfRecorder`; threaded into the
        merger, plus ``sweep.samples`` and the ``sweep.sample`` timer
        with its ``sweep.recast`` and ``sweep.defect`` parts.
    sample_at:
        Explicit sample set overriding the computed ``step`` grid
        (values outside ``[min_k, max_k]`` are dropped).  The parallel
        sweep uses this to hand each worker a contiguous block of
        ``k`` values while replaying the same merge sequence.
    use_bitset:
        Run the merger and every sample on the link-space bitset kernel
        (the default): one local-picture index per sweep, the merger's
        live masks per sample, each sample carried over from the last.
        ``False`` selects the frozenset oracle path (``--no-bitset``).
        Results are identical either way.

    Returns a :class:`SensitivityResult` sorted by ascending ``k``,
    with the merges the sweep executed as its ``trace``.
    """
    perf = _resolve_perf(perf)
    if stage1 is None:
        stage1 = minimal_perfect_typing(db, perf=perf)
    if assignment is None:
        assignment = stage1.assignment()
    if weights is None:
        weights = {name: float(w) for name, w in stage1.weights.items()}

    merger = GreedyMerger(
        stage1.program,
        weights,
        distance=distance,
        policy=policy,
        allow_empty_type=allow_empty_type,
        empty_weight=empty_weight,
        frozen=frozen,
        perf=perf,
        use_bitset=use_bitset,
    )
    sample_ks = sample_grid(
        merger.num_types, min_k, max_k, step, sample_at, len(frozen or ())
    )
    stop_k = min(sample_ks, default=merger.num_types)

    if use_bitset:
        space = merger.link_space
        assert space is not None
        index = LocalIndex(db, space, classes=stage1.classes_for(assignment))
        carried = _CarriedSample(
            index,
            space,
            [assignment.get(obj) for obj in index.objects],
            fallback,
            perf,
        )

        def measure() -> Tuple[int, int]:
            """One sample on the merger's live masks, carried over from
            the last."""
            with perf.span("sweep.recast"):
                members = None
                if mode is RecastMode.STRICT:
                    fixpoint = greatest_fixpoint(
                        merger.current_program(), db, perf=perf
                    )
                    members = index.members(fixpoint.extents)
                carried.recast(merger.bodies, merger.merge_map(), members)
            with perf.span("sweep.defect"):
                return carried.defect()
    else:
        def measure() -> Tuple[int, int]:
            """One sample on the frozenset oracle path."""
            with perf.span("sweep.recast"):
                snapshot = merger.result()
                home = snapshot.map_assignment(assignment)
                recast_result = recast(
                    snapshot.program, db, home=home, mode=mode,
                    fallback=fallback, perf=perf, use_bitset=False,
                )
            with perf.span("sweep.defect"):
                report = compute_defect(
                    snapshot.program, db, recast_result.assignment,
                    use_bitset=False,
                )
            return report.excess.count, report.deficit.count

    points: List[SensitivityPoint] = []

    def sample() -> None:
        if budget is not None:
            budget.charge()
        perf.incr("sweep.samples")
        with perf.span("sweep.sample"):
            excess, deficit = measure()
        points.append(
            SensitivityPoint(
                k=merger.num_types,
                total_distance=merger.total_cost,
                defect=excess + deficit,
                excess=excess,
                deficit=deficit,
            )
        )

    exhausted = False
    try:
        if merger.num_types in sample_ks:
            sample()
        while merger.num_types > stop_k:
            merger.step(budget=budget)
            if merger.num_types in sample_ks:
                sample()
    except ExecutionInterruptedError:
        if not points:
            # Nothing sampled yet: there is no "best so far" to return.
            raise
        exhausted = True
        logger.warning(
            "sweep: budget exhausted at k=%d (sampled %d point(s)); "
            "returning the partial curve",
            merger.num_types, len(points),
        )

    points.sort(key=lambda p: p.k)
    if points:
        logger.info(
            "sweep: %d point(s) over k=%d..%d%s",
            len(points),
            points[0].k, points[-1].k,
            " (exhausted)" if exhausted else "",
        )
    return SensitivityResult(
        points=tuple(points),
        exhausted=exhausted,
        trace=tuple((r.absorber, r.absorbed) for r in merger.records),
    )
