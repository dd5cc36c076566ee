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
sweep, and each sample pushes the starting homes through the merge
map, computes the memberships with
:func:`~repro.core.recast.recast_masks` (``STRICT`` takes them from
the GFP of the decoded program) and the excess and deficit with
:func:`~repro.core.defect.defect_masks` — no program decoded, no body
encoded, no database call.  ``use_bitset=False`` runs
``merger.result()``, the frozenset :func:`~repro.core.recast.recast`
and the per-link defect: the oracle.  Spans ``sweep.recast`` and
``sweep.defect`` split each ``sweep.sample``.

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
from repro.core.defect import compute_defect, defect_masks
from repro.core.distance import WeightedDistance, delta_2
from repro.core.fixpoint import greatest_fixpoint
from repro.core.perfect import PerfectTyping, minimal_perfect_typing
from repro.core.recast import LocalIndex, RecastMode, recast, recast_masks
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
        live masks per sample.  ``False`` selects the frozenset oracle
        path (``--no-bitset``).  Results are identical either way.

    Returns a :class:`SensitivityResult` sorted by ascending ``k``.
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
        assert merger.link_space is not None
        index = LocalIndex(db, merger.link_space)
        start_homes = [assignment.get(obj) for obj in index.objects]

        def measure() -> Tuple[int, int]:
            """One sample on the merger's live masks."""
            bodies = merger.bodies
            merge_map = merger.merge_map()
            with perf.span("sweep.recast"):
                home = [
                    None if homes is None else frozenset(
                        merge_map[h] for h in homes
                        if merge_map.get(h) is not None
                    )
                    for homes in start_homes
                ]
                members = None
                if mode is RecastMode.STRICT:
                    fixpoint = greatest_fixpoint(
                        merger.current_program(), db, perf=perf
                    )
                    members = index.members(fixpoint.extents)
                final, _ = recast_masks(
                    index, list(bodies.items()), home, members, fallback,
                    perf,
                )
            with perf.span("sweep.defect"):
                return defect_masks(index, bodies, final)
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
    return SensitivityResult(points=tuple(points), exhausted=exhausted)
