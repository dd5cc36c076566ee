"""k-median heuristics over abstract weighted points.

The Stage 2 optimisation "is similar to k-clustering" (Section 5.1):
choose ``k`` of the ``n`` points as *medians* (cluster centers) and
assign every point to its nearest median; the cost of an assignment is
``sum_i w_i * dist(p_i, median(p_i))``.  Finding the optimal medians is
NP-hard; the module provides

* :func:`greedy_k_median` — greedy center elimination, the scheme the
  paper adopts "because of its lower time complexity and implementation
  ease", with the ``O(log n)`` guarantee of [Hochbaum 82] under
  assumptions;
* :func:`local_search_k_median` — single-swap local search in the
  style of [Korupolu, Plaxton, Rajaraman 98];
* :func:`exact_k_median` — exhaustive search over center subsets, for
  validating the heuristics on tiny inputs in the test suite.

Points are referenced by index; the caller supplies a distance
function over indices, so the same machinery clusters typed-link
bodies, plain vectors or anything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.exceptions import ClusteringError

#: Distance over point indices.
IndexDistance = Callable[[int, int], float]


def cached_distance(distance: IndexDistance) -> IndexDistance:
    """A symmetric pairwise memo over an index distance.

    The heuristics below re-evaluate the same unordered index pair many
    times per elimination/swap round (``O((n-k) * n^2)`` queries over
    ``O(n^2)`` distinct pairs); distances over indices are pure and —
    per the k-median model — symmetric, so a per-run memo keyed on the
    unordered pair is semantically inert.  Distances that already cache
    internally (e.g. :class:`repro.core.linkspace.CachedBodyDistance`)
    advertise it with a truthy ``already_cached`` attribute, and the
    entry points skip this second layer for them automatically.
    """
    cache: Dict[Tuple[int, int], float] = {}

    def wrapped(i: int, j: int) -> float:
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        d = cache.get(key)
        if d is None:
            d = distance(key[0], key[1])
            cache[key] = d
        return d

    return wrapped


class _MatrixDistance:
    """An ``IndexDistance`` backed by a materialized pairwise array.

    Produced by :func:`_resolve_distance` when the supplied distance
    exposes a ``matrix()`` fast path (``CachedBodyDistance`` does);
    :func:`_assign` recognises the ``pairwise_array`` attribute and
    evaluates whole candidate blocks with one fancy-index slice.
    Scalar calls read a plain nested-list copy — cheaper than both
    per-element numpy indexing and a tuple-keyed cache dict, and the
    entries are exact Python ints either way.
    """

    __slots__ = ("pairwise_array", "_rows")

    #: Fully materialized — never wrap in another cache layer.
    already_cached = True

    def __init__(self, array) -> None:
        self.pairwise_array = array
        self._rows = array.tolist()

    def __call__(self, i: int, j: int) -> float:
        return self._rows[i][j]


def _resolve_distance(
    distance: IndexDistance,
    cache_distances: bool,
) -> IndexDistance:
    """Pick the fastest equivalent form of ``distance``.

    A distance with a ``matrix()`` method that returns a full pairwise
    array (e.g. ``CachedBodyDistance`` on the bitset path with numpy
    available) becomes a :class:`_MatrixDistance`.  Otherwise the
    ``cache_distances`` wrap is applied unless the callable already
    caches internally (``already_cached`` protocol attribute) — wrapping
    those built a redundant second ``O(n^2)`` pair dict for no hit-rate
    gain.
    """
    matrix_fn = getattr(distance, "matrix", None)
    if callable(matrix_fn):
        array = matrix_fn()
        if array is not None:
            return _MatrixDistance(array)
    if cache_distances and not getattr(distance, "already_cached", False):
        return cached_distance(distance)
    return distance


@dataclass(frozen=True)
class KMedianResult:
    """A clustering: chosen medians, point assignment and total cost."""

    medians: Tuple[int, ...]
    assignment: Dict[int, int]  #: point index -> median index.
    cost: float

    @property
    def k(self) -> int:
        """Number of medians."""
        return len(self.medians)


def _assign(
    points: Sequence[int],
    weights: Sequence[float],
    medians: Sequence[int],
    distance: IndexDistance,
) -> Tuple[Dict[int, int], float]:
    array = getattr(distance, "pairwise_array", None)
    if array is not None and len(medians) > 0:
        return _assign_from_array(points, weights, medians, array)
    assignment: Dict[int, int] = {}
    cost = 0.0
    for point in points:
        best_median = None
        best_dist = float("inf")
        for median in medians:
            d = 0.0 if median == point else distance(point, median)
            if d < best_dist or (d == best_dist and (best_median is None or median < best_median)):
                best_median, best_dist = median, d
        assert best_median is not None
        assignment[point] = best_median
        cost += weights[point] * best_dist
    return assignment, cost


def _assign_from_array(
    points: Sequence[int],
    weights: Sequence[float],
    medians: Sequence[int],
    array,
) -> Tuple[Dict[int, int], float]:
    """Matrix twin of the :func:`_assign` loop, answer-identical.

    The scalar loop breaks distance ties toward the smallest median
    *value*; sorting the median columns ascending makes ``argmin``'s
    first-occurrence rule reproduce that exactly.  The cost is still
    accumulated sequentially in original point order so float rounding
    matches the scalar path bit for bit.
    """
    import numpy as np  # only reached with a numpy ``array``

    med = np.asarray(sorted(medians), dtype=np.int64)
    pts = np.asarray(points, dtype=np.int64)
    sub = array[pts[:, None], med[None, :]]
    choice = sub.argmin(axis=1)
    best_medians = med[choice]
    best_dists = sub[np.arange(len(pts)), choice]
    assignment: Dict[int, int] = {}
    cost = 0.0
    for idx, point in enumerate(points):
        assignment[point] = int(best_medians[idx])
        cost += weights[point] * float(best_dists[idx])
    return assignment, cost


def _validate(n: int, k: int) -> None:
    if n == 0:
        raise ClusteringError("cannot cluster zero points")
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")


def greedy_k_median(
    weights: Sequence[float],
    k: int,
    distance: IndexDistance,
    cache_distances: bool = True,
) -> KMedianResult:
    """Greedy center elimination down to ``k`` medians.

    Start with every point a median; repeatedly drop the median whose
    removal increases the assignment cost least.  ``O((n-k) * n^2)``
    distance *queries* — but only ``O(n^2)`` distinct pairs, which
    ``cache_distances`` (default on) evaluates once each.
    """
    n = len(weights)
    _validate(n, k)
    distance = _resolve_distance(distance, cache_distances)
    points = list(range(n))
    medians = set(points)
    while len(medians) > k:
        best_removal: Optional[int] = None
        best_cost = float("inf")
        for candidate in sorted(medians):
            remaining = sorted(medians - {candidate})
            _, cost = _assign(points, weights, remaining, distance)
            if cost < best_cost:
                best_removal, best_cost = candidate, cost
        assert best_removal is not None
        medians.discard(best_removal)
    assignment, cost = _assign(points, weights, sorted(medians), distance)
    return KMedianResult(tuple(sorted(medians)), assignment, cost)


def local_search_k_median(
    weights: Sequence[float],
    k: int,
    distance: IndexDistance,
    initial: Optional[Sequence[int]] = None,
    max_iterations: int = 1000,
    cache_distances: bool = True,
) -> KMedianResult:
    """Single-swap local search: while some (median, non-median) swap
    lowers the cost, perform the best such swap.

    [KPR 98] show this converges to within a constant factor of the
    optimum for metric instances.  ``initial`` defaults to the greedy
    solution, which also bounds the number of improving swaps.
    """
    n = len(weights)
    _validate(n, k)
    distance = _resolve_distance(distance, cache_distances)
    points = list(range(n))
    if initial is None:
        medians = set(
            greedy_k_median(
                weights, k, distance, cache_distances=False
            ).medians
        )
    else:
        medians = set(initial)
        if len(medians) != k or not all(0 <= m < n for m in medians):
            raise ClusteringError(f"initial medians must be {k} distinct indices")
    _, cost = _assign(points, weights, sorted(medians), distance)
    for _ in range(max_iterations):
        best_swap: Optional[Tuple[int, int]] = None
        best_cost = cost
        for out in sorted(medians):
            for inn in points:
                if inn in medians:
                    continue
                candidate = sorted(medians - {out} | {inn})
                _, new_cost = _assign(points, weights, candidate, distance)
                if new_cost < best_cost - 1e-12:
                    best_swap, best_cost = (out, inn), new_cost
        if best_swap is None:
            break
        medians.discard(best_swap[0])
        medians.add(best_swap[1])
        cost = best_cost
    assignment, cost = _assign(points, weights, sorted(medians), distance)
    return KMedianResult(tuple(sorted(medians)), assignment, cost)


def exact_k_median(
    weights: Sequence[float],
    k: int,
    distance: IndexDistance,
    max_points: int = 16,
    cache_distances: bool = True,
) -> KMedianResult:
    """Brute-force optimum over all ``C(n, k)`` center subsets.

    Guarded by ``max_points`` because the problem is NP-hard; only for
    validating the heuristics on tiny instances.
    """
    n = len(weights)
    _validate(n, k)
    distance = _resolve_distance(distance, cache_distances)
    if n > max_points:
        raise ClusteringError(
            f"exact search limited to {max_points} points, got {n}"
        )
    points = list(range(n))
    best: Optional[KMedianResult] = None
    for subset in itertools.combinations(points, k):
        assignment, cost = _assign(points, weights, subset, distance)
        if best is None or cost < best.cost:
            best = KMedianResult(tuple(subset), assignment, cost)
    assert best is not None
    return best
