"""Plain agglomerative clustering with pluggable linkage.

A generic counterpart to :class:`repro.core.clustering.GreedyMerger`
used by the ablation benchmarks: it knows nothing about typed links or
superscript relabeling, it just merges the closest pair of clusters
until ``k`` remain, recording the dendrogram.  Linkage options are the
classic single / complete / average schemes plus ``weighted`` (average
weighted by cluster masses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cluster.kmedian import _resolve_distance, cached_distance
from repro.exceptions import ClusteringError

#: Distance over original point indices.
IndexDistance = Callable[[int, int], float]

_LINKAGES = ("single", "complete", "average", "weighted")

#: Minimum ``|A| * |B|`` block size worth a fancy-index slice; smaller
#: blocks pay more in index-array setup than the scalar calls cost.
_SLICE_MIN_PAIRS = 64


@dataclass(frozen=True)
class Dendrogram:
    """The merge history of an agglomerative run.

    ``merges`` lists ``(cluster_a, cluster_b, distance)`` in execution
    order where clusters are frozensets of original point indices;
    ``clusters`` is the final clustering.
    """

    merges: Tuple[Tuple[FrozenSet[int], FrozenSet[int], float], ...]
    clusters: Tuple[FrozenSet[int], ...]

    @property
    def k(self) -> int:
        """Number of final clusters."""
        return len(self.clusters)

    def assignment(self) -> Dict[int, int]:
        """Point index -> final cluster index."""
        out: Dict[int, int] = {}
        for index, cluster in enumerate(self.clusters):
            for point in cluster:
                out[point] = index
        return out


def _linkage_distance(
    linkage: str,
    cluster_a: FrozenSet[int],
    cluster_b: FrozenSet[int],
    weights: Sequence[float],
    distance: IndexDistance,
) -> float:
    array = getattr(distance, "pairwise_array", None)
    if (
        array is not None
        and linkage in ("single", "complete", "average")
        and len(cluster_a) * len(cluster_b) >= _SLICE_MIN_PAIRS
    ):
        # One fancy-index slice instead of |A|*|B| Python calls.  The
        # entries are exact integer distances, so min/max are trivially
        # identical to the scalar path and the average's int64 sum is
        # exact (no float summation-order hazard).  The mass-weighted
        # linkage keeps the scalar loop to preserve its float rounding.
        # Tiny blocks (singleton-vs-singleton dominates the early
        # rounds) stay on the scalar loop: below the cutoff the
        # fancy-index setup costs more than the calls it replaces.
        import numpy as np  # only reached with a numpy ``array``

        a_idx = np.fromiter(cluster_a, dtype=np.int64, count=len(cluster_a))
        b_idx = np.fromiter(cluster_b, dtype=np.int64, count=len(cluster_b))
        sub = array[a_idx[:, None], b_idx[None, :]]
        if linkage == "single":
            return float(sub.min())
        if linkage == "complete":
            return float(sub.max())
        return float(int(sub.sum(dtype=np.int64)) / sub.size)
    pairs = [(a, b) for a in cluster_a for b in cluster_b]
    dists = [distance(a, b) for a, b in pairs]
    if linkage == "single":
        return min(dists)
    if linkage == "complete":
        return max(dists)
    if linkage == "average":
        return sum(dists) / len(dists)
    # weighted: average weighted by the product of point masses.
    total_mass = sum(weights[a] * weights[b] for a, b in pairs)
    if total_mass == 0:
        return sum(dists) / len(dists)
    return (
        sum(
            d * weights[a] * weights[b]
            for (a, b), d in zip(pairs, dists)
        )
        / total_mass
    )


def agglomerate(
    num_points: int,
    k: int,
    distance: IndexDistance,
    weights: Optional[Sequence[float]] = None,
    linkage: str = "average",
    cache_distances: bool = True,
) -> Dendrogram:
    """Merge the closest pair of clusters until ``k`` clusters remain.

    ``O((n - k) * n^2)`` linkage evaluations; deterministic tie-breaks
    by the clusters' smallest members.  Linkages re-query the same
    point pair every round, so ``cache_distances`` (default on) memoises
    the symmetric pair distances once per run; distances that cache
    internally (``already_cached`` attribute, e.g.
    :class:`repro.core.linkspace.CachedBodyDistance`) skip the redundant
    second layer, and ones exposing a materialized ``matrix()`` make the
    single/complete/average linkages one array slice per pair of
    clusters.
    """
    if linkage not in _LINKAGES:
        raise ClusteringError(
            f"unknown linkage {linkage!r}; expected one of {_LINKAGES}"
        )
    distance = _resolve_distance(distance, cache_distances)
    if num_points == 0:
        raise ClusteringError("cannot cluster zero points")
    if not 1 <= k <= num_points:
        raise ClusteringError(f"k must be in [1, {num_points}], got {k}")
    if weights is None:
        weights = [1.0] * num_points

    clusters: List[FrozenSet[int]] = [frozenset([i]) for i in range(num_points)]
    merges: List[Tuple[FrozenSet[int], FrozenSet[int], float]] = []
    while len(clusters) > k:
        best: Optional[Tuple[float, int, int]] = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = _linkage_distance(
                    linkage, clusters[i], clusters[j], weights, distance
                )
                key = (d, min(clusters[i]), min(clusters[j]))
                if best is None or key < (best[0], min(clusters[best[1]]), min(clusters[best[2]])):
                    best = (d, i, j)
        assert best is not None
        d, i, j = best
        merged = clusters[i] | clusters[j]
        merges.append((clusters[i], clusters[j], d))
        clusters = [
            c for index, c in enumerate(clusters) if index not in (i, j)
        ] + [merged]
    clusters.sort(key=lambda c: sorted(c))
    return Dendrogram(merges=tuple(merges), clusters=tuple(clusters))
