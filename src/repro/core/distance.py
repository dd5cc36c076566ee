"""Type distances (Section 5.2).

Stage 2 views every type as a point on the binary hypercube whose
dimensions are the distinct typed links of the Stage 1 program.  The
basic distance is the **Manhattan distance** ``d`` — the size of the
symmetric difference between two rule bodies.  On top of ``d`` the
paper proposes *weighted* distances ``delta(w1, w2, d)`` where ``w1``
is the weight (home-object count) of the absorbing type and ``w2`` the
weight of the type being moved.  ``delta`` is deliberately asymmetric:
it prices moving the objects of type 2 into type 1.

Desirable properties (Section 5.2): increasing in ``d``, decreasing in
``w1``, increasing in ``w2``.  The five candidates from the paper are
provided; *not all of them satisfy all three properties* (the paper
says as much) — :func:`check_properties` probes a function empirically
and is used by the property-based tests and the ablation benchmark.

``delta_2 (= d * w2)`` is the **weighted Manhattan distance** used in
all of the paper's experiments and is this library's default.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, Iterable

from repro.core.typing_program import TypedLink, TypeRule

#: Signature of a weighted distance: (w1, w2, d) -> cost.
WeightedDistance = Callable[[float, float, float], float]


def manhattan(rule1: TypeRule, rule2: TypeRule) -> int:
    """``d(t1, t2)``: typed links in the symmetric difference of bodies.

    >>> from repro.core.typing_program import make_rule
    >>> t1 = make_rule("t1", atomic=["a"], outgoing=[("b", "t2")])
    >>> t2 = make_rule("t2", atomic=["a", "b"])
    >>> manhattan(t1, t2)
    2
    """
    return len(rule1.body ^ rule2.body)


def manhattan_bodies(
    body1: AbstractSet[TypedLink], body2: AbstractSet[TypedLink]
) -> int:
    """Manhattan distance on raw bodies (used by the cluster machinery).

    Callers overwhelmingly pass (frozen)sets, whose own ``^`` needs no
    copies; the conversion is kept only for plain iterables.
    """
    if isinstance(body1, (set, frozenset)) and isinstance(body2, (set, frozenset)):
        return len(body1 ^ body2)
    return len(set(body1) ^ set(body2))


def delta_1(dimensions: int) -> WeightedDistance:
    """``delta_1 = L^d / (w1 * w2)``.

    ``L`` is the total number of distinct typed links of the Stage 1
    program (the hypercube dimension count).  Increasing in ``d`` and
    decreasing in ``w1`` but *decreasing* in ``w2`` — it violates the
    third property, which the ablation benchmark demonstrates.
    """
    base = max(dimensions, 2)

    def delta(w1: float, w2: float, d: float) -> float:
        if d == 0:
            return 0.0
        return base**d / (max(w1, 1.0) * max(w2, 1.0))

    delta.__name__ = "delta_1"
    return delta


def delta_2(w1: float, w2: float, d: float) -> float:
    """``delta_2 = d * w2`` — the weighted Manhattan distance.

    The paper's experimental default.  Increasing in ``d`` and ``w2``,
    constant in ``w1`` (vacuously non-increasing).  For a single merge
    it equals the defect the merge introduces when the absorbed type's
    objects each miss/overshoot ``d`` typed links; across a *series* of
    merges it is only an upper bound on the final defect (Section 5.2).
    """
    return d * w2


def delta_3(w1: float, w2: float, d: float) -> float:
    """``delta_3 = (w1 * w2)^(1/d)``.

    Zero when ``d == 0`` (identical bodies merge for free).  Violates
    monotonicity in ``d`` for large weights — larger ``d`` *lowers* the
    cost — which is why it loses badly in the ablation.
    """
    if d == 0:
        return 0.0
    return (max(w1, 1.0) * max(w2, 1.0)) ** (1.0 / d)


def delta_4(dimensions: int) -> WeightedDistance:
    """``delta_4 = L^d * w2`` — like ``delta_2`` with exponential
    emphasis on the Manhattan distance."""
    base = max(dimensions, 2)

    def delta(w1: float, w2: float, d: float) -> float:
        if d == 0:
            return 0.0
        return base**d * w2

    delta.__name__ = "delta_4"
    return delta


def delta_5(w1: float, w2: float, d: float) -> float:
    """``delta_5 = (w2 / w1)^(1/d)``.

    Prices only the weight *ratio*: moving a small type into a big one
    is cheap regardless of how dissimilar they are, as long as ``d``
    is large.  Kept for the ablation; zero when ``d == 0``.
    """
    if d == 0:
        return 0.0
    return (w2 / max(w1, 1.0)) ** (1.0 / d)


def named_distances(dimensions: int) -> Dict[str, WeightedDistance]:
    """All five paper distances keyed by name, for sweeps and ablations."""
    return {
        "delta_1": delta_1(dimensions),
        "delta_2": delta_2,
        "delta_3": delta_3,
        "delta_4": delta_4(dimensions),
        "delta_5": delta_5,
    }


@dataclass(frozen=True)
class PropertyReport:
    """Which of the Section 5.2 monotonicity properties a distance shows
    on a probe grid (empirical, not a proof)."""

    increasing_in_d: bool
    decreasing_in_w1: bool
    increasing_in_w2: bool

    @property
    def satisfies_all(self) -> bool:
        """Whether all three desired properties held on the probe grid."""
        return (
            self.increasing_in_d
            and self.decreasing_in_w1
            and self.increasing_in_w2
        )


def _le(smaller: float, larger: float) -> bool:
    """``smaller <= larger`` up to relative float tolerance.

    The exact comparison runs first: Python compares int/float pairs
    exactly, so distances returning big exact ints (``delta_4`` is
    ``L**d * w2``) are never coerced through a 53-bit mantissa — the
    old ``a <= b + 1e-12`` form did exactly that coercion and could
    round ``b`` *below* an equal ``a``, flagging a constant function as
    non-monotone.
    """
    return smaller <= larger or math.isclose(smaller, larger, rel_tol=1e-9)


def check_properties(
    delta: WeightedDistance,
    weights: Iterable[float] = (1, 10, 100, 1000),
    distances: Iterable[float] = (1, 2, 4, 8),
) -> PropertyReport:
    """Probe ``delta`` for the three monotonicity properties.

    Monotonicity is checked in the weak sense (non-strict) over all
    probe pairs, matching the paper's informal statement.
    """
    weights = sorted(set(weights))
    distances = sorted(set(distances))

    inc_d = all(
        _le(delta(w1, w2, d1), delta(w1, w2, d2))
        for w1 in weights
        for w2 in weights
        for d1, d2 in itertools.combinations(distances, 2)
    )
    dec_w1 = all(
        _le(delta(w1b, w2, d), delta(w1a, w2, d))
        for w1a, w1b in itertools.combinations(weights, 2)
        for w2 in weights
        for d in distances
    )
    inc_w2 = all(
        _le(delta(w1, w2a, d), delta(w1, w2b, d))
        for w2a, w2b in itertools.combinations(weights, 2)
        for w1 in weights
        for d in distances
    )
    return PropertyReport(
        increasing_in_d=inc_d,
        decreasing_in_w1=dec_w1,
        increasing_in_w2=inc_w2,
    )
