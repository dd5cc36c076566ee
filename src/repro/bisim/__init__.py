"""Bisimulation-style partition refinement (Section 4.1's comparison).

The paper relates the Stage 1 object partition to *bisimulation* over
the labeled graph, considering both incoming and outgoing edges, and
sketches the refinement computation: start with all objects in one
class; while some class ``pi_i`` contains both objects with and without
an ``l``-edge to class ``pi_j`` (in either direction), split it.

This subpackage implements that computation (forward, backward and
forward+backward variants, plus the depth-bounded ``k``-bisimulation
used by the representative-object baseline) so the benchmarks can
compare partition sizes against the minimal perfect typing.  The one
engine is :func:`refine_partition`; the test suite checks it against a
brute-force greatest bisimulation, and checks that bisimilar objects
share a Stage 1 home type.
"""

from repro.bisim.bisimulation import (
    bisimilar,
    bisimulation_partition,
    k_bisimulation_partition,
)
from repro.bisim.partition import Partition, refine_partition

__all__ = [
    "Partition",
    "bisimilar",
    "bisimulation_partition",
    "k_bisimulation_partition",
    "refine_partition",
]
