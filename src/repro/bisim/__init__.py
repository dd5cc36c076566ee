"""Bisimulation-style partition refinement (Section 4.1's comparison).

The paper relates the Stage 1 object partition to *bisimulation* over
the labeled graph, considering both incoming and outgoing edges, and
sketches the refinement computation: start with all objects in one
class; while some class ``pi_i`` contains both objects with and without
an ``l``-edge to class ``pi_j`` (in either direction), split it.

This subpackage implements that computation (forward, backward and
forward+backward variants, plus the depth-bounded ``k``-bisimulation
used by the representative-object baseline).  Its one engine,
:func:`refine_partition`, is also the one Stage 1 runs: the minimal
perfect typing takes its bisimulation classes from it
(:func:`repro.core.perfect.bisimulation_classes`).  The test suite
checks the engine against a brute-force greatest bisimulation and,
round by round, against synchronous Moore refinement.
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
