"""Bisimulation quotients of a semistructured database.

Thin, intention-revealing wrappers over
:func:`repro.bisim.partition.refine_partition`:

* ``bisimulation_partition(db, direction="both")`` — the quotient the
  paper relates Stage 1 to ("we do consider here both incoming and
  outgoing edges");
* ``k_bisimulation_partition`` — the depth-bounded variant backing the
  degree-``k`` representative-object baseline;
* ``bisimilar`` — pairwise test.

Blocks are named ``b1, b2, ...`` ordered by smallest member, mirroring
Stage 1's canonical ``t1, t2, ...`` naming so the comparison benchmark
can align the two partitions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.bisim.partition import Partition, refine_partition
from repro.exceptions import ReproError
from repro.graph.database import Database, ObjectId

_DIRECTIONS = {
    "both": (True, True),
    "forward": (True, False),
    "backward": (False, True),
}


def _named_blocks(partition: Partition) -> Dict[str, FrozenSet[ObjectId]]:
    blocks = sorted(partition.blocks, key=lambda b: sorted(b))
    return {f"b{i}": block for i, block in enumerate(blocks, start=1)}


def bisimulation_partition(
    db: Database, direction: str = "both"
) -> Dict[str, FrozenSet[ObjectId]]:
    """The coarsest stable partition of the complex objects.

    ``direction`` is ``"both"`` (paper's variant), ``"forward"``
    (outgoing edges only — the DataGuide world view) or ``"backward"``.
    """
    try:
        use_out, use_in = _DIRECTIONS[direction]
    except KeyError:
        raise ReproError(
            f"unknown direction {direction!r}; expected one of "
            f"{sorted(_DIRECTIONS)}"
        ) from None
    partition = refine_partition(db, use_outgoing=use_out, use_incoming=use_in)
    return _named_blocks(partition)


def k_bisimulation_partition(
    db: Database, k: int, direction: str = "forward"
) -> Dict[str, FrozenSet[ObjectId]]:
    """Depth-``k`` bisimulation: objects equivalent up to paths of
    length ``k`` (``k = 0`` puts everything in one block)."""
    if k < 0:
        raise ReproError(f"k must be non-negative, got {k}")
    try:
        use_out, use_in = _DIRECTIONS[direction]
    except KeyError:
        raise ReproError(
            f"unknown direction {direction!r}; expected one of "
            f"{sorted(_DIRECTIONS)}"
        ) from None
    partition = refine_partition(
        db, use_outgoing=use_out, use_incoming=use_in, max_rounds=k
    )
    return _named_blocks(partition)


def bisimilar(
    db: Database, obj1: ObjectId, obj2: ObjectId, direction: str = "both"
) -> bool:
    """Whether two complex objects are bisimilar."""
    for block in bisimulation_partition(db, direction).values():
        if obj1 in block:
            return obj2 in block
    return False
