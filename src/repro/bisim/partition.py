"""Signature-based partition refinement: the one bisimulation engine.

Every complex object has a *signature* — the set of
``(direction, label, neighbour-block)`` pairs visible one step away,
with every atomic neighbour in one block of its own — and a round
splits each block by signature.  Iterating to a fixed point yields the
coarsest stable partition, i.e. the (forward/backward/both)
bisimulation quotient; a bounded number of rounds from the one-block
partition yields the depth-``k`` variant.

The engine computes exactly those synchronous rounds, but only
re-signs what can have changed:

* each object's labelled neighbours are read from the database once;
* a round re-signs only the objects that read the block of an object
  which changed block in the round before;
* every block records the signature its members shared when it was
  last split.  Members that still carry it keep the block's id (so
  their readers are not re-signed); if no member kept it, the largest
  group keeps the id and records its new signature, and every other
  group gets a fresh id.

A member that was not re-signed still carries the recorded signature,
because none of the blocks it reads changed id, so each round splits
every block exactly as the synchronous round from the same partition
does.  Round ``r`` therefore equals synchronous round ``r``, and the
result is the coarsest stable partition refining the start.  Stage 1
(:func:`repro.core.perfect.bisimulation_classes`), :mod:`repro.bisim`
and the baselines all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.graph.database import Database, ObjectId


@dataclass(frozen=True)
class Partition:
    """An immutable partition of a set of objects into blocks."""

    blocks: Tuple[FrozenSet[ObjectId], ...]

    @staticmethod
    def single(objects: Iterable[ObjectId]) -> "Partition":
        """The trivial one-block partition."""
        return Partition((frozenset(objects),))

    @staticmethod
    def discrete(objects: Iterable[ObjectId]) -> "Partition":
        """The finest partition: one block per object."""
        return Partition(tuple(frozenset([o]) for o in sorted(objects)))

    @property
    def num_blocks(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def block_of(self) -> Dict[ObjectId, int]:
        """Object -> block index map."""
        out: Dict[ObjectId, int] = {}
        for index, block in enumerate(self.blocks):
            for obj in block:
                out[obj] = index
        return out

    def same_block(self, obj1: ObjectId, obj2: ObjectId) -> bool:
        """Whether two objects share a block."""
        block = self.block_of()
        return block.get(obj1, -1) == block.get(obj2, -2)

    def refines(self, other: "Partition") -> bool:
        """Whether every block of ``self`` is inside a block of ``other``."""
        coarse = other.block_of()
        for block in self.blocks:
            targets = {coarse.get(obj) for obj in block}
            if len(targets) > 1 or None in targets:
                return False
        return True

    def normalised(self) -> "Partition":
        """Blocks sorted by their smallest member (canonical form)."""
        return Partition(tuple(sorted(self.blocks, key=lambda b: sorted(b))))


#: Block id every atomic neighbour reads as (atomic objects are never
#: split); the neighbour lists name atomic neighbours ``None``.
_ATOM_BLOCK = -1


def refine_partition(
    db: Database,
    initial: Optional[Partition] = None,
    use_outgoing: bool = True,
    use_incoming: bool = True,
    max_rounds: Optional[int] = None,
) -> Partition:
    """Refine ``initial`` to stability (or for ``max_rounds`` rounds).

    ``initial`` must cover the complex objects of ``db``; it defaults
    to the one-block partition, whose first round splits the objects
    by edge kinds (direction, label, complex or atomic neighbour).
    With both directions enabled and no round bound this computes the
    forward+backward bisimulation quotient of the complex objects; with
    only ``use_outgoing`` the forward quotient; bounding the rounds
    yields depth-``k`` bisimulation (round ``k`` distinguishes paths of
    length ``k``), counted from ``initial``.
    """
    objects = list(db.complex_objects())
    start = initial if initial is not None else Partition.single(objects)
    if max_rounds == 0:
        return start.normalised()

    # Each object's (kind, neighbour) pairs, read once, and for each
    # object the objects whose signatures read its block.
    kinds: Dict[Tuple[str, str], int] = {}
    links: Dict[ObjectId, Tuple[Tuple[int, Optional[ObjectId]], ...]] = {}
    readers: Dict[ObjectId, List[ObjectId]] = {obj: [] for obj in objects}
    for obj in objects:
        pairs = set()
        if use_outgoing:
            for label in db.out_labels(obj):
                kind = kinds.setdefault(("out", label), len(kinds))
                for dst in db.targets_view(obj, label):
                    pairs.add((kind, None if db.is_atomic(dst) else dst))
        if use_incoming:
            for label in db.in_labels(obj):
                kind = kinds.setdefault(("in", label), len(kinds))
                for src in db.sources_view(obj, label):
                    pairs.add((kind, src))
        links[obj] = tuple(pairs)
        for _, neighbour in pairs:
            if neighbour is not None:
                readers[neighbour].append(obj)

    block: Dict[Optional[ObjectId], int] = {None: _ATOM_BLOCK}
    size: List[int] = []
    for members in start.blocks:
        for obj in members:
            block[obj] = len(size)
        size.append(len(members))
    recorded: Dict[int, FrozenSet[Tuple[int, int]]] = {}
    dirty: Iterable[ObjectId] = objects
    rounds = 0
    while dirty and (max_rounds is None or rounds < max_rounds):
        rounds += 1
        regroup: Dict[int, Dict[FrozenSet, List[ObjectId]]] = {}
        for obj in dirty:
            signature = frozenset(
                [(kind, block[neighbour]) for kind, neighbour in links[obj]]
            )
            regroup.setdefault(block[obj], {}).setdefault(
                signature, []
            ).append(obj)
        moved: List[ObjectId] = []
        for block_id, groups in regroup.items():
            keep = recorded.get(block_id)
            if keep not in groups and size[block_id] == sum(
                map(len, groups.values())
            ):
                # Every member was re-signed and none kept the recorded
                # signature: the largest group keeps the id.
                keep = max(groups, key=lambda sig: len(groups[sig]))
                recorded[block_id] = keep
            for signature, members in groups.items():
                if signature == keep:
                    continue
                new_id = len(size)
                size.append(len(members))
                size[block_id] -= len(members)
                recorded[new_id] = signature
                for obj in members:
                    block[obj] = new_id
                moved.extend(members)
        dirty = {reader for obj in moved for reader in readers[obj]}

    by_block: Dict[int, List[ObjectId]] = {}
    for obj in objects:
        by_block.setdefault(block[obj], []).append(obj)
    return Partition(
        tuple(frozenset(members) for members in by_block.values())
    ).normalised()
