"""Component partitioning: splitting a database into parallel shards.

Real semistructured corpora — web scrapes, bibliographies, product
feeds — decompose into many weakly-connected regions that can be typed
independently: the greatest-fixpoint semantics of a typing program
evaluates each object against its *neighbours* only, so the GFP of the
Stage 1 per-object program splits exactly along weakly-connected
components (see ``docs/PARALLELISM.md`` for the argument).

This module turns that observation into work units:

* :func:`~repro.graph.traversal.connected_components` enumerates the
  weakly-connected components in one pass over the objects: each
  object not yet seen seeds a breadth-first search that follows edges
  in both directions, so every object and edge is visited once;
* :func:`partition_database` enumerates the weakly-connected
  components and bin-packs them into at most ``num_shards`` balanced
  :class:`Shard` work units (largest-first greedy / LPT, deterministic);
* ``max_objects`` caps how many *complex* objects a bin may take when
  packing small components together — components larger than the cap
  keep a bin of their own (a single component can never be split,
  because splitting one would cut edges and change the typing);
* when the graph is **one giant component** the partition degenerates
  to a single shard: there is no safe parallelism in Stage 1 and
  callers fall back to the sequential path (the documented fallback —
  ``--jobs`` cannot help such inputs);
* :func:`extract_shard` materialises a shard as a fresh
  :class:`~repro.graph.database.Database` in one pass over the shard's
  own adjacency lists (never over the full edge set, so building all
  shards stays linear in the database).

Shards are unions of whole components, hence *edge-closed*: every edge
incident to a shard member stays inside the shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from repro.exceptions import DatabaseError
from repro.graph.database import Database, ObjectId
from repro.graph.traversal import connected_components


@dataclass(frozen=True)
class Shard:
    """One parallel work unit: a union of weakly-connected components.

    Attributes
    ----------
    index:
        Position of the shard in the partition (0-based, stable).
    objects:
        Every object of the shard, complex and atomic.
    num_components:
        How many weakly-connected components were packed into it.
    num_complex:
        Number of complex objects — the load measure used to balance
        bins (typing work is driven by complex objects, not atoms).
    """

    index: int
    objects: FrozenSet[ObjectId]
    num_components: int
    num_complex: int

    def __len__(self) -> int:
        return len(self.objects)


def partition_database(
    db: Database,
    num_shards: int,
    max_objects: Optional[int] = None,
) -> List[Shard]:
    """Split ``db`` into at most ``num_shards`` balanced shards.

    Components are enumerated largest-first and greedily assigned to
    the least-loaded bin (load = complex-object count) — the classic
    LPT heuristic, which is deterministic because
    :func:`~repro.graph.traversal.connected_components` orders
    components canonically and ties break toward the lowest bin index.

    ``max_objects`` caps the number of complex objects packed into a
    bin that already holds something: a component that does not fit any
    existing bin opens a new one, so the result may exceed
    ``num_shards`` bins (extra shards simply queue on the worker pool).
    A single component larger than the cap still gets its own bin — a
    component is never split.

    With one component (or ``num_shards <= 1``) the result is a single
    shard covering the whole database: the documented fallback that
    makes callers take the sequential path.
    """
    if num_shards < 1:
        raise DatabaseError(f"num_shards must be >= 1, got {num_shards}")
    if max_objects is not None and max_objects < 1:
        raise DatabaseError(f"max_objects must be >= 1, got {max_objects}")
    components = connected_components(db)
    if not components:
        return []
    if len(components) == 1 or num_shards == 1:
        return [
            Shard(
                index=0,
                objects=frozenset(db.objects()),
                num_components=len(components),
                num_complex=db.num_complex,
            )
        ]

    # Greedy LPT packing: components arrive largest-first and seed up
    # to ``num_shards`` bins before doubling up; afterwards each goes
    # to the least-loaded bin the cap permits, or opens an extra bin.
    loads: List[int] = []
    bin_members: List[List[FrozenSet[ObjectId]]] = []
    for component in components:
        weight = sum(1 for obj in component if db.is_complex(obj))
        best: Optional[int] = None
        if len(loads) >= num_shards:
            fitting = [
                i for i in range(len(loads))
                if max_objects is None or loads[i] + weight <= max_objects
            ]
            if fitting:
                best = min(fitting, key=lambda i: (loads[i], i))
        if best is None:
            # Open a new bin: either we are still seeding the first
            # num_shards bins, or the cap rejected every existing one
            # (a component is never split, so an oversized one simply
            # keeps an over-cap bin of its own).
            loads.append(weight)
            bin_members.append([component])
        else:
            loads[best] += weight
            bin_members[best].append(component)

    shards: List[Shard] = []
    for index, members in enumerate(bin_members):
        objects: set = set()
        for component in members:
            objects |= component
        shards.append(
            Shard(
                index=index,
                objects=frozenset(objects),
                num_components=len(members),
                num_complex=loads[index],
            )
        )
    return shards


def extract_shard(db: Database, objects: Iterable[ObjectId]) -> Database:
    """Materialise the sub-database induced by a shard's objects.

    Unlike the generic :func:`~repro.graph.subgraph.induced_subgraph`,
    which filters the *full* edge relation per call, this iterates only
    the kept objects' own adjacency lists — building every shard of a
    partition costs one pass over the database in total.  It relies on
    the shard being edge-closed (a union of weakly-connected
    components): every out-edge of a member targets a member.
    """
    out = Database()
    keep = set(objects)
    for obj in keep:
        if db.is_atomic(obj):
            out.add_atomic(obj, db.value(obj))
        elif db.is_complex(obj):
            out.add_complex(obj)
        else:
            raise DatabaseError(f"unknown object {obj!r}")
    for obj in keep:
        if db.is_atomic(obj):
            continue
        for edge in db.out_edges(obj):
            if edge.dst not in keep:
                raise DatabaseError(
                    f"shard is not edge-closed: link({edge.src!r}, "
                    f"{edge.dst!r}, {edge.label!r}) leaves the shard"
                )
            out.add_link(edge.src, edge.dst, edge.label)
    return out
