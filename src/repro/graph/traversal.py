"""Graph traversal helpers over :class:`repro.graph.Database`.

These are generic utilities used by the codecs, the DataGuide baseline
and the synthetic-data validators.  All functions treat the database as
a plain directed graph; labels are ignored unless stated otherwise.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Set

from repro.graph.database import Database, ObjectId


def roots(db: Database) -> FrozenSet[ObjectId]:
    """Complex objects with no incoming edges (entry points of the data)."""
    return frozenset(o for o in db.complex_objects() if db.in_degree(o) == 0)


def sinks(db: Database) -> FrozenSet[ObjectId]:
    """Objects with no outgoing edges.

    Atomic objects are always sinks; complex objects may be sinks too
    (the paper allows complex objects without attributes).
    """
    return frozenset(o for o in db.objects() if db.out_degree(o) == 0)


def reachable_from(
    db: Database, start: Iterable[ObjectId], follow_incoming: bool = False
) -> FrozenSet[ObjectId]:
    """Objects reachable from ``start`` along outgoing edges.

    With ``follow_incoming=True`` edges are traversed in both
    directions, yielding the weakly-connected closure of ``start``.
    """
    seen: Set[ObjectId] = set()
    frontier = deque(start)
    while frontier:
        obj = frontier.popleft()
        if obj in seen:
            continue
        seen.add(obj)
        for edge in db.out_edges(obj):
            if edge.dst not in seen:
                frontier.append(edge.dst)
        if follow_incoming:
            for edge in db.in_edges(obj):
                if edge.src not in seen:
                    frontier.append(edge.src)
    return frozenset(seen)


def breadth_first_order(db: Database, start: ObjectId) -> List[ObjectId]:
    """Objects in BFS order from ``start`` along outgoing edges.

    Neighbours are visited in sorted order so the result is
    deterministic.
    """
    order: List[ObjectId] = []
    seen: Set[ObjectId] = {start}
    frontier = deque([start])
    while frontier:
        obj = frontier.popleft()
        order.append(obj)
        for dst in sorted({e.dst for e in db.out_edges(obj)}):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return order


def depth_first_order(db: Database, start: ObjectId) -> List[ObjectId]:
    """Objects in preorder DFS from ``start`` along outgoing edges.

    Neighbours are visited in sorted order so the result is
    deterministic.
    """
    order: List[ObjectId] = []
    seen: Set[ObjectId] = set()
    stack = [start]
    while stack:
        obj = stack.pop()
        if obj in seen:
            continue
        seen.add(obj)
        order.append(obj)
        for dst in sorted({e.dst for e in db.out_edges(obj)}, reverse=True):
            if dst not in seen:
                stack.append(dst)
    return order


def connected_components(db: Database) -> List[FrozenSet[ObjectId]]:
    """Weakly-connected components, largest first (ties by member order)."""
    seen: Set[ObjectId] = set()
    components: List[FrozenSet[ObjectId]] = []
    for seed in db.objects():
        if seed in seen:
            continue
        component = reachable_from(db, [seed], follow_incoming=True)
        components.append(component)
        seen |= component
    components.sort(key=lambda c: (-len(c), sorted(c)))
    return components


def is_bipartite_complex_atomic(db: Database) -> bool:
    """Whether every edge goes from a complex object to an atomic one.

    This is the paper's notion of a *bipartite* database ("edges only go
    from complex objects to atomic ones"), the shape of relational data.
    Section 5.2 notes that clustering is much easier on such data; the
    Table 1 experiment reports this flag per dataset.
    """
    return all(db.is_atomic(edge.dst) for edge in db.edges())


def label_paths_from(
    db: Database, start: ObjectId, max_depth: int
) -> Dict[str, int]:
    """Count, per label path, how many objects are reached from ``start``.

    Paths are rendered dot-separated (``"member.name"``).  Used by the
    DataGuide baseline tests and the statistics module; depth is bounded
    because semistructured graphs may be cyclic.
    """
    counts: Dict[str, int] = {}
    frontier: List[tuple] = [(start, ())]
    for _ in range(max_depth):
        next_frontier: List[tuple] = []
        for obj, path in frontier:
            for edge in db.out_edges(obj):
                new_path = path + (edge.label,)
                counts[".".join(new_path)] = counts.get(".".join(new_path), 0) + 1
                if not db.is_atomic(edge.dst):
                    next_frontier.append((edge.dst, new_path))
        frontier = next_frontier
        if not frontier:
            break
    return counts
