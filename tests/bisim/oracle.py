"""Oracles for ``refine_partition``: brute-force greatest bisimulation
and the synchronous rounds of Moore refinement."""

from repro.bisim.partition import Partition

#: Block id of every atomic neighbour in :func:`synchronous_refinement`.
_ATOM_BLOCK = -1


def greatest_bisimulation(db, use_outgoing=True, use_incoming=True):
    """The coarsest stable partition of the complex objects, by brute force.

    Starts from every pair of complex objects and drops each pair that
    fails the transfer condition — every edge of one object (outgoing
    and/or incoming, per the flags) is matched by an edge of the other
    with the same direction and label into a related object — until no
    pair fails.  Atomic neighbours count as one block, as in
    :func:`repro.bisim.partition.refine_partition`.  Quadratic in the
    objects per round; meant for graphs of a few dozen objects.
    """
    objects = sorted(db.complex_objects())
    moves = {}
    for obj in objects:
        steps = []
        if use_outgoing:
            steps += [("out", e.label, e.dst) for e in db.out_edges(obj)]
        if use_incoming:
            steps += [("in", e.label, e.src) for e in db.in_edges(obj)]
        moves[obj] = steps
    related = {(x, y) for x in objects for y in objects}

    def matched(a, b):
        if db.is_atomic(a) or db.is_atomic(b):
            return db.is_atomic(a) and db.is_atomic(b)
        return (a, b) in related

    def simulated(x, y):
        return all(
            any(
                (d, label) == (e, other) and matched(a, b)
                for e, other, b in moves[y]
            )
            for d, label, a in moves[x]
        )

    changed = True
    while changed:
        changed = False
        for x, y in sorted(related):
            if not (simulated(x, y) and simulated(y, x)):
                related.discard((x, y))
                changed = True
    blocks = {
        frozenset(y for y in objects if (x, y) in related) for x in objects
    }
    return Partition(tuple(blocks)).normalised()


def _signatures(db, block_of, objects, use_outgoing, use_incoming):
    sigs = {}
    for obj in objects:
        parts = set()
        if use_outgoing:
            for edge in db.out_edges(obj):
                neighbour_block = (
                    _ATOM_BLOCK
                    if db.is_atomic(edge.dst)
                    else block_of[edge.dst]
                )
                parts.add(("out", edge.label, neighbour_block))
        if use_incoming:
            for edge in db.in_edges(obj):
                parts.add(("in", edge.label, block_of[edge.src]))
        sigs[obj] = frozenset(parts)
    return sigs


def synchronous_refinement(
    db, initial=None, use_outgoing=True, use_incoming=True, max_rounds=None
):
    """Moore refinement in synchronous rounds, every object re-signed in
    every round: round ``r + 1`` splits each block of round ``r`` by the
    signatures under round ``r``.  Stops at the first round that splits
    nothing, or after ``max_rounds`` rounds counted from ``initial``
    (the one-block partition by default)."""
    objects = sorted(db.complex_objects())
    partition = initial if initial is not None else Partition.single(objects)
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            return partition.normalised()
        block_of = partition.block_of()
        sigs = _signatures(db, block_of, objects, use_outgoing, use_incoming)
        groups = {}
        for obj in objects:
            groups.setdefault((block_of[obj], sigs[obj]), []).append(obj)
        new_partition = Partition(
            tuple(frozenset(members) for members in groups.values())
        ).normalised()
        rounds += 1
        if new_partition.num_blocks == partition.num_blocks:
            return new_partition
        partition = new_partition
