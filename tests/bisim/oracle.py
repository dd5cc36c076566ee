"""Brute-force greatest bisimulation: the oracle for ``refine_partition``."""

from repro.bisim.partition import Partition


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
