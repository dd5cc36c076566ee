"""Stage 3: recasting the data within the chosen types (Section 6).

After Stage 2 the program has ``k`` types, but objects no longer
necessarily *satisfy* their home types (merging introduced defect), so
the pure greatest-fixpoint semantics "does not mix well" with the
clustering output.  This module implements the paper's resolution
options:

* ``RecastMode.STRICT`` — memberships are the GFP extents of the final
  program: an object belongs to every type whose predicate it satisfies
  recursively.  Objects satisfying no type are handled by the fallback.
* ``RecastMode.HOME_GUIDED`` — objects keep the home type(s) Stage 2
  assigned them (the defect measure prices the missing links), *plus*
  every type they satisfy one-step under the home assignment.  This is
  the paper's "classify objects based on the typed links suggested by
  their home type".

Fallback: an object with no membership is assigned to the **closest**
type under the simple Manhattan distance ``d`` between the object's
local picture and the rule body (Section 6's rule for new objects), or
left untyped when ``fallback="none"``.  Objects whose Stage 2 home was
explicitly the empty type stay untyped — that was the point of the
empty type.

:func:`type_new_object` applies the same rules to a previously unseen
object, the paper's incremental-typing story.

Bitset kernel
-------------
With ``use_bitset=True`` (the default) Stage 3 runs on ``int`` masks
over a :class:`~repro.core.linkspace.LinkSpace`.  A
:class:`LocalIndex` reads the database once into one position per
bisimulation class that Stage 1 computed
(:attr:`~repro.core.perfect.PerfectTyping.representative`), or per
complex object without classes: the bits of its atomic links, its
labelled complex out-edges counted per ``(label, target class)``, its
in-neighbour classes and its size.  Bisimilar objects given the same
homes get the same local picture, cover tests, fallback and final
types (``DESIGN.md`` §5), so a class is computed once.
:func:`recast_masks` then takes rule masks and a home assignment (or,
in ``STRICT`` mode, the GFP memberships) and computes the memberships
per position: one pass over the indexed edges builds every local
picture, the per-position, per-rule work is ``body & ~local == 0``,
and the closest-type fallback is an xor popcount
(:func:`closest_by_mask`).  Besides the final types it leaves, per
position, the local picture under the homes and the rules it covers.
:func:`recast` encodes the program into a fresh space (or the space of
the index it is given) and wraps the kernel, lifting the types to
every object at the end; :func:`repro.core.defect.defect_masks`
measures the defect on the same index, weighting each class by its
size and edge counts.  The sensitivity sweep builds one index on the
merger's space, runs its first sample on these bulk kernels and
carries the per-position state to later samples, re-deriving single
positions with the same definitions (:mod:`repro.core.sensitivity`).
``use_bitset=False`` keeps the original frozenset evaluation as the
oracle path (CLI ``--no-bitset``); the property suite pins that both
produce identical assignments.  The ``recast.cover_checks`` /
``recast.evaluations`` perf counters count the per-rule tests made:
one per (position, rule) per one-shot recast and per bulk sample —
per (complex object, rule) on an index without classes, per (class,
rule) on Stage 1's classes, which the pipeline's sweep and Stage 3 use
— and a carried sample counts only the tests it re-runs (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.distance import manhattan_bodies
from repro.core.fixpoint import greatest_fixpoint
from repro.core.linkspace import LinkSpace
from repro.core.sorts import sort_of
from repro.core.typing_program import (
    ATOMIC,
    Direction,
    TypedLink,
    TypeRule,
    TypingProgram,
    atomic_target,
)
from repro.exceptions import RecastError
from repro.graph.database import Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf

Assignment = Mapping[ObjectId, AbstractSet[str]]


def _program_uses_sorts(program: TypingProgram) -> bool:
    """Whether any rule uses the Remark 2.1 sorted-atomic refinement."""
    return any(link.sort is not None for link in program.typed_links())


def _satisfied_for_local(
    program: TypingProgram,
    local: FrozenSet[TypedLink],
    perf: PerfRecorder,
) -> FrozenSet[str]:
    """Rules whose body the precomputed ``local`` picture covers."""
    names = [rule.name for rule in program.rules() if rule.body <= local]
    perf.incr("recast.cover_checks", len(program))
    perf.incr("recast.evaluations", len(program))
    return frozenset(names)


def _satisfied_for_mask(
    rule_masks: List[Tuple[str, int]],
    local_mask: int,
    perf: PerfRecorder,
) -> FrozenSet[str]:
    """Bitset twin of :func:`_satisfied_for_local` over encoded rules."""
    names = [name for name, mask in rule_masks if mask & ~local_mask == 0]
    perf.incr("recast.cover_checks", len(rule_masks))
    perf.incr("recast.evaluations", len(rule_masks))
    return frozenset(names)


class RecastMode(enum.Enum):
    """Membership policy for Stage 3 (see module docstring)."""

    STRICT = "strict"
    HOME_GUIDED = "home-guided"


@dataclass(frozen=True)
class RecastResult:
    """Outcome of Stage 3.

    Attributes
    ----------
    assignment:
        Final object -> set-of-types map (empty set = untyped).
    extents:
        The same data inverted: type -> set of member objects.
    fallback_objects:
        Objects that satisfied no type and were placed by the
        closest-type rule.
    untyped_objects:
        Objects left with no type at all.
    """

    assignment: Dict[ObjectId, FrozenSet[str]]
    extents: Dict[str, FrozenSet[ObjectId]]
    fallback_objects: FrozenSet[ObjectId]
    untyped_objects: FrozenSet[ObjectId]

    def types_of(self, obj: ObjectId) -> FrozenSet[str]:
        """Types assigned to ``obj`` (empty when untyped/unknown)."""
        return self.assignment.get(obj, frozenset())


def object_local_body(
    db: Database, obj: ObjectId, reference: Assignment,
    include_sorts: bool = False,
) -> FrozenSet[TypedLink]:
    """The object's local picture as typed links, typing neighbours by
    the ``reference`` assignment.

    Outgoing edges to atomic objects yield ``->l^0``; edges to/from a
    complex neighbour yield one typed link per type the reference
    assigns to the neighbour (a neighbour with several roles witnesses
    several typed links).  Unassigned neighbours contribute nothing —
    their edges cannot witness any typed link.

    With ``include_sorts`` every atomic edge *additionally* yields its
    sorted link ``->l^0:<sort>``, so subset tests also work against
    programs using the Remark 2.1 sort refinement; plain programs keep
    the exact paper distances by leaving it off.
    """
    from repro.core.sorts import sort_of
    from repro.core.typing_program import atomic_target

    body: Set[TypedLink] = set()
    empty: FrozenSet[str] = frozenset()
    for edge in db.out_edges(obj):
        if db.is_atomic(edge.dst):
            body.add(TypedLink.to_atomic(edge.label))
            if include_sorts:
                body.add(
                    TypedLink(
                        Direction.OUT,
                        edge.label,
                        atomic_target(sort_of(db.value(edge.dst))),
                    )
                )
        else:
            for type_name in reference.get(edge.dst, empty):
                body.add(TypedLink.outgoing(edge.label, type_name))
    for edge in db.in_edges(obj):
        for type_name in reference.get(edge.src, empty):
            body.add(TypedLink.incoming(edge.label, type_name))
    return frozenset(body)


def object_local_mask(
    db: Database,
    obj: ObjectId,
    reference: Assignment,
    space: LinkSpace,
    include_sorts: bool = False,
) -> int:
    """:func:`object_local_body` emitting a ``space`` bitmask directly.

    Builds the local picture without materialising any
    :class:`TypedLink` objects on the (overwhelmingly common)
    already-interned case: each witnessed edge ors one interned bit
    into an ``int``.  Decoding the result through ``space`` yields
    exactly :func:`object_local_body`'s frozenset.
    """
    from repro.core.sorts import sort_of
    from repro.core.typing_program import ATOMIC, atomic_target

    mask = 0
    empty: FrozenSet[str] = frozenset()
    bit = space.bit
    for edge in db.out_edges(obj):
        if db.is_atomic(edge.dst):
            mask |= bit(Direction.OUT, edge.label, ATOMIC)
            if include_sorts:
                mask |= bit(
                    Direction.OUT,
                    edge.label,
                    atomic_target(sort_of(db.value(edge.dst))),
                )
        else:
            for type_name in reference.get(edge.dst, empty):
                mask |= bit(Direction.OUT, edge.label, type_name)
    for edge in db.in_edges(obj):
        for type_name in reference.get(edge.src, empty):
            mask |= bit(Direction.IN, edge.label, type_name)
    return mask


def satisfied_types(
    program: TypingProgram,
    db: Database,
    obj: ObjectId,
    reference: Assignment,
    perf: Optional[PerfRecorder] = None,
) -> FrozenSet[str]:
    """Types whose body ``obj`` satisfies *one-step* under ``reference``.

    This is the non-fixpoint satisfaction check used by
    ``HOME_GUIDED`` recasting and by new-object typing: neighbours are
    typed by the reference assignment rather than recursively.

    ``perf`` records the ``recast.evaluations`` counter.
    """
    uses_sorts = _program_uses_sorts(program)
    local = object_local_body(db, obj, reference, include_sorts=uses_sorts)
    return _satisfied_for_local(program, local, _resolve_perf(perf))


def closest_type(
    program: TypingProgram,
    db: Database,
    obj: ObjectId,
    reference: Assignment,
) -> Tuple[str, int]:
    """The type minimising ``d(local picture of obj, body)``.

    Ties break toward the smaller body, then the lexicographically
    smaller name, so results are deterministic.
    """
    if len(program) == 0:
        raise RecastError("cannot pick a closest type from an empty program")
    uses_sorts = any(
        link.sort is not None for link in program.typed_links()
    )
    local = object_local_body(db, obj, reference, include_sorts=uses_sorts)
    best: Optional[Tuple[int, int, str]] = None
    for rule in program.rules():
        d = manhattan_bodies(local, rule.body)
        key = (d, len(rule.body), rule.name)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2], best[0]


def closest_by_mask(
    rule_masks: List[Tuple[str, int]], local_mask: int
) -> Tuple[str, int]:
    """Bitset twin of :func:`closest_type` over encoded rule bodies.

    ``rule_masks`` are ``(name, body_mask)`` pairs encoded in the same
    :class:`~repro.core.linkspace.LinkSpace` that produced
    ``local_mask``, so the Manhattan distance ``d`` is the xor
    popcount.  Ties break exactly like :func:`closest_type` — smaller
    body, then lexicographically smaller name — keeping both paths
    deterministic and interchangeable.  Returns ``(name, distance)``.

    Shared by the recast fallback loop and the schema service's
    read-path lookup (which keeps rule masks warm between requests).
    """
    if not rule_masks:
        raise RecastError("cannot pick a closest type from an empty program")
    best: Optional[Tuple[int, int, str]] = None
    for name, mask in rule_masks:
        key = ((mask ^ local_mask).bit_count(), mask.bit_count(), name)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2], best[0]


#: One indexed kind of complex edge seen from its source: the OUT row
#: and IN row of its label (target type -> bit), the target's position
#: and the number of edges of that kind.
_OutEdge = Tuple[Dict[str, int], Dict[str, int], int, int]


class LocalIndex:
    """Every complex object's local picture, read from ``db`` once.

    A position is a class of ``classes`` (a map from every complex
    object to its class's representative, as Stage 1 keeps it in
    :attr:`~repro.core.perfect.PerfectTyping.representative`), or,
    without ``classes``, a single object: the identity partition, whose
    positions follow ``db.complex_objects()``.  ``objects`` holds each
    position's representative, in the order the representatives first
    appear in ``classes``, and ``position`` maps every complex object
    to its class's position.  Per position the index holds:

    * ``size`` — the number of objects in the class;
    * ``atomic`` — the bits of its atomic links: ``->l^0`` and, where
      ``space`` interns it, the sorted ``->l^0:<sort>``;
    * ``atomic_edges`` — its members' atomic out-edges as
      ``(bits, count)`` groups, the edges whose excess test reads those
      bits;
    * ``out`` — its members' complex out-edges, one entry per
      ``(label, target position)`` with the number of such edges;
    * ``inc`` — the ``(label, source position)`` pairs of its members'
      complex in-edges, each once.

    Bisimilar objects have the same labelled edges into the same
    classes, in both directions, and the same atomic labels, so under
    types that are constant on each class they have the same local
    picture: a position's picture is each member's.  Sorted bits are
    the exception when the partition did not split by sort; if some
    class's members carry different atomic bits in ``space``, the index
    is read on the identity partition instead.  Without ``classes`` the
    index is the per-object one, with a count of 1 per edge.

    A typed link between complex objects, ``(OUT|IN, l, type)``, is
    read through per-label rows that :meth:`sync` folds from ``space``,
    so bits that Stage 2 retargets mint after the build are seen.  The
    index reads bits without interning them: a link that ``space`` has
    not interned is held by no rule body, so it changes no subset test
    and no deficit, and it would add the same 1 to every rule's
    distance in the closest-type fallback.  Atomic bits are fixed at
    the build (merges never mint an atomic link), so a rule with an
    atomic link must be encoded in ``space`` before the index is read.
    """

    __slots__ = (
        "space", "objects", "position", "size", "atomic", "atomic_edges",
        "out", "inc", "_rows", "_synced", "_read_done",
    )

    def __init__(
        self,
        db: Database,
        space: LinkSpace,
        classes: Optional[Mapping[ObjectId, ObjectId]] = None,
    ) -> None:
        self.space = space
        #: label -> (OUT row, IN row), each a target type -> bit dict.
        self._rows: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {}
        self._synced = 0
        self._read_done = False
        self.sync()
        if classes is None or not self._read(db, classes):
            self._read(db, None)
        self._read_done = True

    def _read(
        self,
        db: Database,
        classes: Optional[Mapping[ObjectId, ObjectId]],
    ) -> bool:
        """Read ``db`` on ``classes`` (``None``: the identity
        partition); ``False`` if a class's members carry different
        atomic bits."""
        space = self.space
        links = space.links_of((1 << space.dimension) - 1)
        atomic_bits = {
            (link.label, link.target): 1 << i
            for i, link in enumerate(links)
            if link.is_atomic_target
        }
        plain = {
            label: bit for (label, target), bit in atomic_bits.items()
            if target == ATOMIC
        }
        sorted_labels = {
            label for label, target in atomic_bits if target != ATOMIC
        }
        if classes is None:
            self.objects = list(db.complex_objects())
            self.position = {obj: i for i, obj in enumerate(self.objects)}
        else:
            self.objects = list(dict.fromkeys(classes.values()))
            rank = {rep: i for i, rep in enumerate(self.objects)}
            self.position = {
                obj: rank[classes[obj]] for obj in db.complex_objects()
            }
        width = len(self.objects)
        position = self.position
        size = [0] * width
        atomic: List[Optional[int]] = [None] * width
        groups: List[Dict[int, int]] = [{} for _ in range(width)]
        kinds: List[Dict[Tuple[str, int], int]] = [{} for _ in range(width)]
        out_labels, targets_view, at = (
            db.out_labels, db.targets_view, position.get
        )
        for obj, i in position.items():
            size[i] += 1
            mask = 0
            group, kind = groups[i], kinds[i]
            for label in out_labels(obj):
                for dst in targets_view(obj, label):
                    j = at(dst)
                    if j is not None:
                        key = (label, j)
                        kind[key] = kind.get(key, 0) + 1
                        continue
                    bits = plain.get(label, 0)
                    if label in sorted_labels:
                        target = atomic_target(sort_of(db.value(dst)))
                        bits |= atomic_bits.get((label, target), 0)
                    mask |= bits
                    group[bits] = group.get(bits, 0) + 1
            if atomic[i] is None:
                atomic[i] = mask
            elif atomic[i] != mask:
                return False
        rows = self._rows
        self.size = size
        self.atomic = atomic
        self.atomic_edges = [list(group.items()) for group in groups]
        self.out: List[List[_OutEdge]] = [[] for _ in range(width)]
        self.inc: List[List[Tuple[Dict[str, int], int]]] = [
            [] for _ in range(width)
        ]
        for i, kind in enumerate(kinds):
            for (label, j), count in kind.items():
                out_row, in_row = rows.setdefault(label, ({}, {}))
                self.out[i].append((out_row, in_row, j, count))
                self.inc[j].append((in_row, i))
        return True

    def sync(self) -> None:
        """Fold the typed links ``space`` interned since the last call
        into the per-label rows.

        Raises :class:`~repro.exceptions.RecastError` on an atomic link
        interned after the build: the index's atomic bits miss it.
        """
        space = self.space
        if space.dimension == self._synced:
            return
        bit = 1 << self._synced
        for link in space.links_of((1 << space.dimension) - bit):
            if link.is_atomic_target:
                if self._read_done:
                    raise RecastError(
                        f"atomic link {link} was interned after the "
                        "local-picture index was read"
                    )
            else:
                rows = self._rows.setdefault(link.label, ({}, {}))
                rows[link.direction is Direction.IN][link.target] = bit
            bit <<= 1
        self._synced = space.dimension

    def local_masks(self, types: Sequence[Iterable[str]]) -> List[int]:
        """Every object's local picture, neighbours typed by ``types``
        (one iterable of type names per position), in one edge pass."""
        self.sync()
        local = list(self.atomic)
        for i, edges in enumerate(self.out):
            own = types[i]
            outgoing = 0
            for out_row, in_row, j, _ in edges:
                for name in types[j]:
                    outgoing |= out_row.get(name, 0)
                incoming = 0
                for name in own:
                    incoming |= in_row.get(name, 0)
                local[j] |= incoming
            local[i] |= outgoing
        return local

    def local_mask(self, i: int, types: Sequence[Iterable[str]]) -> int:
        """The local picture of the position ``i`` alone."""
        self.sync()
        mask = self.atomic[i]
        for out_row, _, j, _ in self.out[i]:
            for name in types[j]:
                mask |= out_row.get(name, 0)
        for in_row, j in self.inc[i]:
            for name in types[j]:
                mask |= in_row.get(name, 0)
        return mask

    def members(
        self, extents: Mapping[str, AbstractSet[ObjectId]]
    ) -> List[Set[str]]:
        """Per-position type sets of type -> members ``extents`` (on
        classes, extents that are unions of classes)."""
        out: List[Set[str]] = [set() for _ in self.objects]
        position = self.position
        for type_name, members in extents.items():
            for obj in members:
                out[position[obj]].add(type_name)
        return out


def recast_masks(
    index: LocalIndex,
    rules: Sequence[Tuple[str, int]],
    home: Optional[Sequence[Optional[AbstractSet[str]]]],
    members: Optional[Sequence[AbstractSet[str]]] = None,
    fallback: str = "closest",
    perf: Optional[PerfRecorder] = None,
) -> Tuple[
    List[FrozenSet[str]],
    List[int],
    Optional[List[int]],
    Optional[List[FrozenSet[str]]],
]:
    """The Stage 3 memberships on ``index``, from rule masks.

    ``rules`` are ``(name, body_mask)`` pairs over the index's space;
    ``home`` gives per position the Stage 2 home types (``None`` for an
    object without a home entry; an empty set means "explicitly
    untyped").  Without ``members`` this is ``HOME_GUIDED``: home types
    plus every rule the local picture under ``home`` covers.  With
    ``members`` (the ``STRICT`` GFP memberships per position) only the
    fallback runs.  ``fallback="closest"`` places each object left with
    no type, and not explicitly untyped, in its closest rule under the
    pre-fallback assignment.

    Returns, per position, the final types and, as a list, the
    positions the fallback placed; under ``HOME_GUIDED`` also the local
    pictures under ``home`` and the rules each covers (``None`` under
    ``STRICT``).  Equal type sets are one object, so a carried copy of
    these lists stays small (:mod:`repro.core.sensitivity`).  On an
    index over classes ``home`` and ``members`` must be constant on
    each class; the results then hold for every member.
    """
    if fallback not in ("closest", "none"):
        raise RecastError(f"unknown fallback {fallback!r}")
    recorder = _resolve_perf(perf)
    size = len(index.objects)
    sets: Dict[FrozenSet[str], FrozenSet[str]] = {}
    intern = sets.setdefault
    local: Optional[List[int]] = None
    covered: Optional[List[FrozenSet[str]]] = None
    if members is None:
        if home is None:
            raise RecastError("HOME_GUIDED recasting requires a home assignment")
        names = {name for name, _ in rules}
        local = index.local_masks([homes or () for homes in home])
        covered, assigned = [], []
        for homes, mask in zip(home, local):
            uncovered = ~mask
            cover = frozenset(
                name for name, body in rules if not body & uncovered
            )
            cover = intern(cover, cover)
            covered.append(cover)
            if homes:
                cover = cover | {t for t in homes if t in names}
                cover = intern(cover, cover)
            assigned.append(cover)
        recorder.incr("recast.cover_checks", size * len(rules))
        recorder.incr("recast.evaluations", size * len(rules))
    else:
        assigned = []
        for types in members:
            frozen = frozenset(types)
            assigned.append(intern(frozen, frozen))

    final = list(assigned)
    placed: List[int] = []
    if fallback == "closest" and rules:
        for i, types in enumerate(assigned):
            if types or (home is not None and home[i] is not None
                         and not home[i]):
                continue
            chosen, _ = closest_by_mask(rules, index.local_mask(i, assigned))
            single = frozenset((chosen,))
            final[i] = intern(single, single)
            placed.append(i)
    return final, placed, local, covered


def recast(
    program: TypingProgram,
    db: Database,
    home: Optional[Assignment] = None,
    mode: RecastMode = RecastMode.HOME_GUIDED,
    fallback: str = "closest",
    perf: Optional[PerfRecorder] = None,
    use_bitset: bool = True,
    index: Optional[LocalIndex] = None,
) -> RecastResult:
    """Run Stage 3 and return the final object-to-types assignment.

    Parameters
    ----------
    program:
        The final (Stage 2) typing program.
    db:
        The database to recast.
    home:
        The Stage 2 home assignment (object -> set of types; an empty
        set means "explicitly untyped" and is honoured).  Required for
        ``HOME_GUIDED`` mode; optional for ``STRICT``.
    mode:
        See :class:`RecastMode`.
    fallback:
        ``"closest"`` (default) assigns objects that satisfied nothing
        to the closest type by ``d``; ``"none"`` leaves them untyped.
    perf:
        Optional recorder for the ``recast.*`` counters.
    use_bitset:
        When true (the default) the memberships and the closest-type
        fallback run on the mask kernel (:func:`recast_masks` over a
        :class:`LocalIndex`); ``False`` keeps the frozenset oracle
        path.  Results are identical either way.
    index:
        The :class:`LocalIndex` of ``db`` to run the mask kernel on,
        read after ``program``'s bodies were encoded in its space;
        one is read for the call by default.  On an index over classes
        (the pipeline's Stage 3 passes Stage 1's) ``home`` is read at
        each class's representative and must give every member of a
        class the same homes; the types are lifted to every member at
        the end.
    """
    if fallback not in ("closest", "none"):
        raise RecastError(f"unknown fallback {fallback!r}")
    if mode is RecastMode.HOME_GUIDED and home is None:
        raise RecastError("HOME_GUIDED recasting requires a home assignment")
    if use_bitset:
        final, fallback_objects = _recast_bitset(
            program, db, home, mode, fallback, _resolve_perf(perf), index
        )
    else:
        final, fallback_objects = _recast_sets(
            program, db, home, mode, fallback, _resolve_perf(perf)
        )
    extents: Dict[str, Set[ObjectId]] = {name: set() for name in program.type_names()}
    for obj, types in final.items():
        for type_name in types:
            extents[type_name].add(obj)
    return RecastResult(
        assignment=final,
        extents={name: frozenset(members) for name, members in extents.items()},
        fallback_objects=frozenset(fallback_objects),
        untyped_objects=frozenset(o for o, t in final.items() if not t),
    )


def _recast_bitset(
    program: TypingProgram,
    db: Database,
    home: Optional[Assignment],
    mode: RecastMode,
    fallback: str,
    perf: PerfRecorder,
    index: Optional[LocalIndex],
) -> Tuple[Dict[ObjectId, FrozenSet[str]], Set[ObjectId]]:
    """:func:`recast` on the mask kernel: encode, index, then
    :func:`recast_masks`, lifted from positions to objects."""
    space = LinkSpace() if index is None else index.space
    with perf.span("linkspace.encode"):
        rule_masks = [
            (rule.name, space.encode(rule.body)) for rule in program.rules()
        ]
    perf.incr("linkspace.encodes", len(rule_masks))
    if index is None:
        index = LocalIndex(db, space)
    members = None
    if mode is RecastMode.STRICT:
        fixpoint = greatest_fixpoint(program, db, perf=perf)
        members = index.members(fixpoint.extents)
    homes = None if home is None else [home.get(obj) for obj in index.objects]
    types, placed, _, _ = recast_masks(
        index, rule_masks, homes, members, fallback, perf
    )
    position, placed_at = index.position, set(placed)
    return (
        {obj: types[i] for obj, i in position.items()},
        {obj for obj, i in position.items() if i in placed_at},
    )


def _recast_sets(
    program: TypingProgram,
    db: Database,
    home: Optional[Assignment],
    mode: RecastMode,
    fallback: str,
    perf: PerfRecorder,
) -> Tuple[Dict[ObjectId, FrozenSet[str]], Set[ObjectId]]:
    """:func:`recast` on frozenset bodies: the oracle path."""
    uses_sorts = _program_uses_sorts(program)
    assignment: Dict[ObjectId, Set[str]] = {
        obj: set() for obj in db.complex_objects()
    }

    if mode is RecastMode.STRICT:
        fixpoint = greatest_fixpoint(program, db, perf=perf)
        for type_name, members in fixpoint.extents.items():
            for obj in members:
                assignment[obj].add(type_name)
    else:
        assert home is not None
        for obj in assignment:
            homes = home.get(obj)
            if homes:
                assignment[obj].update(t for t in homes if t in program)
        # Add every type satisfied one-step under the home assignment.
        for obj in assignment:
            local = object_local_body(
                db, obj, home, include_sorts=uses_sorts
            )
            assignment[obj].update(
                _satisfied_for_local(program, local, perf)
            )

    explicitly_untyped: Set[ObjectId] = set()
    if home is not None:
        explicitly_untyped = {
            obj for obj, homes in home.items() if not homes
        }

    fallback_objects: Set[ObjectId] = set()
    if fallback == "closest" and len(program) > 0:
        reference: Assignment = {
            obj: frozenset(types) for obj, types in assignment.items()
        }
        for obj, types in assignment.items():
            if types or obj in explicitly_untyped:
                continue
            chosen, _ = closest_type(program, db, obj, reference)
            types.add(chosen)
            fallback_objects.add(obj)

    final = {obj: frozenset(types) for obj, types in assignment.items()}
    return final, fallback_objects


def type_new_object(
    program: TypingProgram,
    db: Database,
    obj: ObjectId,
    reference: Assignment,
) -> FrozenSet[str]:
    """Type an object that was not used to derive the program.

    Section 6: assign the object to every type it satisfies completely;
    if there is none, assign it to the closest type under ``d``.
    """
    satisfied = satisfied_types(program, db, obj, reference)
    if satisfied:
        return satisfied
    if len(program) == 0:
        return frozenset()
    chosen, _ = closest_type(program, db, obj, reference)
    return frozenset([chosen])
