"""Defect of a typing: excess + deficit (Section 2, "Defect").

Given a program ``P``, a database ``D`` and a *type assignment*
(object -> set of types, e.g. the GFP extents or the Stage 2/3 home
assignment):

* **Excess** counts the ``link`` facts of ``D`` that validate no
  membership: ``link(o, o', l)`` is *used* when some assigned type of
  ``o`` requires ``->l^{c'}`` with ``c'`` assigned to ``o'`` (or
  ``->l^0`` with ``o'`` atomic), or some assigned type of ``o'``
  requires ``<-l^{c}`` with ``c`` assigned to ``o``.  Unused facts are
  in excess.  The greatest-fixpoint semantics can produce excess but
  never deficit.

* **Deficit** counts the ground facts that would have to be *invented*
  to make every assigned membership derivable: for each object ``o``
  and each typed link required by any of its assigned types but not
  witnessed under the assignment, one fact is needed.  Requirements are
  deduplicated per ``(object, typed link)`` — two roles of ``o`` that
  both need ``->l^c`` are repaired by the same invented fact.  The
  paper asks for the *minimum* number of invented facts; our count is
  that minimum when each invented fact repairs requirements of a single
  object (exact whenever invented endpoints are fresh, an upper bound
  in the rare case where one fact could serve two existing objects at
  once — e.g. a missing ``->a^c2`` of ``o`` and a missing ``<-a^c1`` of
  ``o'`` repaired by the same ``link(o, o', a)``).  This matches the
  arithmetic of the paper's Example 2.2.

``defect = excess + deficit``.

Mask kernel
-----------
:func:`defect_masks` measures both on a
:class:`~repro.core.recast.LocalIndex` (the database read once) from
rule-body masks.  A position of the index is a bisimulation class of
Stage 1 (or a single object); the assignment must be constant on each
class, as every assignment Stages 2–3 make is.  ``required[c]`` is the
OR of the bodies of the class's assigned types; one pass over the
indexed edge kinds builds every local picture under the assignment
and marks a kind used when its out-bits hit the source's ``required``
or its in-bits hit the target's (an atomic edge carries ``->l^0`` and
``->l^0:<sort>``, so a rule holding either uses it).  Every member of
a class has the class's picture and ``required``, and whether an edge
is used depends only on (source class, label, target class) or
(source class, atomic bits), so the excess of a class is the count of
its members' edges of unused kinds and its deficit is
``size × popcount(required & ~local)``.  It leaves these per-position
terms — ``required``, the excess (an edge counts at its source) and
the deficit — whose sums are the two counts.  :func:`compute_defect`
runs it by default (``use_bitset=True``), on the index it is given or
on one read for the call.  The sensitivity sweep runs it on its first
sample and then carries the terms, re-deriving single positions with
:func:`excess_at` and :func:`deficit_at`.  The per-link
:func:`compute_excess` / :func:`compute_deficit` are the oracle
(``use_bitset=False``) and the path that itemises (``collect=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.linkspace import LinkSpace
from repro.core.recast import LocalIndex
from repro.core.typing_program import (
    Direction,
    TypedLink,
    TypeRule,
    TypingProgram,
)
from repro.graph.database import Database, Edge, ObjectId

#: An assignment of objects to (possibly several) types.  Objects
#: missing from the mapping are untyped — their edges can only be used
#: from the other endpoint, and they impose no requirements.
Assignment = Mapping[ObjectId, AbstractSet[str]]


@dataclass(frozen=True)
class ExcessReport:
    """Outcome of the excess computation."""

    count: int
    unused_edges: Tuple[Edge, ...]


@dataclass(frozen=True)
class DeficitReport:
    """Outcome of the deficit computation.

    ``missing`` lists the deduplicated unmet requirements as
    ``(object, typed_link)`` pairs.
    """

    count: int
    missing: Tuple[Tuple[ObjectId, TypedLink], ...]


@dataclass(frozen=True)
class DefectReport:
    """``defect = excess + deficit`` with both sub-reports attached."""

    excess: ExcessReport
    deficit: DeficitReport

    @property
    def total(self) -> int:
        """The defect: excess count plus deficit count."""
        return self.excess.count + self.deficit.count

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"defect {self.total} "
            f"(excess {self.excess.count}, deficit {self.deficit.count})"
        )


def _uses_out(rule: TypeRule, label: str, target_types: AbstractSet[str]) -> bool:
    return any(
        link.direction is Direction.OUT
        and link.label == label
        and link.target in target_types
        for link in rule.body
    )


def _uses_out_atomic(rule: TypeRule, label: str, sort: str) -> bool:
    return any(
        link.direction is Direction.OUT
        and link.label == label
        and link.is_atomic_target
        and (link.sort is None or link.sort == sort)
        for link in rule.body
    )


def _uses_in(rule: TypeRule, label: str, source_types: AbstractSet[str]) -> bool:
    return any(
        link.direction is Direction.IN
        and link.label == label
        and link.target in source_types
        for link in rule.body
    )


def compute_excess(
    program: TypingProgram,
    db: Database,
    assignment: Assignment,
    collect_edges: bool = True,
) -> ExcessReport:
    """Count (and optionally collect) the unused ``link`` facts."""
    count = 0
    unused: List[Edge] = []
    empty: FrozenSet[str] = frozenset()
    for edge in db.edges():
        src_types = assignment.get(edge.src, empty)
        used = False
        if db.is_atomic(edge.dst):
            from repro.core.sorts import sort_of

            value_sort = sort_of(db.value(edge.dst))
            used = any(
                _uses_out_atomic(program.rule(c), edge.label, value_sort)
                for c in src_types
                if c in program
            )
        else:
            dst_types = frozenset(
                t for t in assignment.get(edge.dst, empty) if t in program
            )
            used = any(
                _uses_out(program.rule(c), edge.label, dst_types)
                for c in src_types
                if c in program
            )
            if not used:
                live_src = frozenset(t for t in src_types if t in program)
                used = any(
                    _uses_in(program.rule(c), edge.label, live_src)
                    for c in dst_types
                )
        if not used:
            count += 1
            if collect_edges:
                unused.append(edge)
    unused.sort()
    return ExcessReport(count=count, unused_edges=tuple(unused))


def _witnessed(
    db: Database,
    obj: ObjectId,
    link: TypedLink,
    assignment: Assignment,
) -> bool:
    """Whether ``obj`` satisfies ``link`` under the assignment."""
    empty: FrozenSet[str] = frozenset()
    if link.direction is Direction.OUT:
        for neighbour in db.targets(obj, link.label):
            if link.is_atomic_target:
                if db.is_atomic(neighbour):
                    if link.sort is None:
                        return True
                    from repro.core.sorts import sort_of

                    if sort_of(db.value(neighbour)) == link.sort:
                        return True
            elif link.target in assignment.get(neighbour, empty):
                return True
        return False
    return any(
        link.target in assignment.get(neighbour, empty)
        for neighbour in db.sources(obj, link.label)
    )


def compute_deficit(
    program: TypingProgram,
    db: Database,
    assignment: Assignment,
    collect_missing: bool = True,
) -> DeficitReport:
    """Count (and optionally collect) the unmet typed-link requirements."""
    count = 0
    missing: List[Tuple[ObjectId, TypedLink]] = []
    for obj, types in assignment.items():
        required: Set[TypedLink] = set()
        for type_name in types:
            if type_name in program:
                required.update(program.rule(type_name).body)
        for link in required:
            if not _witnessed(db, obj, link, assignment):
                count += 1
                if collect_missing:
                    missing.append((obj, link))
    missing.sort(key=lambda item: (item[0], str(item[1])))
    return DeficitReport(count=count, missing=tuple(missing))


def defect_masks(
    index: LocalIndex,
    bodies: Mapping[str, int],
    assignment: Sequence[AbstractSet[str]],
) -> Tuple[List[int], List[int], List[int]]:
    """Per-position defect terms of an assignment on ``index``.

    ``bodies`` maps each type to its rule-body mask over the index's
    space; assigned names without a body impose nothing.  Returns, per
    position, ``required`` (the OR of the assigned bodies), the excess
    term (the unused out-edges of the position's objects, each edge
    kind weighted by its count: an edge is counted at its source) and
    the deficit term (``size × popcount(required & ~local)``).  Their
    sums are :func:`compute_excess` / :func:`compute_deficit` of the
    same program and assignment, lifted to every member (see the module
    docstring); :func:`excess_at` and :func:`deficit_at` re-derive one
    position's terms.
    """
    index.sync()
    required: List[int] = []
    for types in assignment:
        mask = 0
        for type_name in types:
            mask |= bodies.get(type_name, 0)
        required.append(mask)
    local = list(index.atomic)
    excess: List[int] = []
    for i, edges in enumerate(index.out):
        need = required[i]
        unused = 0
        for bits, count in index.atomic_edges[i]:
            if not need & bits:
                unused += count
        own = assignment[i]
        outgoing = 0
        for out_row, in_row, j, count in edges:
            out_bits = 0
            for type_name in assignment[j]:
                out_bits |= out_row.get(type_name, 0)
            in_bits = 0
            for type_name in own:
                in_bits |= in_row.get(type_name, 0)
            outgoing |= out_bits
            local[j] |= in_bits
            if not (need & out_bits or required[j] & in_bits):
                unused += count
        local[i] |= outgoing
        excess.append(unused)
    deficit = [
        size * (need & ~mask).bit_count()
        for size, need, mask in zip(index.size, required, local)
    ]
    return required, excess, deficit


def excess_at(
    index: LocalIndex,
    i: int,
    required: Sequence[int],
    assignment: Sequence[AbstractSet[str]],
) -> int:
    """:func:`defect_masks`' excess term of position ``i`` alone."""
    need = required[i]
    unused = 0
    for bits, count in index.atomic_edges[i]:
        if not need & bits:
            unused += count
    own = assignment[i]
    for out_row, in_row, j, count in index.out[i]:
        out_bits = 0
        for type_name in assignment[j]:
            out_bits |= out_row.get(type_name, 0)
        in_bits = 0
        for type_name in own:
            in_bits |= in_row.get(type_name, 0)
        if not (need & out_bits or required[j] & in_bits):
            unused += count
    return unused


def deficit_at(
    index: LocalIndex,
    i: int,
    required: Sequence[int],
    assignment: Sequence[AbstractSet[str]],
) -> int:
    """:func:`defect_masks`' deficit term of position ``i`` alone."""
    missing = required[i] & ~index.local_mask(i, assignment)
    return index.size[i] * missing.bit_count()


def compute_defect(
    program: TypingProgram,
    db: Database,
    assignment: Assignment,
    collect: bool = False,
    use_bitset: bool = True,
    index: Optional[LocalIndex] = None,
) -> DefectReport:
    """Compute the full defect report for an assignment.

    ``collect=False`` (the default) skips materialising the itemised
    edge/requirement lists, which matters when the sensitivity sweep
    evaluates the defect at every ``k``.  ``use_bitset=True`` (the
    default) counts on the mask kernel (:func:`defect_masks`), on
    ``index`` when given (read after ``program``'s bodies were encoded
    in its space; on classes, ``assignment`` is read at each class's
    representative and must be constant on each class) and on an index
    read for the call otherwise.  ``False``, an itemised report
    (``collect=True``) and an assignment that types an atomic or
    unknown object (Stage 3 never makes one; the index holds complex
    objects only) take the per-link path.  Counts are identical either
    way.
    """
    if use_bitset and not collect and all(
        db.is_complex(obj) for obj, types in assignment.items() if types
    ):
        space = LinkSpace() if index is None else index.space
        bodies = {
            rule.name: space.encode(rule.body) for rule in program.rules()
        }
        if index is None:
            index = LocalIndex(db, space)
        empty: FrozenSet[str] = frozenset()
        final = [assignment.get(obj, empty) for obj in index.objects]
        _, excess, deficit = defect_masks(index, bodies, final)
        return DefectReport(
            excess=ExcessReport(count=sum(excess), unused_edges=()),
            deficit=DeficitReport(count=sum(deficit), missing=()),
        )
    return DefectReport(
        excess=compute_excess(program, db, assignment, collect_edges=collect),
        deficit=compute_deficit(program, db, assignment, collect_missing=collect),
    )
