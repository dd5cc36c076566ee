"""Multiple-role decomposition (Section 4.2).

The minimal perfect typing assigns every object a single home type even
when the object plainly plays several roles (the paper's soccer-star /
movie-star example: an object that is both gets the ad-hoc conjunction
type ``Name, Country, Team, Movie``).  Forcing single roles either
explodes the number of types or the typing error.

A *complex* type is one whose body is the union of the bodies of
several strictly simpler types (fewer typed links each, every body a
proper subset).  Such a type can be removed: its home objects are
reassigned to each simpler type in the cover, and the greatest-fixpoint
semantics guarantees they still satisfy each of those types (no
negation — extra links never disqualify).

Per Remark 4.4 the subset relation over ``n`` types costs ``O(n^2)``
body comparisons; cover selection is greedy (largest-body-first) which
keeps the "atomization" the paper warns about in check, together with
a ``min_cover_size`` knob that refuses covers made of trivially small
types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core.perfect import PerfectTyping
from repro.core.typing_program import TypeRule, TypingProgram
from repro.graph.database import ObjectId


@dataclass(frozen=True)
class RoleDecomposition:
    """Result of the multiple-role pass.

    Attributes
    ----------
    program:
        The input program with covered complex types removed.
    assignment:
        Object -> set of home types.  Objects of removed types now have
        several homes (their roles); everyone else keeps a singleton.
    covers:
        For each removed type, the cover it was replaced by.
    weights:
        Home-count per surviving type.  An object with ``r`` roles
        contributes to all ``r`` types (the paper treats each role as a
        full-fledged membership).
    """

    program: TypingProgram
    assignment: Dict[ObjectId, FrozenSet[str]]
    covers: Dict[str, FrozenSet[str]]
    weights: Dict[str, int]

    @property
    def num_removed(self) -> int:
        """How many complex types were decomposed away."""
        return len(self.covers)


def find_cover(
    rule: TypeRule,
    candidates: Sequence[TypeRule],
    min_cover_size: int = 1,
) -> Optional[FrozenSet[str]]:
    """Find a set of strictly simpler candidate types covering ``rule``.

    A valid cover is a set of at least two candidates whose bodies are
    proper subsets of ``rule.body`` of size at least ``min_cover_size``
    and whose union equals ``rule.body``.  Selection is greedy
    set-cover by descending body size (deterministic: ties broken by
    name), returning ``None`` when no exact cover exists.
    """
    usable = [
        c
        for c in candidates
        if c.name != rule.name
        and len(c.body) >= min_cover_size
        and c.body < rule.body
    ]
    usable.sort(key=lambda c: (-len(c.body), c.name))
    missing: Set = set(rule.body)
    chosen: List[str] = []
    for candidate in usable:
        if missing & candidate.body:
            chosen.append(candidate.name)
            missing -= candidate.body
            if not missing:
                break
    if missing or len(chosen) < 2:
        return None
    return frozenset(chosen)


def decompose_roles(
    typing: PerfectTyping,
    min_cover_size: int = 1,
) -> RoleDecomposition:
    """Remove complex multi-role types from a Stage 1 result.

    Types are examined from largest body to smallest so that a type can
    be covered by types that themselves survive (a cover member is
    never a type that has already been removed).  Bodies that reference
    a removed type keep the reference only if the removed type is its
    own role target — to stay well-formed, references to removed types
    are rewritten to one of the cover members containing the typed
    link... which is ambiguous in general, so instead we *only remove
    types that are not referenced by any other rule's body*.  This is a
    conservative (and the common) case: multi-role conjunction types
    are leaves of the reference graph in practice, and it keeps the
    output program exactly equivalent on all other types.
    """
    program = typing.program
    rules = sorted(program.rules(), key=lambda r: (-len(r.body), r.name))

    referenced: Set[str] = set()
    for rule in program.rules():
        referenced.update(t for t in rule.targets() if t != rule.name)

    survivors: Dict[str, TypeRule] = {r.name: r for r in program.rules()}
    covers: Dict[str, FrozenSet[str]] = {}
    for rule in rules:
        if rule.name in referenced:
            continue
        candidates = [survivors[n] for n in survivors if n != rule.name]
        cover = find_cover(rule, candidates, min_cover_size=min_cover_size)
        if cover is not None:
            covers[rule.name] = cover
            del survivors[rule.name]
            referenced.update(cover)  # a cover's members must survive

    new_program = TypingProgram(survivors.values())
    assignment: Dict[ObjectId, FrozenSet[str]] = {}
    for obj, home in typing.home_type.items():
        if home in covers:
            assignment[obj] = covers[home]
        else:
            assignment[obj] = frozenset([home])

    weights: Dict[str, int] = {name: 0 for name in survivors}
    for homes in assignment.values():
        for home in homes:
            weights[home] += 1

    return RoleDecomposition(
        program=new_program,
        assignment=assignment,
        covers=covers,
        weights=weights,
    )
