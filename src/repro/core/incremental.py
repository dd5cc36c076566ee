"""Maintaining a typing as the database evolves (Section 6).

The paper types new objects against the existing program ("assign the
new objects to all types that it satisfies completely ... otherwise the
closest type") and leaves the policy question open: "if we have many
new objects we may wish to reconsider the current typing program.
Deciding how many new objects is too many and recomputing efficiently
the typing program are open problems."

:class:`IncrementalTyper` is a practical answer, with three tiers of
increasing cost and fidelity:

* **one-step notes** — ``note_new_object`` / ``note_new_link`` /
  ``note_removed_link`` / ``note_removed_object`` retype exactly the
  touched objects against the current program (their neighbours'
  assignments are the reference);
* **``refresh(changes)``** — exact Stage 1 maintenance: folds a
  recorded :class:`~repro.graph.database.ChangeLog` into the perfect
  typing through the differential GFP engine
  (:class:`repro.core.delta.Stage1Maintainer`), then re-runs Stages
  2–3 on the maintained Stage 1.  Extent-identical to a from-scratch
  rebuild, priced proportional to the edit's ripple;
* **``rebuild()``** — re-run the full pipeline from scratch.

Every one-step retyping that needed the *closest-type fallback* (it
satisfied nothing exactly) counts as **drift** — the signal that the
program no longer describes the data; ``stale()`` trips once the drift
fraction among incremental updates exceeds a threshold (never before
``min_updates`` updates).  ``refresh`` and ``rebuild`` reset the
counters when (and only when) they adopt a new result.

The class never mutates the database — callers mutate it and notify
(or record mutations with ``db.track_changes()`` and hand the log to
``refresh``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.core.delta import Stage1Maintainer
from repro.core.pipeline import ExtractionResult, SchemaExtractor
from repro.core.recast import satisfied_types, closest_type
from repro.core.typing_program import TypingProgram
from repro.exceptions import RecastError
from repro.graph.database import ChangeLog, Database, ObjectId


@dataclass(frozen=True)
class DriftStats:
    """How far the data has drifted from the program."""

    updates: int  #: incremental retypings performed.
    fallbacks: int  #: of those, how many needed the closest-type rule.

    @property
    def fraction(self) -> float:
        """Fallback fraction among updates (0 when no updates)."""
        return self.fallbacks / self.updates if self.updates else 0.0


class IncrementalTyper:
    """Keep an extraction result in sync with a mutating database.

    Parameters
    ----------
    db:
        The live database (mutated by the caller).
    result:
        A pipeline result for the database's initial state.
    drift_threshold:
        ``stale()`` trips when the fallback fraction among incremental
        updates exceeds this (default 0.25 — a quarter of arriving
        objects no longer fit any type exactly).
    min_updates:
        Don't declare staleness before at least this many updates.
    """

    def __init__(
        self,
        db: Database,
        result: ExtractionResult,
        drift_threshold: float = 0.25,
        min_updates: int = 10,
    ) -> None:
        if not 0.0 < drift_threshold <= 1.0:
            raise RecastError("drift_threshold must be in (0, 1]")
        self._db = db
        self._program: TypingProgram = result.program
        self._assignment: Dict[ObjectId, FrozenSet[str]] = dict(
            result.assignment
        )
        self._k = result.chosen_k
        self._stage1 = result.stage1
        self._maintainer: Optional[Stage1Maintainer] = None
        self._threshold = drift_threshold
        self._min_updates = min_updates
        self._updates = 0
        self._fallbacks = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def program(self) -> TypingProgram:
        """The current typing program."""
        return self._program

    def types_of(self, obj: ObjectId) -> FrozenSet[str]:
        """Current types of ``obj`` (empty if unknown/untyped)."""
        return self._assignment.get(obj, frozenset())

    def assignment(self) -> Dict[ObjectId, FrozenSet[str]]:
        """A copy of the full current assignment."""
        return dict(self._assignment)

    def drift(self) -> DriftStats:
        """Drift counters since the last (re)build."""
        return DriftStats(updates=self._updates, fallbacks=self._fallbacks)

    def stale(self) -> bool:
        """Whether the program should be recomputed (see class doc)."""
        stats = self.drift()
        return (
            stats.updates >= self._min_updates
            and stats.fraction > self._threshold
        )

    # ------------------------------------------------------------------
    # Update notifications
    # ------------------------------------------------------------------
    def _retype(self, obj: ObjectId) -> FrozenSet[str]:
        """One-step retyping of ``obj`` against the current program."""
        satisfied = satisfied_types(
            self._program, self._db, obj, self._assignment
        )
        self._updates += 1
        if satisfied:
            types = satisfied
        else:
            self._fallbacks += 1
            if len(self._program) == 0:
                types = frozenset()
            else:
                chosen, _ = closest_type(
                    self._program, self._db, obj, self._assignment
                )
                types = frozenset([chosen])
        self._assignment[obj] = types
        return types

    def note_new_object(self, obj: ObjectId) -> FrozenSet[str]:
        """Type a newly added complex object (Section 6's rule)."""
        if not self._db.is_complex(obj):
            raise RecastError(f"{obj!r} is not a complex object of the database")
        return self._retype(obj)

    def note_new_link(self, src: ObjectId, dst: ObjectId) -> None:
        """Retype both endpoints after an edge *insertion*.

        Only the endpoints can change one-step satisfaction; deeper
        ripples are deliberately deferred to :meth:`refresh` /
        :meth:`rebuild` (the whole point of approximate typing is
        tolerance to small drift).
        """
        for obj in (src, dst):
            if self._db.is_complex(obj):
                self._retype(obj)

    def note_removed_link(self, src: ObjectId, dst: ObjectId) -> None:
        """Retype the surviving endpoints after an edge *removal*.

        The mirror of :meth:`note_new_link`: losing a typed link can
        break exact satisfaction just as gaining one can.  Endpoints
        that no longer exist (the removal came from
        :meth:`~repro.graph.database.Database.remove_object`) are
        skipped — :meth:`note_removed_object` handles those.
        """
        for obj in (src, dst):
            if self._db.is_complex(obj):
                self._retype(obj)

    def note_removed_object(
        self, obj: ObjectId, neighbours: Iterable[ObjectId] = ()
    ) -> None:
        """Forget a removed object and retype its former neighbours.

        ``neighbours`` are the objects that were linked to ``obj``
        before the removal (capture them *before* calling
        ``db.remove_object``); each surviving complex one is retyped,
        since it just lost an incident link.
        """
        self._assignment.pop(obj, None)
        for other in neighbours:
            if other != obj and self._db.is_complex(other):
                self._retype(other)

    # ------------------------------------------------------------------
    # Refresh / rebuild
    # ------------------------------------------------------------------
    def reset_maintainer(self) -> None:
        """Drop the cached :class:`Stage1Maintainer` (and its index).

        A :meth:`refresh` that raises midway (budget exhaustion, a
        fault injected by the chaos harness, a crashed worker) may
        leave the maintainer's signature index partially updated.  The
        schema service calls this before retrying so the next refresh
        rebuilds the index from the live database instead of trusting
        possibly-corrupt incremental state.  The adopted typing is
        untouched — only derived acceleration state is discarded.
        """
        self._maintainer = None

    def refresh(
        self,
        changes: ChangeLog,
        budget=None,
        perf=None,
        **extractor_options,
    ) -> Optional[ExtractionResult]:
        """Fold a recorded mutation batch in exactly; adopt the result.

        The middle tier: Stage 1 is *maintained* differentially
        (:class:`repro.core.delta.Stage1Maintainer` — extent-identical
        to a from-scratch Stage 1, priced proportional to the edit's
        ripple), then Stages 2–3 re-run on the maintained typing.
        Drift counters reset because a new result is adopted.

        ``budget`` (a :class:`~repro.runtime.budget.Budget`) bounds the
        whole refresh — the differential Stage 1 *and* the Stage 2–3
        re-run; the service uses this to wire per-request deadlines
        through the write path.  Exhaustion during the differential
        Stage 1 raises and adopts nothing — the typer still serves the
        previous result (call :meth:`reset_maintainer` before
        retrying).  Exhaustion later degrades like the pipeline: the
        adopted result carries a
        :class:`~repro.runtime.budget.DegradationReport`.

        Returns ``None`` — and resets nothing — when ``changes`` is
        empty.  The maintainer (and its signature index) is kept
        across calls, so repeated batches amortise the index build.

        The Stage 2–3 re-run is sequential: with the maintained Stage 1
        injected and ``k`` pinned there is no pooled phase left to run.
        """
        if changes.empty:
            return None
        if self._maintainer is None:
            self._maintainer = Stage1Maintainer(self._db, self._stage1)
        new_stage1 = self._maintainer.apply(changes, budget=budget, perf=perf)
        result = SchemaExtractor(
            self._db, stage1=new_stage1, perf=perf, **extractor_options
        ).extract(k=self._k, budget=budget)
        self._program = result.program
        self._assignment = dict(result.assignment)
        self._k = result.chosen_k
        self._stage1 = new_stage1
        self._updates = 0
        self._fallbacks = 0
        return result

    def rebuild(
        self,
        k: Optional[int] = None,
        perf=None,
        **extractor_options,
    ) -> ExtractionResult:
        """Re-run the full pipeline and adopt its result.

        ``k`` defaults to the previous ``k`` (clamped by the pipeline if
        the perfect typing shrank below it); extra keyword arguments are
        forwarded to :class:`~repro.core.pipeline.SchemaExtractor`.
        """
        result = SchemaExtractor(
            self._db, perf=perf, **extractor_options
        ).extract(k=self._k if k is None else k)
        self._program = result.program
        self._assignment = dict(result.assignment)
        self._k = result.chosen_k
        self._stage1 = result.stage1
        self._maintainer = None
        self._updates = 0
        self._fallbacks = 0
        return result
