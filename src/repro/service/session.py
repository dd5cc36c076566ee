"""A warm dataset session: the state the daemon keeps per database.

One :class:`DatasetSession` owns

* the live :class:`~repro.graph.database.Database`,
* an :class:`~repro.core.incremental.IncrementalTyper` holding the
  adopted extraction result,
* the warm read-path kernel — one
  :class:`~repro.core.linkspace.LinkSpace` plus the current program's
  rule bodies pre-encoded in it as bitmasks — so a lookup is a handful
  of ``body & ~local`` integer tests, and
* an **epoch counter** bumped on every adopted refresh, keying the
  cross-request :class:`~repro.service.cache.MaskCache`.

Consistency model: reads are served from an immutable snapshot
(``assignment``/``program``) adopted by the single writer, never from
typer internals mid-refresh.  Mutation batches are **atomic** — a
batch that fails mid-way is rolled back exactly (using the net
:class:`~repro.graph.database.ChangeLog` plus a pre-scan stash of
removed objects' kinds/values) and contributes nothing to the pending
delta.  Batches whose differential refresh failed accumulate in
``pending`` via :meth:`ChangeLog.absorb`; until a refresh lands the
session is **stale**: answers still describe the last-good typing and
say so explicitly.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.incremental import IncrementalTyper
from repro.core.linkspace import LinkSpace
from repro.core.pipeline import ExtractionResult, SchemaExtractor
from repro.core.recast import (
    _satisfied_for_mask,
    closest_by_mask,
    object_local_mask,
)
from repro.core.typing_program import ATOMIC, Direction
from repro.exceptions import ReproError
from repro.graph.database import ChangeLog, Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf
from repro.runtime.budget import Budget, DegradationReport
from repro.service.cache import MaskCache
from repro.service.errors import BadRequestError, NotFoundError

logger = logging.getLogger("repro.service")


class DatasetSession:
    """Warm per-dataset state behind the daemon (see module doc)."""

    def __init__(
        self,
        db: Database,
        k: Optional[int] = None,
        cache_entries: int = 4096,
        perf: Optional[PerfRecorder] = None,
        jobs: int = 1,
        **extractor_options: Any,
    ) -> None:
        self._db = db
        self._perf = _resolve_perf(perf)
        self._extractor_options = extractor_options
        self._jobs = max(1, int(jobs))
        if self._jobs > 1:
            # Only the initial extract runs on a worker pool (one per
            # call, closed before it returns); refreshes inject the
            # maintained Stage 1 and pin k, so they run in-process.
            from repro.parallel.extractor import ParallelExtractor

            result = ParallelExtractor(
                db, jobs=self._jobs, perf=perf, **extractor_options
            ).extract(k=k)
        else:
            result = SchemaExtractor(
                db, perf=perf, **extractor_options
            ).extract(k=k)
        self._typer = IncrementalTyper(db, result)
        self.cache = MaskCache(max_entries=cache_entries)
        self.epoch = 0
        self.pending: Optional[ChangeLog] = None
        self.last_failure: Optional[DegradationReport] = None
        self.refreshes = 0
        self.failed_refreshes = 0
        self._space = LinkSpace()
        self._adopt(result)

    # ------------------------------------------------------------------
    # Snapshot state (read path)
    # ------------------------------------------------------------------
    def _adopt(self, result: ExtractionResult) -> None:
        """Install ``result`` as the read snapshot and re-warm the kernel."""
        self._result = result
        self._assignment: Dict[ObjectId, FrozenSet[str]] = dict(
            result.assignment
        )
        self._program = result.program
        self._uses_sorts = any(
            link.sort is not None for link in result.program.typed_links()
        )
        self._rule_masks: List[Tuple[str, int]] = [
            (rule.name, self._space.encode(rule.body))
            for rule in result.program.rules()
        ]

    @property
    def db(self) -> Database:
        return self._db

    @property
    def result(self) -> ExtractionResult:
        """The adopted extraction result (the read snapshot)."""
        return self._result

    @property
    def typer(self) -> IncrementalTyper:
        return self._typer

    @property
    def stale(self) -> bool:
        """Whether answers lag the data (mutations not yet refreshed)."""
        return self.pending is not None and not self.pending.empty

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _classify_mask(
        self, mask: int, budget: Optional[Budget] = None
    ) -> Tuple[FrozenSet[str], bool]:
        """Types for a local body mask: satisfied set, else closest.

        Cached across requests on ``(epoch, mask)`` — see
        :class:`~repro.service.cache.MaskCache` for why that key can
        never serve a wrong answer.
        """
        cached = self.cache.get(self.epoch, mask)
        if cached is not None:
            return cached
        if budget is not None:
            budget.charge(max(1, len(self._rule_masks)))
        satisfied = _satisfied_for_mask(self._rule_masks, mask, self._perf)
        fallback = False
        if satisfied:
            types = satisfied
        elif self._rule_masks:
            chosen, _ = closest_by_mask(self._rule_masks, mask)
            types = frozenset([chosen])
            fallback = True
        else:
            types = frozenset()
        self.cache.put(self.epoch, mask, types, fallback)
        return types, fallback

    def lookup(
        self, obj: ObjectId, budget: Optional[Budget] = None
    ) -> Dict[str, Any]:
        """Types of ``obj`` under the adopted typing.

        Objects the snapshot already assigns are answered from it;
        objects added since (the new/unseen case) are recast on the fly
        through the warm mask kernel, exactly the paper's Section 6
        rule (every satisfied type, else the closest).
        """
        if obj not in self._db:
            raise NotFoundError(f"unknown object {obj!r}")
        if self._db.is_atomic(obj):
            return {
                "object": obj,
                "atomic": True,
                "types": [],
                "stale": self.stale,
                "epoch": self.epoch,
                "source": "atomic",
            }
        types = self._assignment.get(obj)
        source = "assignment"
        if types is None:
            mask = object_local_mask(
                self._db,
                obj,
                self._assignment,
                self._space,
                include_sorts=self._uses_sorts,
            )
            types, fell_back = self._classify_mask(mask, budget)
            source = "fallback" if fell_back else "recast"
        return {
            "object": obj,
            "atomic": False,
            "types": sorted(types),
            "stale": self.stale,
            "epoch": self.epoch,
            "source": source,
        }

    def classify(
        self, links: List[dict], budget: Optional[Budget] = None
    ) -> Dict[str, Any]:
        """Recast a *hypothetical* object described by its links.

        ``links`` is a list of ``{"direction": "out"|"in", "label": L,
        "target": <object id> | null}`` — ``null`` means an atomic
        target (only meaningful outgoing).  Targets are typed by the
        adopted snapshot; unknown targets contribute nothing, mirroring
        :func:`repro.core.recast.object_local_body`.
        """
        mask = 0
        bit = self._space.bit
        empty: FrozenSet[str] = frozenset()
        for index, link in enumerate(links):
            if not isinstance(link, dict):
                raise BadRequestError(f"links[{index}] must be an object")
            direction = link.get("direction", "out")
            label = link.get("label")
            if direction not in ("out", "in"):
                raise BadRequestError(
                    f"links[{index}].direction must be 'out' or 'in'"
                )
            if not isinstance(label, str) or not label:
                raise BadRequestError(
                    f"links[{index}].label must be a non-empty string"
                )
            target = link.get("target")
            if target is None:
                if direction != "out":
                    raise BadRequestError(
                        f"links[{index}]: atomic targets are only "
                        f"meaningful on outgoing links"
                    )
                mask |= bit(Direction.OUT, label, ATOMIC)
            else:
                way = Direction.OUT if direction == "out" else Direction.IN
                for type_name in self._assignment.get(target, empty):
                    mask |= bit(way, label, type_name)
        types, fell_back = self._classify_mask(mask, budget)
        return {
            "types": sorted(types),
            "fallback": fell_back,
            "stale": self.stale,
            "epoch": self.epoch,
        }

    def schema(self) -> Dict[str, Any]:
        """The adopted program, sizes and defect."""
        from repro.core.notation import format_program

        return {
            "k": self._result.chosen_k,
            "num_types": len(self._program),
            "num_perfect_types": self._result.num_perfect_types,
            "defect": self._result.defect.total,
            "program": format_program(self._program),
            "stale": self.stale,
            "epoch": self.epoch,
        }

    # ------------------------------------------------------------------
    # Write path (called only by the single writer)
    # ------------------------------------------------------------------
    def apply_batch(self, ops: List[tuple]) -> ChangeLog:
        """Apply a mutation batch atomically; returns its net log.

        Any failure mid-batch rolls the database back to the pre-batch
        state *exactly* (verified by the batch's own net log returning
        to empty) and re-raises — a poisoned batch contributes nothing
        to the data or to ``pending``.
        """
        # Stash the original form of every object the batch may remove,
        # so a rollback can re-register it (atomic values aren't in the
        # ChangeLog).
        stash: Dict[ObjectId, Tuple[str, Any]] = {}
        for op in ops:
            if op[0] == "remove-object" and op[1] in self._db:
                obj = op[1]
                if obj not in stash:
                    stash[obj] = (
                        ("atomic", self._db.value(obj))
                        if self._db.is_atomic(obj)
                        else ("complex", None)
                    )
        with self._db.track_changes() as log:
            try:
                for op in ops:
                    self._apply_op(op)
            except Exception as exc:
                self._rollback(log, stash)
                if not log.empty:  # pragma: no cover - defensive
                    logger.error(
                        "rollback left a residual delta (%s); the "
                        "database may be inconsistent", log.summary(),
                    )
                raise BadRequestError(
                    f"mutation batch failed and was rolled back: {exc}"
                ) from exc
        return log

    def _apply_op(self, op: tuple) -> None:
        """One parsed mutation (the CLI mutation-script op format)."""
        kind = op[0]
        if kind == "add-link":
            _, src, dst, label = op
            self._db.add_link(src, dst, label)
        elif kind == "remove-link":
            _, src, dst, label = op
            self._db.remove_link(src, dst, label)
        elif kind == "add-atomic":
            self._db.add_atomic(op[1], op[2])
        elif kind == "add-object":
            self._db.add_complex(op[1])
        elif kind == "remove-object":
            self._db.remove_object(op[1])
        else:
            raise BadRequestError(f"unknown mutation operation {kind!r}")

    def _rollback(
        self, log: ChangeLog, stash: Dict[ObjectId, Tuple[str, Any]]
    ) -> None:
        """Invert ``log`` inside the same tracking block.

        Replaying the inverse through the live log cancels every net
        entry, so a clean rollback ends with ``log.empty`` — a built-in
        integrity check on the inversion itself.
        """
        added_links = frozenset(log.added_links)
        removed_links = frozenset(log.removed_links)
        added_objects = frozenset(log.added_objects)
        removed_objects = frozenset(log.removed_objects)
        resurfaced = frozenset(log.resurfaced)

        # 1. Drop net-added links; net-new objects are then edge-free.
        for edge in added_links:
            self._db.remove_link(edge.src, edge.dst, edge.label)
        # 2. Resurfaced objects: their surviving incident edges are
        #    exactly the pre-batch ones that were re-added verbatim
        #    (edge cancellation hid them from the net sets) — capture
        #    them before removing the new incarnation.
        surviving: Set = set()
        for obj in resurfaced:
            if obj in self._db:
                surviving.update(self._db.out_edges(obj))
                surviving.update(self._db.in_edges(obj))
        for obj in resurfaced:
            self._db.remove_object(obj)
        for obj in added_objects:
            self._db.remove_object(obj)
        # 3. Re-register every removed original in its original form...
        for obj in removed_objects | resurfaced:
            kind, value = stash.get(obj, ("complex", None))
            if kind == "atomic":
                self._db.add_atomic(obj, value)
            else:
                self._db.add_complex(obj)
        # 4. ... then restore the edges (endpoints all exist again).
        for edge in removed_links | surviving:
            self._db.add_link(edge.src, edge.dst, edge.label)

    def note_changes(self, log: ChangeLog) -> None:
        """Fold a successfully applied batch into the pending delta."""
        if log.empty:
            return
        if self.pending is None:
            self.pending = log
        else:
            self.pending.absorb(log)

    def refresh(self, budget: Optional[Budget] = None) -> bool:
        """Fold ``pending`` into the typing; adopt and bump the epoch.

        Runs the exact differential tier
        (:meth:`IncrementalTyper.refresh`).  Returns ``False`` when
        there was nothing pending.  On failure the typer's maintainer
        is reset (its index may be mid-update) and the exception
        propagates — the caller owns breaker/degradation bookkeeping;
        ``pending`` is kept so a later retry folds one combined log.
        """
        if self.pending is None or self.pending.empty:
            return False
        pending = self.pending
        try:
            result = self._typer.refresh(
                pending,
                budget=budget,
                perf=self._perf if self._perf.enabled else None,
                **self._extractor_options,
            )
        except Exception:
            self._typer.reset_maintainer()
            raise
        self.pending = None
        if result is not None:
            self._adopt(result)
        self.epoch += 1
        self.cache.drop_before(self.epoch)
        self.last_failure = None
        self.refreshes += 1
        return True

    def record_refresh_failure(self, exc: BaseException) -> None:
        """Book-keep a failed refresh as an explicit degradation."""
        self.failed_refreshes += 1
        reason = "fault"
        if isinstance(exc, ReproError):
            reason = getattr(exc, "reason", None) or "fault"
        self.last_failure = DegradationReport(
            stage="refresh",
            reason=reason,
            detail=str(exc),
            elapsed=0.0,
            iterations=0,
            achieved_k=len(self._program),
        )

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """DegradationReport-style operational snapshot."""
        failure = None
        if self.last_failure is not None:
            failure = {
                "stage": self.last_failure.stage,
                "reason": self.last_failure.reason,
                "detail": self.last_failure.detail,
            }
        return {
            "epoch": self.epoch,
            "stale": self.stale,
            "pending": 0 if self.pending is None else len(self.pending),
            "jobs": self._jobs,
            "objects": self._db.num_complex,
            "k": self._result.chosen_k,
            "defect": self._result.defect.total,
            "refreshes": self.refreshes,
            "failed_refreshes": self.failed_refreshes,
            "degradation": failure,
            "cache": self.cache.snapshot(),
        }
