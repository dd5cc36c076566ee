"""The end-to-end schema extractor (Section 3, "Method Summary").

:class:`SchemaExtractor` glues the three stages together:

1. **Stage 1** — minimal perfect typing (one home type per object),
   optionally followed by the multiple-role decomposition;
2. **Stage 2** — greedy clustering down to ``k`` types (``k`` can be
   chosen automatically from the sensitivity sweep's knee);
3. **Stage 3** — recasting all objects into the final types;

and finally measures the defect of the result.  Stage 1 and the sweep
are the two steps a subclass may override:
:class:`~repro.parallel.extractor.ParallelExtractor` runs both on a
worker pool and inherits everything else.  This is the public entry
point used by the examples, the CLI and the benchmark harnesses:

>>> from repro import SchemaExtractor
>>> from repro.graph import DatabaseBuilder
>>> b = DatabaseBuilder()
>>> for i in range(4):
...     _ = b.attr(f"p{i}", "name", f"name{i}")
>>> result = SchemaExtractor(b.build()).extract(k=1)
>>> result.num_types
1
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from repro.core.clustering import GreedyMerger, MergePolicy, Stage2Result
from repro.core.defect import DefectReport, compute_defect
from repro.core.distance import WeightedDistance, named_distances
from repro.core.linkspace import LinkSpace
from repro.core.notation import format_program
from repro.core.perfect import PerfectTyping, minimal_perfect_typing
from repro.core.prior import PriorKnowledge, combine_with_stage1
from repro.core.recast import LocalIndex, RecastMode, RecastResult, recast
from repro.core.roles import RoleDecomposition, decompose_roles
from repro.core.sensitivity import SensitivityResult, sensitivity_sweep
from repro.core.typing_program import TypingProgram
from repro.exceptions import (
    ClusteringError,
    ExecutionInterruptedError,
    ReproError,
)
from repro.graph.database import Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf
from repro.runtime.budget import Budget, DegradationReport
from repro.runtime.checkpoint import (
    Checkpoint,
    checkpoint_merger,
    load_checkpoint,
    restore_merger,
    save_checkpoint,
)

logger = logging.getLogger("repro.core.pipeline")


@dataclass(frozen=True)
class ExtractionResult:
    """Everything the pipeline produced.

    Attributes
    ----------
    program:
        The final approximate typing program.
    assignment:
        Final object -> set-of-types map (Stage 3 output).
    defect:
        Defect report of the final assignment against the program.
    stage1:
        The minimal perfect typing (kept for inspection; its size is
        the "Perfect Types" column of Table 1).
    roles:
        The role decomposition, when it was requested.
    stage2:
        Merge trace and merge map.
    recast_result:
        Stage 3 details (fallback / untyped objects).
    sensitivity:
        The sweep, when ``k`` was chosen automatically.
    chosen_k:
        The ``k`` that was actually used.
    degradation:
        ``None`` for a complete run; a
        :class:`~repro.runtime.budget.DegradationReport` when a budget
        or cancellation stopped the pipeline early and the result is
        the best answer found so far (see
        :meth:`SchemaExtractor.extract`).
    """

    program: TypingProgram
    assignment: Dict[ObjectId, FrozenSet[str]]
    defect: DefectReport
    stage1: PerfectTyping
    roles: Optional[RoleDecomposition]
    stage2: Stage2Result
    recast_result: RecastResult
    sensitivity: Optional[SensitivityResult]
    chosen_k: int
    degradation: Optional[DegradationReport] = None

    @property
    def is_partial(self) -> bool:
        """Whether the pipeline degraded instead of running to the end."""
        return self.degradation is not None

    @property
    def num_types(self) -> int:
        """Number of types in the final program."""
        return len(self.program)

    @property
    def num_perfect_types(self) -> int:
        """Number of types in the Stage 1 minimal perfect typing."""
        return self.stage1.num_types

    def describe(self) -> str:
        """Multi-line report: sizes, defect and the program itself."""
        lines = [
            f"perfect types: {self.num_perfect_types}",
            f"optimal types: {self.num_types}",
            self.defect.summary(),
        ]
        if self.degradation is not None:
            lines.append(f"partial result: {self.degradation.summary()}")
        lines.extend(["", format_program(self.program)])
        return "\n".join(lines)


class SchemaExtractor:
    """Configurable three-stage schema extraction pipeline.

    Parameters
    ----------
    db:
        The semistructured database to type.
    distance:
        Stage 2 weighted distance — a callable ``(w1, w2, d) -> cost``
        or one of the names ``"delta_1"`` .. ``"delta_5"`` (resolved
        with the Stage 1 hypercube dimension where needed).  Default:
        ``"delta_2"``, the paper's weighted Manhattan distance.
    policy:
        Stage 2 merge policy.
    use_roles:
        Run the Section 4.2 multiple-role decomposition between stages
        1 and 2.
    allow_empty_type:
        Allow Stage 2 to move outlier types to the empty type.
    empty_weight:
        Weight parameter of the empty type (see :class:`GreedyMerger`).
    recast_mode, fallback:
        Stage 3 knobs (see :func:`repro.core.recast.recast`).
    prior:
        A-priori typing knowledge (Section 2 extension): known type
        definitions survive clustering intact and absorb discovered
        structure — see :mod:`repro.core.prior`.
    local_rule_fn:
        Override for Stage 1's local-picture builder; pass
        :func:`repro.core.sorts.sorted_local_rule` for the Remark 2.1
        multiple-atomic-sorts refinement.
    stage1:
        A precomputed Stage 1 result to reuse instead of computing one
        (the incremental refresh injects its maintained Stage 1 here).
    recast_memo:
        Accepted and ignored.  The cross-sample recast memo it used to
        switch was deleted: on int masks a memo probe costs more than
        the subset test it saves.
    use_bitset:
        Run Stage 2, Stage 3 and the defect on the link-space bitset
        kernel (:mod:`repro.core.linkspace`; default on).  ``False`` selects
        the frozenset oracle path (CLI ``--no-bitset``); results are
        identical either way.
    use_matrix:
        Accepted and ignored.  The numpy matrix kernel it used to
        select was deleted: on the benchmark workloads the per-pair
        bitset path is at least as fast, with identical results.
    perf:
        Optional :class:`repro.perf.PerfRecorder` threaded through all
        three stages (GFP engine, merger, sweep) plus the pipeline-level
        spans ``pipeline.stage1`` / ``pipeline.sweep`` /
        ``pipeline.stage2`` / ``pipeline.stage3``.  Defaults to the
        shared no-op recorder, which keeps the hot paths free of
        bookkeeping.
    """

    def __init__(
        self,
        db: Database,
        distance: Union[str, WeightedDistance] = "delta_2",
        policy: MergePolicy = MergePolicy.ABSORB,
        use_roles: bool = False,
        allow_empty_type: bool = False,
        empty_weight: Optional[float] = None,
        recast_mode: RecastMode = RecastMode.HOME_GUIDED,
        fallback: str = "closest",
        prior: Optional[PriorKnowledge] = None,
        local_rule_fn=None,
        stage1: Optional[PerfectTyping] = None,
        recast_memo: bool = True,
        use_bitset: bool = True,
        use_matrix: bool = True,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self._db = db
        self._perf = _resolve_perf(perf)
        self._distance_spec = distance
        self._policy = policy
        self._use_roles = use_roles
        self._allow_empty = allow_empty_type
        self._empty_weight = empty_weight
        self._recast_mode = recast_mode
        self._fallback = fallback
        self._prior = prior
        self._local_rule_fn = local_rule_fn
        self._use_bitset = use_bitset
        self._stage1: Optional[PerfectTyping] = stage1

    # ------------------------------------------------------------------
    def stage1(self) -> PerfectTyping:
        """Stage 1 result (cached across calls)."""
        return self._stage1_step(None)

    def _stage1_step(self, budget: Optional[Budget]) -> PerfectTyping:
        """The Stage 1 step, cached across calls.

        Stage 1 is the pipeline's unbudgeted minimum, so ``budget`` is
        unused here; it is passed for an override that can cancel.
        """
        if self._stage1 is None:
            with self._perf.span("pipeline.stage1"):
                self._stage1 = minimal_perfect_typing(
                    self._db,
                    local_rule_fn=self._local_rule_fn,
                    perf=self._perf,
                )
        return self._stage1

    def _resolve_distance(self, stage1: PerfectTyping) -> WeightedDistance:
        if callable(self._distance_spec):
            return self._distance_spec
        dimensions = len(stage1.program.typed_links())
        table = named_distances(dimensions)
        try:
            return table[self._distance_spec]
        except KeyError:
            raise ClusteringError(
                f"unknown distance {self._distance_spec!r}; "
                f"expected one of {sorted(table)}"
            ) from None

    def _starting_point(self, stage1: PerfectTyping):
        """Stage 2 inputs: (program, assignment, weights, frozen, roles).

        Applies the role decomposition and the a-priori knowledge (in
        that order) on top of the Stage 1 result.
        """
        roles: Optional[RoleDecomposition] = None
        if self._use_roles:
            roles = decompose_roles(stage1)
            program = roles.program
            assignment: Mapping[ObjectId, FrozenSet[str]] = roles.assignment
            weights: Mapping[str, float] = {
                n: float(w) for n, w in roles.weights.items()
            }
        else:
            program = stage1.program
            assignment = stage1.assignment()
            weights = {n: float(w) for n, w in stage1.weights.items()}
        frozen: FrozenSet[str] = frozenset()
        if self._prior is not None:
            combined = combine_with_stage1(
                stage1,
                self._prior,
                base_assignment=assignment,
                base_weights=weights,
            )
            program = combined.program
            assignment = combined.assignment
            weights = combined.weights
            frozen = combined.frozen
        return program, assignment, weights, frozen, roles

    # ------------------------------------------------------------------
    def sweep(
        self,
        min_k: int = 1,
        step: int = 1,
        budget: Optional[Budget] = None,
    ) -> SensitivityResult:
        """Run the Figure 6 sensitivity sweep with this pipeline's knobs."""
        if budget is not None:
            budget.start()
        return self._sweep_step(min_k, step, budget)

    def _sweep_step(
        self, min_k: int, step: int, budget: Optional[Budget]
    ) -> SensitivityResult:
        """The sweep step: Stages 2 and 3 at every sampled ``k``, from
        the same starting point and with the same knobs as ``extract``."""
        stage1 = self._stage1_step(budget)
        program, assignment, weights, frozen, _ = self._starting_point(stage1)
        return sensitivity_sweep(
            self._db,
            stage1=_override_program(stage1, program),
            assignment=assignment,
            weights=weights,
            distance=self._resolve_distance(stage1),
            policy=self._policy,
            allow_empty_type=self._allow_empty,
            empty_weight=self._empty_weight,
            mode=self._recast_mode,
            fallback=self._fallback,
            min_k=min_k,
            step=step,
            frozen=frozen,
            budget=budget,
            perf=self._perf,
            use_bitset=self._use_bitset,
        )

    def extract(
        self,
        k: Optional[int] = None,
        sweep_step: int = 1,
        budget: Optional[Budget] = None,
        checkpoint_path: Optional[str] = None,
        resume_from: Optional[Union[str, Checkpoint]] = None,
        checkpoint_every: int = 1,
    ) -> ExtractionResult:
        """Run the full pipeline.

        ``k=None`` chooses the number of types automatically: the knee
        of the defect curve from the sensitivity sweep (Section 7.2's
        recommendation of exploring the sliding scale rather than
        fixing ``k`` blindly).

        Parameters
        ----------
        k, sweep_step:
            Target type count / sweep sampling as before.
        budget:
            Optional :class:`~repro.runtime.budget.Budget`.  Stage 1 is
            the mandatory minimum and always runs to completion (its
            wall-clock time still counts against the deadline); from
            then on the sweep and Stage 2 charge the budget per merge
            and per sample.  When a limit trips, ``extract`` **does not
            raise**: it returns the best partial
            :class:`ExtractionResult` built so far, with
            ``result.degradation`` describing the stage reached, the
            budget consumed and the best-so-far defect.
        checkpoint_path:
            When set, the Stage 2 merge trace is checkpointed to this
            path (every ``checkpoint_every`` merges, and once more when
            the run stops), so a killed or budget-exhausted extraction
            can resume.
        resume_from:
            A checkpoint path or :class:`~repro.runtime.checkpoint.Checkpoint`
            produced by an earlier run over the *same* database and
            configuration; Stage 2 resumes from its last completed
            merge instead of restarting.  ``k`` defaults to the
            checkpoint's recorded target.
        checkpoint_every:
            Write cadence for ``checkpoint_path`` (default: after every
            merge).
        """
        if checkpoint_every < 1:
            raise ReproError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if budget is not None:
            budget.start()
        stage1 = self._stage1_step(budget)
        start_program, assignment, weights, frozen, roles = (
            self._starting_point(stage1)
        )
        distance = self._resolve_distance(stage1)
        logger.info(
            "stage1: %d perfect type(s) over %d object(s)",
            len(start_program), self._db.num_complex,
        )

        merger: Optional[GreedyMerger] = None
        resumed: Optional[Checkpoint] = None
        if resume_from is not None:
            resumed = (
                load_checkpoint(resume_from)
                if isinstance(resume_from, str)
                else resume_from
            )
            merger = restore_merger(
                resumed,
                distance=distance,
                perf=self._perf,
                use_bitset=self._use_bitset,
            )
            if merger.initial_program != start_program:
                raise ReproError(
                    "checkpoint does not match this database/configuration: "
                    "its starting program differs from the Stage 1 result"
                )
            if k is None:
                k = resumed.k_target
            logger.info(
                "stage2: resumed %d completed merge(s) from checkpoint",
                len(merger.records),
            )

        # Stage 1 is the mandatory minimum: if the deadline has already
        # passed, degrade to the perfect typing rather than raising.
        failure = _budget_failure(budget)
        if failure is not None:
            logger.warning("budget exhausted after stage1: %s", failure)
            return self._degraded_result(
                stage="stage1",
                failure=failure,
                stage1=stage1,
                roles=roles,
                sensitivity=None,
                merger=merger,
                start_program=start_program,
                weights=weights,
                assignment=assignment,
                target_k=k,
                checkpoint_path=checkpoint_path,
            )

        sensitivity: Optional[SensitivityResult] = None
        degraded_stage: Optional[str] = None
        if k is None:
            try:
                with self._perf.span("pipeline.sweep"):
                    sensitivity = self._sweep_step(1, sweep_step, budget)
            except ExecutionInterruptedError as exc:
                # Not even one point sampled: degrade to the perfect
                # typing, like the post-stage1 case above.
                logger.warning("budget exhausted during sweep: %s", exc)
                return self._degraded_result(
                    stage="sweep",
                    failure=exc,
                    stage1=stage1,
                    roles=roles,
                    sensitivity=None,
                    merger=merger,
                    start_program=start_program,
                    weights=weights,
                    assignment=assignment,
                    target_k=None,
                    checkpoint_path=checkpoint_path,
                )
            k = sensitivity.knee()
            if sensitivity.exhausted:
                degraded_stage = "sweep"
            logger.info("sweep: chose k=%d", k)

        if k > len(start_program):
            k = len(start_program)
        if k < len(frozen):
            raise ClusteringError(
                f"k = {k} is below the number of frozen prior types "
                f"({len(frozen)})"
            )

        if merger is None:
            merger = GreedyMerger(
                start_program,
                weights,
                distance=distance,
                policy=self._policy,
                allow_empty_type=self._allow_empty,
                empty_weight=self._empty_weight,
                frozen=frozen,
                perf=self._perf,
                use_bitset=self._use_bitset,
            )
        writer = self._checkpoint_writer(checkpoint_path, k, checkpoint_every)
        try:
            with self._perf.span("pipeline.stage2"):
                if sensitivity is not None and resumed is None:
                    # The sweep walked this merge sequence already:
                    # replay its first n - k merges down to the knee.
                    merger.replay(
                        sensitivity.trace[: merger.num_types - k],
                        budget=budget,
                        on_step=writer,
                    )
                    stage2 = merger.result()
                else:
                    stage2 = merger.run_to(k, budget=budget, on_step=writer)
        except ExecutionInterruptedError as exc:
            logger.warning("budget exhausted during stage2: %s", exc)
            if checkpoint_path is not None:
                self._write_checkpoint(merger, k, checkpoint_path)
            return self._degraded_result(
                stage=degraded_stage or "stage2",
                failure=exc,
                stage1=stage1,
                roles=roles,
                sensitivity=sensitivity,
                merger=merger,
                start_program=start_program,
                weights=weights,
                assignment=assignment,
                target_k=k,
                checkpoint_path=checkpoint_path,
            )
        if checkpoint_path is not None:
            self._write_checkpoint(merger, k, checkpoint_path)

        with self._perf.span("pipeline.stage3"):
            recast_result, defect = self._stage3(stage1, stage2, assignment)
        degradation: Optional[DegradationReport] = None
        if degraded_stage is not None:
            # The sweep was cut short; Stage 2 still reached the best
            # knee found so far, so the result is usable but partial.
            failure = _budget_failure(budget)
            degradation = DegradationReport(
                stage=degraded_stage,
                reason=failure.reason if failure is not None else "timeout",
                detail=(
                    str(failure)
                    if failure is not None
                    else "sensitivity sweep was truncated by the budget"
                ),
                elapsed=budget.elapsed() if budget is not None else 0.0,
                iterations=budget.iterations if budget is not None else 0,
                target_k=k,
                achieved_k=len(stage2.program),
                best_defect=defect.total,
                checkpoint_path=checkpoint_path,
            )
        logger.info(
            "stage3: recast %d object(s) into %d type(s), defect %d",
            len(recast_result.assignment), len(stage2.program), defect.total,
        )
        return ExtractionResult(
            program=stage2.program,
            assignment=recast_result.assignment,
            defect=defect,
            stage1=stage1,
            roles=roles,
            stage2=stage2,
            recast_result=recast_result,
            sensitivity=sensitivity,
            chosen_k=k,
            degradation=degradation,
        )

    def _stage3(
        self,
        stage1: PerfectTyping,
        stage2: Stage2Result,
        assignment: Mapping[ObjectId, FrozenSet[str]],
    ) -> Tuple[RecastResult, DefectReport]:
        """Stage 3 from the starting ``assignment``, and its defect.

        On the bitset path ``recast`` and ``compute_defect`` share one
        :class:`~repro.core.recast.LocalIndex`, so the database is read
        once.  It is read over Stage 1's classes when the start is
        class-constant (:meth:`PerfectTyping.classes_for`), and the
        homes are pushed through the merge map once per class.
        """
        program, db = stage2.program, self._db
        index: Optional[LocalIndex] = None
        if self._use_bitset:
            space = LinkSpace()
            for rule in program.rules():
                space.encode(rule.body)
            index = LocalIndex(
                db, space, classes=stage1.classes_for(assignment)
            )
            assignment = {
                obj: assignment[obj]
                for obj in index.objects if obj in assignment
            }
        recast_result = recast(
            program,
            db,
            home=stage2.map_assignment(assignment),
            mode=self._recast_mode,
            fallback=self._fallback,
            perf=self._perf,
            use_bitset=self._use_bitset,
            index=index,
        )
        defect = compute_defect(
            program, db, recast_result.assignment,
            use_bitset=self._use_bitset, index=index,
        )
        return recast_result, defect

    # ------------------------------------------------------------------
    # Degradation & checkpoint plumbing
    # ------------------------------------------------------------------
    def _checkpoint_writer(
        self,
        checkpoint_path: Optional[str],
        k_target: Optional[int],
        every: int,
    ):
        """The Stage 2 ``on_step`` hook (``None`` when not checkpointing)."""
        if checkpoint_path is None:
            return None
        counter = {"merges": 0}

        def writer(merger: GreedyMerger) -> None:
            counter["merges"] += 1
            if counter["merges"] % every == 0:
                self._write_checkpoint(merger, k_target, checkpoint_path)

        return writer

    def _write_checkpoint(
        self,
        merger: GreedyMerger,
        k_target: Optional[int],
        checkpoint_path: str,
    ) -> None:
        distance_name = (
            self._distance_spec
            if isinstance(self._distance_spec, str)
            else None
        )
        save_checkpoint(
            checkpoint_merger(merger, k_target=k_target, distance=distance_name),
            checkpoint_path,
        )

    def _degraded_result(
        self,
        stage: str,
        failure: ExecutionInterruptedError,
        stage1: PerfectTyping,
        roles: Optional[RoleDecomposition],
        sensitivity: Optional[SensitivityResult],
        merger: Optional[GreedyMerger],
        start_program: TypingProgram,
        weights: Mapping[str, float],
        assignment: Mapping[ObjectId, FrozenSet[str]],
        target_k: Optional[int],
        checkpoint_path: Optional[str],
    ) -> ExtractionResult:
        """Build the best-so-far :class:`ExtractionResult` after a trip.

        With a merger, its current (possibly mid-merge-sequence) state
        is the partial Stage 2; without one, the starting program (the
        perfect typing, possibly role-decomposed / prior-combined) is
        returned unmerged.
        """
        if merger is not None:
            stage2 = merger.result()
        else:
            stage2 = Stage2Result(
                program=start_program,
                merge_map={name: name for name in start_program.type_names()},
                weights={n: float(weights.get(n, 0.0))
                         for n in start_program.type_names()},
                records=(),
                total_cost=0.0,
            )
        recast_result, defect = self._stage3(stage1, stage2, assignment)
        degradation = DegradationReport(
            stage=stage,
            reason=failure.reason,
            detail=str(failure),
            elapsed=failure.elapsed,
            iterations=failure.iterations,
            target_k=target_k,
            achieved_k=len(stage2.program),
            best_defect=defect.total,
            checkpoint_path=checkpoint_path,
        )
        return ExtractionResult(
            program=stage2.program,
            assignment=recast_result.assignment,
            defect=defect,
            stage1=stage1,
            roles=roles,
            stage2=stage2,
            recast_result=recast_result,
            sensitivity=sensitivity,
            chosen_k=len(stage2.program),
            degradation=degradation,
        )

    def extract_within_defect(
        self,
        max_defect: int,
        sweep_step: int = 1,
        budget: Optional[Budget] = None,
    ) -> ExtractionResult:
        """The paper's *dual* problem (Section 1): minimise the size of
        the typing subject to a defect threshold.

        Runs the sensitivity sweep and picks the **smallest** sampled
        ``k`` whose measured defect is at most ``max_defect``, then
        extracts at that ``k``.  The defect curve is not perfectly
        monotone (merges interact), so "smallest k under the threshold"
        is taken literally over the sampled points.

        Raises :class:`ClusteringError` when even the perfect typing
        exceeds the threshold (impossible for a non-negative threshold,
        since the perfect typing has defect 0 — but a ``max_defect``
        below 0 is rejected explicitly).
        """
        if max_defect < 0:
            raise ClusteringError("max_defect must be non-negative")
        sweep = self.sweep(step=sweep_step, budget=budget)
        eligible = [p.k for p in sweep.points if p.defect <= max_defect]
        if not eligible:
            raise ClusteringError(
                f"no sampled k meets defect <= {max_defect}; smallest "
                f"observed defect is {min(p.defect for p in sweep.points)}"
            )
        return self.extract(k=min(eligible), budget=budget)


def _budget_failure(
    budget: Optional[Budget],
) -> Optional[ExecutionInterruptedError]:
    """The exception :meth:`Budget.check` would raise right now, if any.

    Budget limits are sticky (the iteration counter never decreases and
    the deadline is absolute), so this recovers the reason for an
    exhaustion that was swallowed by a best-so-far code path.
    """
    if budget is None:
        return None
    try:
        budget.check()
    except ExecutionInterruptedError as exc:
        return exc
    return None


def _override_program(stage1: PerfectTyping, program: TypingProgram) -> PerfectTyping:
    """A stage-1 result with its program swapped (for the roles variant)."""
    if program is stage1.program:
        return stage1
    return replace(
        stage1,
        program=program,
        weights={name: stage1.weights.get(name, 0) for name in program.type_names()},
    )
