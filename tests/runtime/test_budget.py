"""Unit tests for execution budgets and cooperative cancellation."""

from __future__ import annotations

import pytest

from repro.core.clustering import GreedyMerger
from repro.core.fixpoint import greatest_fixpoint
from repro.core.perfect import build_object_program, minimal_perfect_typing
from repro.core.sensitivity import sensitivity_sweep
from repro.exceptions import (
    BudgetExceededError,
    ExecutionInterruptedError,
    ExtractionCancelledError,
)
from repro.runtime.budget import Budget, CancellationToken
from repro.synth.datasets import make_dbg


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBudgetLimits:
    def test_unlimited_budget_never_raises(self):
        budget = Budget()
        for _ in range(10_000):
            budget.charge()
        assert not budget.exhausted()

    def test_iteration_cap_allows_exactly_max(self):
        budget = Budget(max_iterations=3)
        for _ in range(3):
            budget.charge()
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.charge()
        assert exc_info.value.reason == "iterations"
        assert exc_info.value.iterations == 4

    def test_charge_accepts_batches(self):
        budget = Budget(max_iterations=10)
        budget.charge(iterations=10)
        with pytest.raises(BudgetExceededError):
            budget.charge(iterations=1)

    def test_timeout_uses_injected_clock(self):
        clock = FakeClock()
        budget = Budget(timeout=5.0, clock=clock).start()
        clock.advance(4.9)
        budget.charge()
        clock.advance(0.2)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.charge()
        assert exc_info.value.reason == "timeout"
        assert exc_info.value.elapsed == pytest.approx(5.1)

    def test_deadline_is_absolute_not_per_check(self):
        clock = FakeClock()
        budget = Budget(timeout=1.0, clock=clock).start()
        clock.advance(2.0)
        # Every later check keeps failing: limits are sticky.
        for _ in range(3):
            with pytest.raises(BudgetExceededError):
                budget.check()

    def test_elapsed_zero_before_start(self):
        clock = FakeClock()
        budget = Budget(timeout=10.0, clock=clock)
        clock.advance(50.0)
        assert budget.elapsed() == 0.0
        budget.start()
        clock.advance(1.5)
        assert budget.elapsed() == pytest.approx(1.5)

    def test_start_is_idempotent(self):
        clock = FakeClock()
        budget = Budget(timeout=10.0, clock=clock).start()
        clock.advance(3.0)
        budget.start()  # must not re-arm the deadline
        assert budget.elapsed() == pytest.approx(3.0)

    def test_check_does_not_consume_work(self):
        budget = Budget(max_iterations=5)
        for _ in range(100):
            budget.check()
        assert budget.iterations == 0

    def test_remaining_clamped_at_zero_past_expiry(self):
        # Service deadlines derive child budgets from the remaining
        # allowance right at (or past) expiry; the remainders must
        # clamp at zero, never go negative.
        clock = FakeClock()
        budget = Budget(timeout=1.0, max_iterations=3, clock=clock).start()
        assert budget.remaining_timeout() == pytest.approx(1.0)
        clock.advance(0.75)
        assert budget.remaining_timeout() == pytest.approx(0.25)
        clock.advance(10.0)  # far past the deadline
        assert budget.remaining_timeout() == 0.0
        for _ in range(3):
            try:
                budget.charge()
            except BudgetExceededError:
                pass
        # iterations overshoot the cap by design (charge-then-check);
        # the remainder still reports zero, not a negative number.
        assert budget.iterations >= budget.max_iterations
        assert budget.remaining_iterations() == 0

    def test_zero_remainder_builds_an_immediately_exhausted_child(self):
        # The chain the service write path exercises constantly: a
        # parent at expiry hands a zero remainder to a child budget,
        # which must be constructible and trip on the first check.
        clock = FakeClock()
        parent = Budget(timeout=0.5, clock=clock).start()
        clock.advance(2.0)
        child = Budget(timeout=parent.remaining_timeout(), clock=clock)
        child.start()
        clock.advance(0.001)
        assert child.exhausted()
        with pytest.raises(BudgetExceededError):
            child.check()

    def test_remaining_none_when_unbounded(self):
        budget = Budget().start()
        assert budget.remaining_timeout() is None
        assert budget.remaining_iterations() is None

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(timeout=-1.0)
        with pytest.raises(ValueError):
            Budget(max_iterations=-1)

    def test_snapshot_summary(self):
        clock = FakeClock()
        budget = Budget(timeout=2.0, max_iterations=7, clock=clock).start()
        budget.charge(iterations=3)
        clock.advance(1.0)
        snap = budget.snapshot()
        assert snap.iterations == 3
        assert snap.elapsed == pytest.approx(1.0)
        assert "3 iteration(s) of 7" in snap.summary()
        assert "of 2s" in snap.summary()


class TestCancellationToken:
    def test_token_cancels_budget(self):
        token = CancellationToken()
        budget = Budget(token=token)
        budget.charge()
        token.cancel("operator abort")
        with pytest.raises(ExtractionCancelledError) as exc_info:
            budget.charge()
        assert "operator abort" in str(exc_info.value)
        assert exc_info.value.reason == "cancelled"

    def test_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_cancellation_is_interrupted_error(self):
        # Both budget exceptions share a base so callers can catch one.
        token = CancellationToken()
        token.cancel()
        with pytest.raises(ExecutionInterruptedError):
            token.raise_if_cancelled()
        assert issubclass(BudgetExceededError, ExecutionInterruptedError)


class TestBudgetedLoops:
    """The budget actually interrupts the paper's hot loops."""

    def test_fixpoint_charges_budget(self, figure2_db, p0_program):
        budget = Budget(max_iterations=1)
        with pytest.raises(BudgetExceededError):
            greatest_fixpoint(p0_program, figure2_db, budget=budget)
        # Unbudgeted evaluation of the same input succeeds.
        assert greatest_fixpoint(p0_program, figure2_db).assignment

    def test_fixpoint_checks_budget_while_building_the_bound(self):
        """A cancelled or expired budget stops the GFP of a many-rule
        program inside its signature bound, before the worklist
        charges its first step; the check charges nothing."""
        db = make_dbg(seed=1998)
        program = build_object_program(db)
        token = CancellationToken()
        token.cancel("operator abort")
        clock = FakeClock()
        expired = Budget(timeout=1.0, clock=clock).start()
        clock.advance(2.0)
        for budget in (Budget(token=token), expired):
            with pytest.raises(ExecutionInterruptedError) as exc_info:
                greatest_fixpoint(program, db, budget=budget)
            assert exc_info.value.iterations == 0
            assert budget.iterations == 0

    def test_merger_stops_mid_run(self, soccer_movie_db):
        stage1 = minimal_perfect_typing(soccer_movie_db)
        merger = GreedyMerger(stage1.program, stage1.weights)
        n = merger.num_types
        assert n == 3  # soccer star / movie star / Cantona
        budget = Budget(max_iterations=1)
        with pytest.raises(BudgetExceededError):
            merger.run_to(1, budget=budget)
        # charge() happens before the pop, so exactly 1 merge landed.
        assert merger.num_types == n - 1

    def test_auto_k_stage2_trips_inside_the_replay(self, figure3_db):
        """Auto-k Stage 2 replays the sweep's merges to the knee; a cap
        that trips inside the replay degrades exactly like the same cap
        inside ``run_to``: a pinned-k extract whose cap leaves out the
        sweep's units (one per merge and per sample)."""
        from repro.core.pipeline import SchemaExtractor

        full = SchemaExtractor(figure3_db).extract()
        sweep = full.sensitivity
        assert full.num_perfect_types - full.chosen_k >= 2
        auto = SchemaExtractor(figure3_db).extract(
            budget=Budget(
                max_iterations=len(sweep.trace) + len(sweep.points) + 1
            )
        )
        pinned = SchemaExtractor(figure3_db).extract(
            k=full.chosen_k, budget=Budget(max_iterations=1)
        )
        for result in (auto, pinned):
            assert result.degradation.stage == "stage2"
            assert result.num_types == full.num_perfect_types - 1
        assert auto.stage2 == pinned.stage2
        assert auto.assignment == pinned.assignment
        assert auto.recast_result == pinned.recast_result
        assert auto.defect.total == pinned.defect.total
        for field in ("reason", "target_k", "achieved_k", "best_defect"):
            assert getattr(auto.degradation, field) == getattr(
                pinned.degradation, field
            ), field

    def test_sweep_returns_partial_curve(self, soccer_movie_db):
        full = sensitivity_sweep(soccer_movie_db)
        budget = Budget(max_iterations=3)
        partial = sensitivity_sweep(soccer_movie_db, budget=budget)
        assert partial.exhausted
        assert 0 < len(partial.points) < len(full.points)
        # The sampled prefix matches the unbudgeted curve (high k first).
        full_by_k = {p.k: p for p in full.points}
        for point in partial.points:
            assert full_by_k[point.k] == point

    def test_sweep_raises_when_nothing_sampled(self, soccer_movie_db):
        budget = Budget(max_iterations=0)
        with pytest.raises(ExecutionInterruptedError):
            sensitivity_sweep(soccer_movie_db, budget=budget)


class TestChildBudgets:
    """``Budget.child()`` — how allowances cross the process boundary."""

    def test_child_carries_remaining_allowance(self):
        clock = FakeClock()
        budget = Budget(
            timeout=10.0, max_iterations=100, clock=clock
        ).start()
        clock.advance(4.0)
        budget.charge(30)
        child = budget.child()
        assert child.timeout == pytest.approx(6.0)
        assert child.max_iterations == 70

    def test_child_of_unbounded_is_unbounded(self):
        child = Budget().child()
        assert child.timeout is None
        assert child.max_iterations is None

    def test_child_drops_the_token(self):
        from repro.runtime.budget import CancellationToken

        token = CancellationToken()
        budget = Budget(token=token)
        child = budget.child()
        assert child.token is None
        token.cancel()
        child.check()  # the child must not see the parent's token

    def test_exhausted_parent_yields_zero_child(self):
        clock = FakeClock()
        budget = Budget(timeout=1.0, max_iterations=5, clock=clock).start()
        clock.advance(2.0)
        budget._iterations = 9
        child = budget.child()
        assert child.timeout == 0.0
        assert child.max_iterations == 0
