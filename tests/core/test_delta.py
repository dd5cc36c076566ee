"""Stage1Maintainer on chains and cycles: coinductive gains, retractions,
ripple locality, counters and budget.  Every maintained typing is
compared with ``minimal_perfect_typing`` run from scratch.
"""

import pytest

from repro.core.delta import DeltaStats, Stage1Maintainer
from repro.core.perfect import minimal_perfect_typing
from repro.graph.database import Database
from repro.perf import PerfRecorder
from repro.runtime.budget import Budget
from repro.exceptions import BudgetExceededError


def chain_db(n, label="a"):
    """o0 -a-> o1 -a-> ... -a-> o{n-1}."""
    db = Database()
    for i in range(n - 1):
        db.add_link(f"o{i}", f"o{i+1}", label)
    return db


def assert_matches_oracle(typing, db):
    oracle = minimal_perfect_typing(db)
    assert typing.program == oracle.program
    assert typing.home_type == oracle.home_type
    assert typing.extents == oracle.extents
    assert typing.weights == oracle.weights


def apply_and_maintain(db, mutate, **kwargs):
    """Type ``db``, run ``mutate(db)`` under tracking, maintain.

    Returns the maintainer, the maintained typing and the change log.
    """
    maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
    with db.track_changes() as log:
        mutate(db)
    return maintainer, maintainer.apply(log, **kwargs), log


def homes(typing, objects):
    return {typing.home_type[obj] for obj in objects}


class TestExactness:
    def test_empty_changes_identity(self):
        # An edge added and removed inside one batch cancels out.
        db = chain_db(4)

        def add_and_remove(d):
            d.add_link("o0", "o3", "a")
            d.remove_link("o0", "o3", "a")

        maintainer, typing, log = apply_and_maintain(db, add_and_remove)
        assert log.empty
        assert_matches_oracle(typing, db)
        assert maintainer.last_stats.objects_visited == 0
        assert maintainer.last_stats.seeds == 0

    def test_cycle_close_gains_everywhere(self):
        # Every position of a chain is its own class; once the chain
        # closes into a cycle all five objects are bisimilar, and their
        # memberships only support each other around the cycle.
        db = chain_db(5)
        maintainer, typing, _ = apply_and_maintain(
            db, lambda d: d.add_link("o4", "o0", "a")
        )
        assert_matches_oracle(typing, db)
        assert typing.num_types == 1
        assert maintainer.last_stats.gains >= 5

    def test_cycle_break_retracts_everywhere(self):
        db = chain_db(5)
        db.add_link("o4", "o0", "a")
        maintainer, typing, _ = apply_and_maintain(
            db, lambda d: d.remove_link("o2", "o3", "a")
        )
        assert_matches_oracle(typing, db)
        assert typing.num_types == 5
        assert maintainer.last_stats.retractions >= 5

    def test_removed_object_stripped(self):
        db = Database()
        db.add_atomic("leaf", 0)
        db.add_link("x", "leaf", "a")
        db.add_link("y", "leaf", "a")
        _, typing, _ = apply_and_maintain(db, lambda d: d.remove_object("y"))
        assert_matches_oracle(typing, db)
        assert set(typing.home_type) == {"x"}
        assert all("y" not in extent for extent in typing.extents.values())

    def test_new_object_joins(self):
        db = Database()
        db.add_atomic("leaf", 0)
        db.add_link("x", "leaf", "a")
        _, typing, _ = apply_and_maintain(
            db, lambda d: d.add_link("z", "leaf", "a")
        )
        assert_matches_oracle(typing, db)
        assert typing.home_type["z"] == typing.home_type["x"]

    def test_incoming_link_rule(self):
        # x and y differ only in an incoming edge; giving y the same
        # parent merges their classes.
        db = Database()
        db.add_atomic("leaf", 0)
        db.add_link("p", "x", "a")
        db.add_link("x", "leaf", "v")
        db.add_link("y", "leaf", "v")
        _, typing, _ = apply_and_maintain(
            db, lambda d: d.add_link("p", "y", "a")
        )
        assert_matches_oracle(typing, db)
        assert typing.home_type["x"] == typing.home_type["y"]

    def test_chained_batches(self):
        db = chain_db(6)
        db.add_atomic("leaf", 0)
        maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
        edits = [
            lambda d: d.add_link("o5", "o0", "a"),
            lambda d: d.add_link("o2", "leaf", "a"),
            lambda d: d.remove_link("o0", "o1", "a"),
            lambda d: d.remove_object("o3"),
        ]
        for edit in edits:
            with db.track_changes() as log:
                edit(db)
            assert_matches_oracle(maintainer.apply(log), db)


class TestRippleLocality:
    def test_far_end_untouched(self):
        # Editing one of many like records must not visit the others:
        # the edited records still satisfy the shared rule, so no
        # carried membership is retracted.
        n = 60
        db = Database()
        db.add_atomic("leaf", 0)
        for i in range(n):
            db.add_link(f"o{i}", "leaf", "v")
        maintainer, typing, _ = apply_and_maintain(
            db, lambda d: d.add_link("o0", "o1", "extra")
        )
        assert_matches_oracle(typing, db)
        assert len(homes(typing, [f"o{i}" for i in range(2, n)])) == 1
        assert maintainer.last_stats.objects_visited < n // 2

    def test_ripple_stops_where_support_holds(self):
        # A chain ending in a cycle among o5..o9: breaking an edge far
        # from the cycle re-types only the prefix, not the cycle.
        db = chain_db(10)
        db.add_link("o9", "o5", "a")
        cycle = [f"o{i}" for i in range(5, 10)]
        before = minimal_perfect_typing(db)
        maintainer, typing, _ = apply_and_maintain(
            db, lambda d: d.remove_link("o1", "o2", "a")
        )
        assert_matches_oracle(typing, db)
        (home,) = homes(typing, cycle)
        (old_home,) = homes(before, cycle)
        assert typing.extents[home] == before.extents[old_home]
        assert maintainer.last_stats.objects_visited < len(cycle)


class TestInstrumentation:
    def test_perf_counters_recorded(self):
        db = chain_db(5)
        perf = PerfRecorder()
        apply_and_maintain(
            db, lambda d: d.add_link("o4", "o0", "a"), perf=perf
        )
        assert perf.counter("delta.seeds") >= 2
        assert perf.counter("delta.gains") >= 1
        assert perf.counter("delta.satisfaction_checks") > 0
        assert "delta.objects_visited" in perf.to_dict()["counters"]

    def test_budget_charged(self):
        db = chain_db(6)
        db.add_link("o5", "o0", "a")
        budget = Budget(max_iterations=1)
        with pytest.raises(BudgetExceededError):
            apply_and_maintain(
                db, lambda d: d.remove_link("o2", "o3", "a"), budget=budget
            )

    def test_stats_dataclass_defaults(self):
        stats = DeltaStats()
        assert stats.objects_visited == 0
        assert stats.seeds == 0
