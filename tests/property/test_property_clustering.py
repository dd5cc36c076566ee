"""Property-based tests for distances and Stage 2 clustering."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.clustering import GreedyMerger, MergePolicy
from repro.core.distance import delta_2, manhattan_bodies
from repro.core.typing_program import TypedLink, TypeRule, TypingProgram
from repro.exceptions import BudgetExceededError
from repro.runtime.budget import Budget

labels = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def bodies(draw):
    links = draw(st.lists(labels, max_size=4, unique=True))
    return frozenset(TypedLink.to_atomic(label) for label in links)


@st.composite
def programs_with_weights(draw):
    n = draw(st.integers(2, 7))
    rules = []
    weights = {}
    for i in range(n):
        name = f"t{i}"
        body = set(draw(bodies()))
        # Sprinkle some inter-type references.
        if draw(st.booleans()):
            body.add(TypedLink.outgoing("r", f"t{draw(st.integers(0, n - 1))}"))
        rules.append(TypeRule(name, frozenset(body)))
        weights[name] = draw(st.integers(1, 50))
    return TypingProgram(rules), weights


class TestManhattanMetric:
    @given(bodies(), bodies())
    def test_symmetry(self, b1, b2):
        assert manhattan_bodies(b1, b2) == manhattan_bodies(b2, b1)

    @given(bodies())
    def test_identity(self, b):
        assert manhattan_bodies(b, b) == 0

    @given(bodies(), bodies(), bodies())
    def test_triangle(self, b1, b2, b3):
        assert manhattan_bodies(b1, b3) <= (
            manhattan_bodies(b1, b2) + manhattan_bodies(b2, b3)
        )

    @given(bodies(), bodies())
    def test_zero_iff_equal(self, b1, b2):
        assert (manhattan_bodies(b1, b2) == 0) == (b1 == b2)


class TestGreedyMergerInvariants:
    @given(programs_with_weights(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_run_to_any_k(self, pw, data):
        program, weights = pw
        k = data.draw(st.integers(1, len(program)))
        result = GreedyMerger(program, weights).run_to(k)
        assert result.num_types == k

    @given(programs_with_weights())
    @settings(max_examples=50, deadline=None)
    def test_weight_is_conserved(self, pw):
        program, weights = pw
        merger = GreedyMerger(program, weights)
        result = merger.run_to(1)
        assert sum(result.weights.values()) == sum(weights.values())

    @given(programs_with_weights())
    @settings(max_examples=50, deadline=None)
    def test_merge_map_total_and_closed(self, pw):
        program, weights = pw
        result = GreedyMerger(program, weights).run_to(1)
        survivors = set(result.program.type_names())
        assert set(result.merge_map) == set(program.type_names())
        for target in result.merge_map.values():
            assert target in survivors

    @given(programs_with_weights())
    @settings(max_examples=50, deadline=None)
    def test_costs_non_negative_and_total(self, pw):
        program, weights = pw
        merger = GreedyMerger(program, weights)
        result = merger.run_to(1)
        assert all(r.cost >= 0 for r in result.records)
        assert result.total_cost == sum(r.cost for r in result.records)

    @given(programs_with_weights())
    @settings(max_examples=50, deadline=None)
    def test_no_dangling_references_after_merges(self, pw):
        program, weights = pw
        merger = GreedyMerger(program, weights)
        result = merger.run_to(1)
        result.program.validate()

    @given(programs_with_weights(), st.sampled_from(list(MergePolicy)))
    @settings(max_examples=40, deadline=None)
    def test_all_policies_preserve_invariants(self, pw, policy):
        program, weights = pw
        result = GreedyMerger(program, weights, policy=policy).run_to(1)
        assert result.num_types == 1
        result.program.validate()

    @given(programs_with_weights())
    @settings(max_examples=40, deadline=None)
    def test_empty_type_never_dangles(self, pw):
        program, weights = pw
        merger = GreedyMerger(
            program, weights, allow_empty_type=True, empty_weight=1.0
        )
        result = merger.run_to(1)
        result.program.validate()
        mapped = result.map_assignment(
            {f"obj{i}": frozenset([name])
             for i, name in enumerate(program.type_names())}
        )
        survivors = set(result.program.type_names())
        for types in mapped.values():
            assert types <= survivors


@st.composite
def merge_cases(draw):
    """A program with weights and a merger configuration: any policy,
    the empty type on or off, frozen types, either body representation,
    and the lowest reachable ``k``."""
    program, weights = draw(programs_with_weights())
    names = sorted(program.type_names())
    frozen = draw(st.sets(st.sampled_from(names), max_size=len(names) - 1))
    options = dict(
        policy=draw(st.sampled_from(list(MergePolicy))),
        allow_empty_type=draw(st.booleans()),
        frozen=frozen,
        use_bitset=draw(st.booleans()),
    )
    return program, weights, options, max(1, len(frozen))


def _state(merger):
    """Everything a replay must reproduce, rule order included."""
    result = merger.result()
    return (
        result,
        [rule.name for rule in result.program.rules()],
        merger.current_weights(),
    )


class TestReplay:
    @given(merge_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_replay_equals_search(self, case, data):
        """Replaying the first ``n - k`` merges of ``run_to(floor)``
        leaves the state of a fresh ``run_to(k)``, and the next
        ``step()`` continues along the same trace."""
        program, weights, options, floor = case
        n = len(program)
        trace = [
            (r.absorber, r.absorbed)
            for r in GreedyMerger(program, weights, **options)
            .run_to(floor).records
        ]
        k = data.draw(st.integers(floor, n), label="k")
        searched = GreedyMerger(program, weights, **options)
        searched.run_to(k)
        replayed = GreedyMerger(program, weights, **options)
        replayed.replay(trace[: n - k])
        assert _state(replayed) == _state(searched)
        if k > floor:
            assert replayed.step() == searched.step()
            assert _state(replayed) == _state(searched)

    @given(merge_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_budget_trips_like_run_to(self, case, data):
        """An iteration cap trips after the same merges in ``replay`` as
        in ``run_to``, with the same callbacks, and leaves the rows
        priced: the next ``step()`` agrees."""
        program, weights, options, floor = case
        n = len(program)
        assume(n > floor)
        trace = [
            (r.absorber, r.absorbed)
            for r in GreedyMerger(program, weights, **options)
            .run_to(floor).records
        ]
        cap = data.draw(st.integers(0, n - floor - 1), label="cap")
        searched = GreedyMerger(program, weights, **options)
        replayed = GreedyMerger(program, weights, **options)
        calls = {"searched": 0, "replayed": 0}

        def counter(name):
            def on_step(merger):
                calls[name] += 1
            return on_step

        with pytest.raises(BudgetExceededError):
            searched.run_to(
                floor, budget=Budget(max_iterations=cap),
                on_step=counter("searched"),
            )
        with pytest.raises(BudgetExceededError):
            replayed.replay(
                trace, budget=Budget(max_iterations=cap),
                on_step=counter("replayed"),
            )
        assert calls["searched"] == calls["replayed"] == cap
        assert _state(replayed) == _state(searched)
        assert replayed.step() == searched.step()
