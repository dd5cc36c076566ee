"""Unit tests for Stage 3 (recasting)."""

import pytest

from repro.core.defect import compute_defect
from repro.core.linkspace import LinkSpace
from repro.core.notation import parse_program
from repro.core.perfect import minimal_perfect_typing
from repro.core.recast import (
    LocalIndex,
    RecastMode,
    closest_type,
    object_local_body,
    recast,
    satisfied_types,
    type_new_object,
)
from repro.core.typing_program import TypingProgram
from repro.exceptions import RecastError
from repro.graph.builder import DatabaseBuilder
from repro.perf import PerfRecorder


@pytest.fixture
def two_type_program():
    return parse_program(
        """
        person = ->name^0, ->email^0
        firm = ->ticker^0, ->exchange^0
        """
    )


@pytest.fixture
def mixed_db():
    builder = DatabaseBuilder()
    builder.attr("p1", "name", "A").attr("p1", "email", "a@x")
    builder.attr("p2", "name", "B").attr("p2", "email", "b@x")
    builder.attr("f1", "ticker", "ACM").attr("f1", "exchange", "NYSE")
    # p3 is defective: only a name.
    builder.attr("p3", "name", "C")
    return builder.build()


class TestLocalBody:
    def test_neighbour_types_resolved(self, figure2_db, p0_program):
        reference = {"m": {"firm"}, "g": {"person"}}
        body = object_local_body(figure2_db, "g", reference)
        assert {str(l) for l in body} == {
            "->is-manager-of^firm",
            "->name^0",
            "<-is-managed-by^firm",
        }

    def test_unassigned_neighbours_contribute_nothing(self, figure2_db):
        body = object_local_body(figure2_db, "g", {})
        assert {str(l) for l in body} == {"->name^0"}

    def test_multi_role_neighbour_multiplies_links(self):
        db = DatabaseBuilder().link("a", "b", "l").build()
        body = object_local_body(db, "a", {"b": {"t1", "t2"}})
        assert {str(l) for l in body} == {"->l^t1", "->l^t2"}


class TestSatisfactionAndClosest:
    def test_satisfied_types(self, mixed_db, two_type_program):
        assert satisfied_types(two_type_program, mixed_db, "p1", {}) == {
            "person"
        }
        assert satisfied_types(two_type_program, mixed_db, "p3", {}) == frozenset()

    def test_closest_type(self, mixed_db, two_type_program):
        name, distance = closest_type(two_type_program, mixed_db, "p3", {})
        assert name == "person"  # shares 'name'; firm shares nothing
        assert distance == 1

    def test_closest_on_empty_program(self, mixed_db):
        with pytest.raises(RecastError):
            closest_type(TypingProgram.empty(), mixed_db, "p3", {})


class TestRecastStrict:
    def test_strict_uses_gfp(self, mixed_db, two_type_program):
        result = recast(
            two_type_program, mixed_db, mode=RecastMode.STRICT,
            fallback="none",
        )
        assert result.types_of("p1") == {"person"}
        assert result.types_of("f1") == {"firm"}
        assert result.types_of("p3") == frozenset()
        assert result.untyped_objects == {"p3"}

    def test_strict_with_fallback(self, mixed_db, two_type_program):
        result = recast(two_type_program, mixed_db, mode=RecastMode.STRICT)
        assert result.types_of("p3") == {"person"}
        assert result.fallback_objects == {"p3"}
        assert result.untyped_objects == frozenset()

    def test_extents_inverted(self, mixed_db, two_type_program):
        result = recast(two_type_program, mixed_db, mode=RecastMode.STRICT)
        assert result.extents["person"] == {"p1", "p2", "p3"}
        assert result.extents["firm"] == {"f1"}


class TestRecastHomeGuided:
    def test_home_kept_despite_defect(self, mixed_db, two_type_program):
        home = {"p1": {"person"}, "p2": {"person"}, "p3": {"person"},
                "f1": {"firm"}}
        result = recast(
            two_type_program, mixed_db, home=home,
            mode=RecastMode.HOME_GUIDED, fallback="none",
        )
        assert result.types_of("p3") == {"person"}
        assert result.fallback_objects == frozenset()

    def test_satisfied_types_added_on_top(self, mixed_db, two_type_program):
        # f1 is homed as person (wrongly); it still also satisfies firm.
        home = {"f1": {"person"}}
        for use_bitset in (True, False):
            perf = PerfRecorder()
            result = recast(
                two_type_program, mixed_db, home=home,
                mode=RecastMode.HOME_GUIDED, perf=perf,
                use_bitset=use_bitset,
            )
            assert result.types_of("f1") == {"person", "firm"}
            # One subset test per (complex object, rule), on both paths.
            assert perf.counter("recast.evaluations") == 4 * 2
            assert perf.counter("recast.cover_checks") == 4 * 2

    def test_requires_home(self, mixed_db, two_type_program):
        with pytest.raises(RecastError):
            recast(two_type_program, mixed_db, mode=RecastMode.HOME_GUIDED)

    def test_explicitly_untyped_respected(self, mixed_db, two_type_program):
        home = {"p3": frozenset()}
        result = recast(
            two_type_program, mixed_db, home=home,
            mode=RecastMode.HOME_GUIDED,
        )
        assert result.types_of("p3") == frozenset()
        assert "p3" in result.untyped_objects

    def test_home_types_absent_from_program_dropped(self, mixed_db, two_type_program):
        home = {"p1": {"person", "merged-away"}}
        result = recast(
            two_type_program, mixed_db, home=home,
            mode=RecastMode.HOME_GUIDED,
        )
        assert result.types_of("p1") == {"person"}

    def test_unknown_fallback_rejected(self, mixed_db, two_type_program):
        with pytest.raises(RecastError):
            recast(two_type_program, mixed_db, home={}, fallback="wat")


class TestNewObjects:
    def test_satisfying_object_gets_all_types(self, two_type_program):
        db = (
            DatabaseBuilder()
            .attr("new", "name", "N").attr("new", "email", "n@x")
            .attr("new", "ticker", "NEW").attr("new", "exchange", "NYSE")
            .build()
        )
        types = type_new_object(two_type_program, db, "new", {})
        assert types == {"person", "firm"}

    def test_defective_object_gets_closest(self, two_type_program):
        db = DatabaseBuilder().attr("new", "ticker", "NEW").build()
        types = type_new_object(two_type_program, db, "new", {})
        assert types == {"firm"}

    def test_empty_program_returns_nothing(self):
        db = DatabaseBuilder().complex("new").build()
        assert type_new_object(TypingProgram.empty(), db, "new", {}) == frozenset()


class TestClassIndex:
    """``LocalIndex`` over Stage 1's bisimulation classes: one position
    per class, weighted by its size and its edge counts."""

    @pytest.fixture
    def twin_db(self):
        # p1, p2 and p3 are bisimilar (each names one firm f1 or f2 and
        # has a name); f1 and f2 are bisimilar firms.  f1 has two
        # employees, so the class-level kind (works, {f1, f2}) counts
        # three edges.
        return (
            DatabaseBuilder()
            .attr("p1", "name", "A").link("p1", "f1", "works")
            .attr("p2", "name", "B").link("p2", "f1", "works")
            .attr("p3", "name", "C").link("p3", "f2", "works")
            .attr("f1", "ticker", "X").attr("f2", "ticker", "Y")
            .build()
        )

    def test_positions_sizes_and_counts(self, twin_db):
        classes = minimal_perfect_typing(twin_db).representative
        assert classes == {
            "f1": "f1", "f2": "f1", "p1": "p1", "p2": "p1", "p3": "p1",
        }
        space = LinkSpace()
        space.encode(parse_program("p = ->name^0").rule("p").body)
        index = LocalIndex(twin_db, space, classes=classes)
        assert sorted(index.objects) == ["f1", "p1"]
        p, f = index.position["p3"], index.position["f2"]
        assert index.position["p1"] == p and index.position["f1"] == f
        assert index.size[p] == 3 and index.size[f] == 2
        assert [(j, count) for _, _, j, count in index.out[p]] == [(f, 3)]
        assert [j for _, j in index.inc[f]] == [p]
        assert index.atomic_edges[p] == [(index.atomic[p], 3)]
        identity = LocalIndex(twin_db, space)
        assert len(identity.objects) == 5
        assert all(count == 1 for edges in identity.out
                   for *_, count in edges)

    def test_recast_and_defect_lift_to_every_member(self, twin_db):
        """Stage 3 on the class index equals Stage 3 per object, and
        the defect weights each class by its size and edge counts."""
        program = parse_program(
            """
            person = ->name^0, ->email^0
            firm = ->ticker^0
            """
        )
        home = {obj: {"person" if obj[0] == "p" else "firm"}
                for obj in twin_db.complex_objects()}
        space = LinkSpace()
        for rule in program.rules():
            space.encode(rule.body)
        classes = minimal_perfect_typing(twin_db).representative
        index = LocalIndex(twin_db, space, classes=classes)
        perf = PerfRecorder()
        by_class = recast(program, twin_db, home=home, perf=perf,
                          index=index)
        per_object = recast(program, twin_db, home=home)
        assert by_class == per_object
        # One subset test per (class, rule).
        assert perf.counter("recast.cover_checks") == 2 * 2
        defect = compute_defect(program, twin_db, by_class.assignment,
                                index=index)
        oracle = compute_defect(program, twin_db, by_class.assignment,
                                use_bitset=False)
        # Each person misses ->email^0 (deficit 3); the name and ticker
        # edges are used, the three works edges are not (excess 3).
        assert (defect.excess.count, defect.deficit.count) == (3, 3)
        assert (oracle.excess.count, oracle.deficit.count) == (3, 3)

    def test_sorted_bits_that_split_a_class_read_per_object(self):
        """Plain Stage 1 puts objects whose atomic targets differ only
        in sort in one class; a space interning sorted links tells them
        apart, so the index falls back to the identity partition."""
        db = (
            DatabaseBuilder()
            .attr("p1", "year", 1998)
            .attr("p2", "year", "late")
            .build()
        )
        classes = minimal_perfect_typing(db).representative
        assert len(set(classes.values())) == 1
        space = LinkSpace()
        space.encode(parse_program("y = ->year^0").rule("y").body)
        assert len(LocalIndex(db, space, classes=classes).objects) == 1
        space.encode(parse_program("y = ->year^0:int").rule("y").body)
        index = LocalIndex(db, space, classes=classes)
        assert sorted(index.objects) == ["p1", "p2"]
        assert index.size == [1, 1]

    def test_atomic_link_after_the_read_is_refused(self, twin_db):
        space = LinkSpace()
        index = LocalIndex(twin_db, space)
        space.encode(parse_program("p = ->name^0").rule("p").body)
        with pytest.raises(RecastError):
            index.sync()
