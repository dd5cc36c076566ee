"""Unit tests for the multiple-role decomposition (Section 4.2)."""

import pytest

from repro.core.perfect import minimal_perfect_typing
from repro.core.roles import decompose_roles, find_cover
from repro.core.typing_program import make_rule
from repro.synth.datasets import make_dbg


class TestFindCover:
    def test_exact_cover_found(self):
        target = make_rule("both", atomic=["a", "b", "c", "d"])
        c1 = make_rule("left", atomic=["a", "b"])
        c2 = make_rule("right", atomic=["c", "d"])
        cover = find_cover(target, [c1, c2])
        assert cover == {"left", "right"}

    def test_overlapping_cover_found(self):
        target = make_rule("both", atomic=["a", "b", "c"])
        c1 = make_rule("left", atomic=["a", "b"])
        c2 = make_rule("right", atomic=["b", "c"])
        assert find_cover(target, [c1, c2]) == {"left", "right"}

    def test_incomplete_cover_rejected(self):
        target = make_rule("both", atomic=["a", "b", "c"])
        c1 = make_rule("left", atomic=["a"])
        assert find_cover(target, [c1]) is None

    def test_single_type_cover_rejected(self):
        """A cover needs >= 2 types; equality is Stage 1's job."""
        target = make_rule("t", atomic=["a", "b"])
        same = make_rule("s", atomic=["a", "b"])
        assert find_cover(target, [same]) is None

    def test_non_subset_candidates_ignored(self):
        target = make_rule("t", atomic=["a", "b"])
        stranger = make_rule("s", atomic=["a", "z"])
        assert find_cover(target, [stranger]) is None

    def test_min_cover_size(self):
        target = make_rule("t", atomic=["a", "b", "c"])
        tiny = make_rule("x", atomic=["a"])
        rest = make_rule("y", atomic=["b", "c"])
        assert find_cover(target, [tiny, rest]) == {"x", "y"}
        assert find_cover(target, [tiny, rest], min_cover_size=2) is None


class TestSoccerMovieExample:
    """Figure 5 / Example 4.3: Cantona is both a soccer and movie star."""

    def test_conjunction_type_removed(self, soccer_movie_db):
        stage1 = minimal_perfect_typing(soccer_movie_db)
        assert stage1.num_types == 3  # soccer, both, movie
        roles = decompose_roles(stage1)
        assert roles.num_removed == 1
        assert len(roles.program) == 2

    def test_cantona_gets_both_roles(self, soccer_movie_db):
        stage1 = minimal_perfect_typing(soccer_movie_db)
        roles = decompose_roles(stage1)
        assert len(roles.assignment["o2"]) == 2
        assert roles.assignment["o1"] != roles.assignment["o3"]
        assert roles.assignment["o2"] == (
            roles.assignment["o1"] | roles.assignment["o3"]
        )

    def test_weights_count_roles(self, soccer_movie_db):
        stage1 = minimal_perfect_typing(soccer_movie_db)
        roles = decompose_roles(stage1)
        # o2 contributes to both surviving types: weights are 2 and 2.
        assert sorted(roles.weights.values()) == [2, 2]

    def test_extents_still_cover_cantona(self, soccer_movie_db):
        """After removal, the GFP of the smaller program still places
        o2 in both simpler types (extra links never disqualify)."""
        from repro.core.fixpoint import greatest_fixpoint

        stage1 = minimal_perfect_typing(soccer_movie_db)
        roles = decompose_roles(stage1)
        fixpoint = greatest_fixpoint(roles.program, soccer_movie_db)
        assert roles.assignment["o2"] <= fixpoint.types_of("o2")


class TestConservativeness:
    def test_referenced_types_not_removed(self, figure2_db):
        """Types referenced from other bodies are never decomposed."""
        stage1 = minimal_perfect_typing(figure2_db)
        roles = decompose_roles(stage1)
        assert roles.num_removed == 0
        assert roles.program == stage1.program

    def test_no_cover_no_change(self, regular_people_db):
        stage1 = minimal_perfect_typing(regular_people_db)
        roles = decompose_roles(stage1)
        assert roles.num_removed == 0
        assert all(len(ts) == 1 for ts in roles.assignment.values())

    @pytest.mark.parametrize("seed", [12, 13])
    def test_cover_members_are_never_removed(self, seed):
        """A type that joined one cover survives later, smaller covers:
        on these DBG instances a cover member was once decomposed away,
        leaving homes that named no rule."""
        roles = decompose_roles(minimal_perfect_typing(make_dbg(seed=seed)))
        names = set(roles.program.type_names())
        assert roles.num_removed > 0
        for homes in roles.assignment.values():
            assert homes <= names
        for cover in roles.covers.values():
            assert cover <= names
