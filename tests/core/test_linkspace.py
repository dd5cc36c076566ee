"""Unit tests for the bitset link-space kernel (repro.core.linkspace)."""

import pytest

from repro.cluster.jump import defining_attributes
from repro.core.linkspace import BodyKernel, CachedBodyDistance, LinkSpace
from repro.core.typing_program import Direction, TypedLink
from repro.exceptions import ClusteringError
from repro.perf import PerfRecorder

NAME = TypedLink.to_atomic("name")
AGE = TypedLink.to_atomic("age")
ADVISOR = TypedLink.outgoing("advisor", "t1")
MEMBER = TypedLink.incoming("member", "t2")


class TestLinkSpace:
    def test_bits_are_distinct_powers_of_two(self):
        space = LinkSpace()
        bits = [space.bit_of(link) for link in (NAME, AGE, ADVISOR, MEMBER)]
        assert len(set(bits)) == 4
        for bit in bits:
            assert bit & (bit - 1) == 0
        assert space.dimension == 4

    def test_interning_is_stable(self):
        """A bit, once assigned, never moves — even as the universe grows."""
        space = LinkSpace()
        first = space.bit_of(NAME)
        space.encode([ADVISOR, MEMBER, AGE])
        assert space.bit_of(NAME) == first
        assert space.bit(Direction.OUT, "name", "0") == first

    def test_encode_decode_round_trip(self):
        space = LinkSpace()
        body = frozenset([NAME, ADVISOR, MEMBER])
        assert space.decode(space.encode(body)) == body

    def test_decode_empty_mask(self):
        assert LinkSpace().decode(0) == frozenset()

    def test_encode_matches_bit_union(self):
        space = LinkSpace()
        mask = space.encode([NAME, ADVISOR])
        assert mask == space.bit_of(NAME) | space.bit_of(ADVISOR)

    def test_constructor_preloads_links(self):
        space = LinkSpace([NAME, ADVISOR])
        assert space.dimension == 2
        assert space.decode(3) == frozenset([NAME, ADVISOR])

    def test_mask_targeting(self):
        space = LinkSpace()
        space.encode([NAME, ADVISOR, MEMBER])
        t1_mask = space.mask_targeting("t1")
        assert t1_mask == space.bit_of(ADVISOR)
        assert space.mask_targeting("no_such_type") == 0

    def test_retarget_matches_frozenset_rename(self):
        space = LinkSpace()
        body = frozenset([NAME, ADVISOR, MEMBER])
        mask = space.encode(body)
        renamed = space.retarget(mask, "t1", "t9")
        expected = frozenset(link.rename({"t1": "t9"}) for link in body)
        assert space.decode(renamed) == expected

    def test_retarget_collapse(self):
        """Renaming onto an existing superscript collapses the two links
        (set semantics — the paper's diagonal projection)."""
        space = LinkSpace()
        also_t2 = TypedLink.outgoing("advisor", "t2")
        mask = space.encode([ADVISOR, also_t2])
        assert space.decode(mask) == frozenset([ADVISOR, also_t2])
        collapsed = space.retarget(mask, "t1", "t2")
        assert space.decode(collapsed) == frozenset([also_t2])
        assert collapsed.bit_count() == 1

    def test_retarget_none_drops_links(self):
        """``new=None`` is the empty-type move: hits are removed."""
        space = LinkSpace()
        mask = space.encode([NAME, ADVISOR])
        dropped = space.retarget(mask, "t1", None)
        assert space.decode(dropped) == frozenset([NAME])

    def test_retarget_miss_is_identity(self):
        space = LinkSpace()
        mask = space.encode([NAME, AGE])
        assert space.retarget(mask, "t1", "t9") == mask

    def test_retarget_may_grow_the_universe(self):
        space = LinkSpace()
        mask = space.encode([ADVISOR])
        before = space.dimension
        out = space.retarget(mask, "t1", "fresh")
        assert space.dimension == before + 1
        assert space.decode(out) == frozenset(
            [TypedLink.outgoing("advisor", "fresh")]
        )

    def test_retarget_identity_short_circuits(self, monkeypatch):
        """``old == new`` must return the mask untouched without doing
        any per-bit work (regression: the old path decoded and
        re-interned every hit bit for a no-op rename)."""
        space = LinkSpace()
        mask = space.encode([ADVISOR, NAME])
        before = space.dimension

        def boom(*args, **kwargs):  # any interning proves the bug
            raise AssertionError("retarget(old, old) touched the universe")

        monkeypatch.setattr(LinkSpace, "bit", boom)
        assert space.retarget(mask, "t1", "t1") == mask
        assert space.dimension == before


class TestBodyKernel:
    def test_manhattan_matches_symmetric_difference(self):
        space = LinkSpace()
        a = space.encode([NAME, ADVISOR])
        b = space.encode([NAME, AGE, MEMBER])
        assert BodyKernel.manhattan(a, b) == len(
            frozenset([NAME, ADVISOR]) ^ frozenset([NAME, AGE, MEMBER])
        )
        assert BodyKernel.manhattan(a, a) == 0

    def test_covered_matches_subset(self):
        space = LinkSpace()
        small = space.encode([NAME])
        big = space.encode([NAME, ADVISOR])
        other = space.encode([AGE])
        assert BodyKernel.covered(small, big)
        assert BodyKernel.covered(small, small)
        assert not BodyKernel.covered(big, small)
        assert not BodyKernel.covered(other, big)
        assert BodyKernel.covered(0, small)

    def test_union_intersection_size(self):
        space = LinkSpace()
        a = space.encode([NAME, ADVISOR])
        b = space.encode([NAME, AGE])
        assert space.decode(BodyKernel.union(a, b)) == frozenset(
            [NAME, ADVISOR, AGE]
        )
        assert space.decode(BodyKernel.intersection(a, b)) == frozenset(
            [NAME]
        )
        assert BodyKernel.size(a) == 2

    def test_encode_counts_perf(self):
        perf = PerfRecorder()
        kernel = BodyKernel(perf=perf)
        kernel.encode([NAME, ADVISOR])
        kernel.encode([NAME])  # no growth: both links already interned
        assert perf.counter("linkspace.encodes") == 2
        assert perf.counter("linkspace.interned_links") == 2

    def test_support_tallies_weights_per_bit(self):
        space = LinkSpace()
        a = space.encode([NAME, ADVISOR])
        b = space.encode([NAME])
        support = BodyKernel.support([(a, 2.0), (b, 3.0)])
        assert support[space.bit_of(NAME)] == pytest.approx(5.0)
        assert support[space.bit_of(ADVISOR)] == pytest.approx(2.0)

    def test_weighted_center_majority_rule(self):
        space = LinkSpace()
        a = space.encode([NAME, ADVISOR])
        b = space.encode([NAME])
        center = BodyKernel.weighted_center([(a, 1.0), (b, 3.0)])
        assert space.decode(center) == frozenset([NAME])
        # At exactly half the weight the link is kept (2*s >= total).
        tied = BodyKernel.weighted_center([(a, 1.0), (b, 1.0)])
        assert space.decode(tied) == frozenset([NAME, ADVISOR])

    def test_weighted_center_zero_weight(self):
        assert BodyKernel.weighted_center([]) == 0
        assert BodyKernel.weighted_center([(7, 0.0)]) == 0

    def test_defining_mask_matches_defining_attributes(self):
        space = LinkSpace()
        members = [
            (frozenset([NAME, ADVISOR]), 5.0),
            (frozenset([NAME, AGE]), 3.0),
            (frozenset([NAME]), 1.0),
        ]
        mask = BodyKernel.defining_mask(
            [(space.encode(body), weight) for body, weight in members]
        )
        assert space.decode(mask) == defining_attributes(members)

    def test_defining_mask_rejects_zero_weight(self):
        with pytest.raises(ClusteringError):
            BodyKernel.defining_mask([(1, 0.0)])


class TestCachedBodyDistance:
    BODIES = [
        frozenset([NAME, ADVISOR]),
        frozenset([NAME, AGE, MEMBER]),
        frozenset([AGE]),
        frozenset(),
    ]

    def test_matches_frozenset_path(self):
        bitset = CachedBodyDistance(self.BODIES)
        plain = CachedBodyDistance(self.BODIES, use_bitset=False)
        n = len(self.BODIES)
        assert len(bitset) == len(plain) == n
        for i in range(n):
            for j in range(n):
                expected = len(self.BODIES[i] ^ self.BODIES[j])
                assert bitset(i, j) == plain(i, j) == float(expected)

    def test_cache_hits_are_counted(self):
        perf = PerfRecorder()
        distance = CachedBodyDistance(self.BODIES, perf=perf)
        assert distance(0, 1) == distance(1, 0)  # symmetric, one eval
        distance(0, 1)
        assert perf.counter("linkspace.matrix_evals") == 1
        assert perf.counter("linkspace.matrix_hits") == 2
        assert perf.counter("linkspace.encodes") == len(self.BODIES)
        assert perf.elapsed("linkspace.encode") >= 0.0

    def test_diagonal_is_free(self):
        perf = PerfRecorder()
        distance = CachedBodyDistance(self.BODIES, perf=perf)
        assert distance(2, 2) == 0.0
        assert perf.counter("linkspace.matrix_evals") == 0

    def test_shared_space(self):
        space = LinkSpace()
        CachedBodyDistance(self.BODIES, space=space)
        assert space.dimension == len(
            frozenset().union(*self.BODIES)
        )
