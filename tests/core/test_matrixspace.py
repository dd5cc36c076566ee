"""Unit tests for the uint64 pairwise matrix behind the ablations.

:class:`~repro.core.matrixspace.MaskMatrix` only serves
:meth:`CachedBodyDistance.matrix` (the Section 5.2 clustering
ablations).  This file pins its packing and pairwise math against the
per-pair popcount, the distance-cache bypass, the ``already_cached``
double-wrap guard, and that the ablations and the pipeline run without
numpy.
"""

import sys

import pytest

import repro.core
from repro.core.clustering import GreedyMerger
from repro.core.linkspace import CachedBodyDistance, LinkSpace
from repro.core.pipeline import SchemaExtractor
from repro.core.typing_program import TypedLink, TypeRule, TypingProgram
from repro.graph.database import Database
from repro.perf import PerfRecorder

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.matrixspace import (  # noqa: E402
    MaskMatrix,
    pack_mask,
    popcount_words,
)


def body(*labels):
    return frozenset(TypedLink.to_atomic(label) for label in labels)


def small_db():
    db = Database()
    db.add_atomic("n1", 1)
    db.add_atomic("s1", "x")
    for i in range(3):
        db.add_link(f"a{i}", "n1", "num")
        db.add_link(f"a{i}", "s1", "name")
    for i in range(3):
        db.add_link(f"b{i}", "s1", "name")
        db.add_link(f"b{i}", f"a{i % 2}", "owns")
    db.add_link("root", "a0", "item")
    db.add_link("root", "b0", "item")
    return db


class TestPackUnpack:
    def test_round_trip(self):
        mask = (1 << 200) | (1 << 64) | 3
        words = pack_mask(mask, 4)
        assert int.from_bytes(words.astype("<u8").tobytes(), "little") == mask

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            pack_mask(1 << 64, 1)

    def test_popcount_matches_int_bit_count(self):
        words = np.array(
            [[0, 2**64 - 1, 1 << 63], [5, 0, 2**63 - 1]], dtype=np.uint64
        )
        got = popcount_words(words)
        for row_w, row_c in zip(words, got):
            for w, c in zip(row_w, row_c):
                assert int(c) == int(w).bit_count()


class TestDistanceCacheBypass:
    """Satellite: the unbounded pair dict dies once the matrix lands."""

    def test_matrix_clears_and_bypasses_dict_cache(self):
        bodies = [body("a"), body("a", "b"), body("c")]
        perf = PerfRecorder()
        dist = CachedBodyDistance(bodies, perf=perf)
        assert dist.manhattan(0, 1) == 1  # populates the dict
        assert len(dist._cache) == 1
        array = dist.matrix()
        assert array is not None
        assert len(dist._cache) == 0  # satellite: dict released
        assert dist.manhattan(0, 2) == 2
        assert len(dist._cache) == 0  # reads go to the array now
        assert perf.counter("linkspace.matrix_builds") == 1
        assert perf.counter("linkspace.matrix_hits") == 1
        assert perf.counter("linkspace.matrix_evals") >= 3
        assert perf.peak_value("linkspace.matrix_bytes") > 0

    def test_matrix_is_cached_and_exact(self):
        bodies = [body("a"), body("b", "c")]
        dist = CachedBodyDistance(bodies)
        array = dist.matrix()
        assert dist.matrix() is array
        assert array[0, 1] == 3
        assert array.dtype == np.int64

    def test_use_matrix_false_returns_none(self):
        dist = CachedBodyDistance([body("a")], use_matrix=False)
        assert dist.matrix() is None

    def test_set_oracle_path_returns_none(self):
        dist = CachedBodyDistance([body("a")], use_bitset=False)
        assert dist.matrix() is None


class TestAlreadyCachedProtocol:
    """Satellite: no redundant second cache layer around internal ones."""

    def test_cached_body_distance_is_not_rewrapped(self):
        from repro.cluster.kmedian import _resolve_distance

        dist = CachedBodyDistance([body("a"), body("b")], use_matrix=False)
        assert _resolve_distance(dist, cache_distances=True) is dist

    def test_matrix_distance_resolution(self):
        from repro.cluster.kmedian import _MatrixDistance, _resolve_distance

        dist = CachedBodyDistance([body("a"), body("b")])
        resolved = _resolve_distance(dist, cache_distances=True)
        assert isinstance(resolved, _MatrixDistance)
        assert resolved.already_cached
        # Resolving the resolved form is a no-op wrap-wise.
        assert _resolve_distance(resolved, cache_distances=True) is resolved

    def test_plain_callable_still_wrapped(self):
        from repro.cluster.kmedian import _resolve_distance

        calls = []

        def raw(i, j):
            calls.append((i, j))
            return abs(i - j)

        wrapped = _resolve_distance(raw, cache_distances=True)
        assert wrapped is not raw
        assert wrapped(0, 1) == 1
        assert wrapped(1, 0) == 1
        assert len(calls) == 1  # second call served by the wrap


def _block_numpy(monkeypatch):
    """Make ``import numpy`` (and so the matrix module) fail."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "repro.core.matrixspace", raising=False)
    monkeypatch.delattr(repro.core, "matrixspace", raising=False)


class TestGracefulDegradation:
    def test_cached_distance_without_numpy(self, monkeypatch):
        _block_numpy(monkeypatch)
        dist = CachedBodyDistance([body("a"), body("b")])
        assert dist.matrix() is None
        assert dist.manhattan(0, 1) == 2  # dict path still exact

    def test_merger_without_numpy(self, monkeypatch):
        _block_numpy(monkeypatch)
        program = TypingProgram(
            [TypeRule("t0", body("a")), TypeRule("t1", body("a", "b"))]
        )
        merger = GreedyMerger(program, {"t0": 1.0, "t1": 1.0})
        merger.run_to(1)

    def test_pipeline_without_numpy(self, monkeypatch):
        _block_numpy(monkeypatch)
        result = SchemaExtractor(small_db()).extract(k=2)
        assert result.num_types == 2


class TestPairwise:
    def test_matches_per_pair_popcount_across_words(self):
        space = LinkSpace()
        masks = [
            space.encode(body(*(f"w{i}" for i in range(start, start + 70))))
            for start in (0, 40, 90)
        ] + [0]
        assert space.dimension > 128  # rows span three words
        pair = MaskMatrix.from_masks(masks, space.dimension).pairwise()
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                assert pair[i, j] == (a ^ b).bit_count()

    def test_empty_bodies_and_no_rows(self):
        assert MaskMatrix.from_masks([0, 0, 0]).pairwise().tolist() == [
            [0] * 3
        ] * 3
        assert MaskMatrix.from_masks([]).pairwise().shape == (0, 0)
