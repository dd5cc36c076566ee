"""Bitset encoding of the typed-link hypercube (Sections 5-6 hot paths).

Stage 2 views every type as a point on the ``{0,1}^L`` hypercube whose
dimensions are the distinct typed links of the Stage 1 program, and
Stage 3 recasting repeatedly asks whether a rule body is a subset of an
object's local picture.  Both are *set* questions over a small, shared
universe — the natural machine encoding is an integer bitmask over an
interned link universe, not a hash-heavy ``FrozenSet[TypedLink]``:

* ``d(a, b)`` (Manhattan distance, Section 5.2) is
  ``(a ^ b).bit_count()`` — one xor and a popcount instead of hashing
  every link of both bodies into a fresh symmetric-difference set;
* ``body <= local`` (Section 6 satisfaction) is ``body & ~local == 0``;
* the Stage 2 "projection onto the hypercube diagonals" (coalescing
  superscripts) is a masked clear-and-or;
* the WEIGHTED_CENTER support aggregation walks set bits instead of
  re-hashing member bodies.

This module provides the encoding and the kernel:

* :class:`LinkSpace` — assigns each distinct :class:`TypedLink` a bit
  position (interning lazily, so Stage 3 local pictures and Stage 2
  renames can grow the universe mid-run) and encodes/decodes bodies;
* :class:`BodyKernel` — the hot operations over masks, plus the
  weighted-center / jump-function support aggregation;
* :class:`CachedBodyDistance` — an index-distance over rule bodies
  with bitset-encoded points and a pairwise cache, the drop-in for the
  closures the clustering ablations build (``repro.cluster.kmedian``,
  ``repro.cluster.hierarchy``).

The set-based path remains everywhere as the oracle (``use_bitset=False``
on the consumers, ``--no-bitset`` on the CLI); the property suite pins
that both paths produce identical typings, traces and defects.

Perf counters: ``linkspace.encodes`` (bodies encoded into masks),
``linkspace.interned_links`` (universe growth); consumers wrap bulk
encodes in the ``linkspace.encode`` span.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.typing_program import Direction, TypedLink
from repro.perf import PerfRecorder, resolve as _resolve_perf


class LinkSpace:
    """Interner mapping each distinct :class:`TypedLink` to a bit.

    The universe grows monotonically: a bit, once assigned, never moves,
    so masks produced earlier stay valid as new links are interned (the
    schema service keys its read-path cache on masks of one long-lived
    space).

    >>> from repro.core.typing_program import TypedLink
    >>> space = LinkSpace()
    >>> a = space.bit_of(TypedLink.to_atomic("name"))
    >>> b = space.bit_of(TypedLink.outgoing("advisor", "t1"))
    >>> sorted(space.decode(a | b)) == sorted(
    ...     [TypedLink.to_atomic("name"), TypedLink.outgoing("advisor", "t1")]
    ... )
    True
    """

    __slots__ = ("_bits", "_links", "_target_masks")

    def __init__(self, links: Iterable[TypedLink] = ()) -> None:
        #: (direction, label, target) -> isolated bit value (1 << i).
        self._bits: Dict[Tuple[Direction, str, str], int] = {}
        #: bit index -> link (for decoding).
        self._links: List[TypedLink] = []
        #: target name -> mask of all bits whose link points at it.
        self._target_masks: Dict[str, int] = {}
        for link in links:
            self.bit_of(link)

    @property
    def dimension(self) -> int:
        """Number of interned links — the hypercube dimension ``L``."""
        return len(self._links)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def bit_of(self, link: TypedLink) -> int:
        """The isolated bit value (``1 << i``) of ``link``, interning it."""
        key = (link.direction, link.label, link.target)
        bit = self._bits.get(key)
        if bit is None:
            bit = self._assign(key, link)
        return bit

    def bit(self, direction: Direction, label: str, target: str) -> int:
        """Like :meth:`bit_of` but keyed on the fields directly.

        The Stage 3 local-picture builder calls this once per witnessed
        edge; on the (overwhelmingly common) already-interned case no
        :class:`TypedLink` object is constructed at all.
        """
        key = (direction, label, target)
        bit = self._bits.get(key)
        if bit is None:
            bit = self._assign(key, TypedLink(direction, label, target))
        return bit

    def _assign(
        self, key: Tuple[Direction, str, str], link: TypedLink
    ) -> int:
        bit = 1 << len(self._links)
        self._bits[key] = bit
        self._links.append(link)
        self._target_masks[link.target] = (
            self._target_masks.get(link.target, 0) | bit
        )
        return bit

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, body: Iterable[TypedLink]) -> int:
        """The bitmask of ``body`` (interning unseen links)."""
        mask = 0
        bits = self._bits
        for link in body:
            key = (link.direction, link.label, link.target)
            bit = bits.get(key)
            if bit is None:
                bit = self._assign(key, link)
            mask |= bit
        return mask

    def decode(self, mask: int) -> FrozenSet[TypedLink]:
        """The typed links of the set bits of ``mask``."""
        return frozenset(self.links_of(mask))

    def links_of(self, mask: int) -> Iterator[TypedLink]:
        """Iterate the typed links of the set bits of ``mask``."""
        links = self._links
        while mask:
            low = mask & -mask
            mask ^= low
            yield links[low.bit_length() - 1]

    # ------------------------------------------------------------------
    # Retargeting (the Stage 2 diagonal projection)
    # ------------------------------------------------------------------
    def mask_targeting(self, type_name: str) -> int:
        """Mask of every interned link whose superscript is ``type_name``."""
        return self._target_masks.get(type_name, 0)

    def retarget(self, mask: int, old: str, new: Optional[str]) -> int:
        """Rewrite ``old`` superscripts in ``mask`` to ``new``.

        ``new=None`` (the empty-type move) drops the links instead.
        Renamed links that collide with bits already in the mask
        collapse — exactly the frozenset semantics of
        :meth:`TypedLink.rename` under set union (Example 5.1's
        zero-cost follow-up merges rely on this).

        ``old == new`` is an identity rename: the mask is returned
        unchanged (previously this cleared and re-interned the identical
        bits one at a time).
        """
        if old == new:
            return mask
        hit = mask & self._target_masks.get(old, 0)
        if not hit:
            return mask
        result = mask ^ hit
        if new is None:
            return result
        links = self._links
        while hit:
            low = hit & -hit
            hit ^= low
            link = links[low.bit_length() - 1]
            result |= self.bit(link.direction, link.label, new)
        return result


class BodyKernel:
    """The Stage 2/3 hot operations over :class:`LinkSpace` masks.

    The arithmetic ops are static (plain ``int`` identities, listed for
    discoverability and for the property suite to pin against the set
    semantics); the instance carries the space for the operations that
    need link identity (retargeting, support aggregation, decoding) and
    a :class:`~repro.perf.PerfRecorder` for the ``linkspace.*``
    counters.
    """

    __slots__ = ("space", "_perf")

    def __init__(
        self,
        space: Optional[LinkSpace] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.space = space if space is not None else LinkSpace()
        self._perf = _resolve_perf(perf)

    # ------------------------------------------------------------------
    # Pure mask arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def manhattan(a: int, b: int) -> int:
        """``d(a, b)``: popcount of the symmetric difference."""
        return (a ^ b).bit_count()

    @staticmethod
    def covered(body: int, local: int) -> bool:
        """Whether ``body <= local`` as link sets."""
        return body & ~local == 0

    @staticmethod
    def union(a: int, b: int) -> int:
        """Link-set union (the UNION merge policy)."""
        return a | b

    @staticmethod
    def intersection(a: int, b: int) -> int:
        """Link-set intersection (the INTERSECTION merge policy)."""
        return a & b

    @staticmethod
    def size(mask: int) -> int:
        """Number of typed links in the body (``|body|``)."""
        return mask.bit_count()

    # ------------------------------------------------------------------
    # Space-dependent operations
    # ------------------------------------------------------------------
    def encode(self, body: Iterable[TypedLink]) -> int:
        """Encode one body, counting it under ``linkspace.encodes``."""
        before = self.space.dimension
        mask = self.space.encode(body)
        self._perf.incr("linkspace.encodes")
        grown = self.space.dimension - before
        if grown:
            self._perf.incr("linkspace.interned_links", grown)
        return mask

    def decode(self, mask: int) -> FrozenSet[TypedLink]:
        """Decode a mask back to its frozenset of typed links."""
        return self.space.decode(mask)

    def retarget(self, mask: int, old: str, new: Optional[str]) -> int:
        """See :meth:`LinkSpace.retarget`."""
        return self.space.retarget(mask, old, new)

    @staticmethod
    def support(
        members: Sequence[Tuple[int, float]],
    ) -> Dict[int, float]:
        """Weighted support per link bit across ``(mask, weight)`` members.

        Keys are isolated bit values; this is the mask counterpart of
        the per-link tallies behind the WEIGHTED_CENTER merge policy and
        the jump function.
        """
        support: Dict[int, float] = {}
        for mask, weight in members:
            while mask:
                low = mask & -mask
                mask ^= low
                support[low] = support.get(low, 0.0) + weight
        return support

    @staticmethod
    def weighted_center(members: Sequence[Tuple[int, float]]) -> int:
        """Mask of links supported by at least half the member weight.

        The WEIGHTED_CENTER merge-policy rule (Section 5.2's "variation
        to k-clustering"), bit-for-bit equal to the set-based tally.
        """
        total = sum(weight for _, weight in members)
        if total <= 0:
            return 0
        center = 0
        for low, s in BodyKernel.support(members).items():
            if 2 * s >= total:
                center |= low
        return center

    @staticmethod
    def defining_mask(members: Sequence[Tuple[int, float]]) -> int:
        """Mask of the cluster's defining links per the jump function.

        The mask counterpart of
        :func:`repro.cluster.jump.defining_attributes`: supports are
        normalised by the total member weight and the links above the
        largest support gap are kept.
        """
        from repro.cluster.jump import jump_threshold

        total = sum(weight for _, weight in members)
        if total <= 0:
            from repro.exceptions import ClusteringError

            raise ClusteringError("total member weight must be positive")
        support = {
            low: s / total for low, s in BodyKernel.support(members).items()
        }
        threshold = jump_threshold(support.values())
        mask = 0
        for low, s in support.items():
            if s > threshold:
                mask |= low
        return mask


class CachedBodyDistance:
    """Pairwise Manhattan distance over rule bodies, computed once.

    The clustering ablations hand :mod:`repro.cluster.kmedian` /
    :mod:`repro.cluster.hierarchy` a closure over raw bodies, which the
    ``O(n^2)``-per-round algorithms then invoke for the same index pair
    over and over.  This class encodes every body into the bitset
    kernel once and caches each unordered pair's distance, so repeated
    queries cost a dictionary lookup and first-time queries a popcount.

    ``use_bitset=False`` keeps the frozenset evaluation (the oracle
    path) behind the same cache, so ablations can still isolate the
    encoding's contribution.

    :meth:`matrix` materializes the *full* pairwise distance matrix in
    one vectorized shot (``repro.core.matrixspace``); once materialized
    the per-pair ``_cache`` dict — an ``O(n^2)`` memory hazard at sweep
    scale — is cleared and bypassed entirely, with the backing storage
    reported under the ``linkspace.matrix_bytes`` peak counter.
    ``use_matrix=False`` (or missing numpy, or the set path) keeps the
    bounded-by-queries dict behaviour.

    ``already_cached`` marks instances as self-caching so the cluster
    entry points do not stack a second pair dict on top
    (:func:`repro.cluster.kmedian.cached_distance` checks it).

    Instances are callables with the ``IndexDistance`` signature
    (``(i, j) -> float``) expected by the cluster machinery.
    """

    #: Protocol attribute: this distance caches internally, so the
    #: cluster machinery must not wrap it in another cache layer.
    already_cached = True

    __slots__ = (
        "_bodies",
        "_masks",
        "_cache",
        "_matrix",
        "_perf",
        "use_bitset",
        "use_matrix",
    )

    def __init__(
        self,
        bodies: Sequence[Iterable[TypedLink]],
        use_bitset: bool = True,
        space: Optional[LinkSpace] = None,
        perf: Optional[PerfRecorder] = None,
        use_matrix: bool = True,
    ) -> None:
        self._perf = _resolve_perf(perf)
        self.use_bitset = use_bitset
        self.use_matrix = use_matrix
        self._cache: Dict[Tuple[int, int], int] = {}
        self._matrix = None
        if use_bitset:
            space = space if space is not None else LinkSpace()
            with self._perf.span("linkspace.encode"):
                self._masks: List[int] = [space.encode(b) for b in bodies]
            self._perf.incr("linkspace.encodes", len(self._masks))
            self._bodies: List[FrozenSet[TypedLink]] = []
        else:
            self._masks = []
            self._bodies = [frozenset(b) for b in bodies]

    def __len__(self) -> int:
        return len(self._masks) if self.use_bitset else len(self._bodies)

    def matrix(self):
        """The full pairwise distance matrix as numpy int64, or ``None``.

        Materialized once (``n`` XOR broadcasts + popcounts instead of
        ``n^2`` Python calls); ``None`` when numpy is missing, on the
        frozenset path, or with ``use_matrix=False`` — callers fall back
        to per-pair queries.  On success the per-pair dict is cleared:
        every subsequent :meth:`manhattan` reads the array directly.
        """
        if self._matrix is not None:
            return self._matrix
        if not (self.use_matrix and self.use_bitset):
            return None
        try:
            from repro.core import matrixspace  # needs numpy
        except ImportError:
            return None
        n = len(self._masks)
        with self._perf.span("linkspace.matrix_build"):
            packed = matrixspace.MaskMatrix.from_masks(self._masks)
            self._matrix = packed.pairwise()
        self._perf.incr("linkspace.matrix_builds")
        self._perf.peak(
            "linkspace.matrix_bytes",
            int(self._matrix.nbytes) + packed.nbytes,
        )
        self._perf.incr("linkspace.matrix_evals", n * (n - 1) // 2)
        self._cache.clear()
        return self._matrix

    def manhattan(self, i: int, j: int) -> int:
        """``d`` between points ``i`` and ``j`` (cached, symmetric)."""
        if i == j:
            return 0
        if self._matrix is not None:
            self._perf.incr("linkspace.matrix_hits")
            return int(self._matrix[i, j])
        if i > j:
            i, j = j, i
        key = (i, j)
        d = self._cache.get(key)
        if d is None:
            if self.use_bitset:
                d = (self._masks[i] ^ self._masks[j]).bit_count()
            else:
                d = len(self._bodies[i] ^ self._bodies[j])
            self._cache[key] = d
            self._perf.incr("linkspace.matrix_evals")
        else:
            self._perf.incr("linkspace.matrix_hits")
        return d

    def __call__(self, i: int, j: int) -> float:
        """The ``IndexDistance`` protocol of :mod:`repro.cluster`."""
        return float(self.manhattan(i, j))
