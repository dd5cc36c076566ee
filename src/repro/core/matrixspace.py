"""Packed uint64 pairwise distances for the clustering ablations.

The Section 5.2 ablations (:mod:`repro.cluster.kmedian`,
:mod:`repro.cluster.hierarchy`) query the Manhattan distance between
the same Stage 1 bodies ``O(n^2)`` times per round.  A
:class:`MaskMatrix` packs ``n`` link-space masks into an
``(n, n_words)`` ``numpy`` uint64 array (bit ``j`` of a mask lives in
word ``j // 64``, bit ``j % 64``) and computes the full ``n x n``
distance matrix in one XOR broadcast + vectorized popcount
(:func:`numpy.bitwise_count` when available, a byte table otherwise).

The only consumer is
:meth:`repro.core.linkspace.CachedBodyDistance.matrix`, which imports
this module lazily: the extraction pipeline, the worker pool and the
daemon never load numpy.  Without numpy the import fails, ``matrix()``
returns ``None`` and the ablations stay on exact per-pair popcounts:
identical results, only slower.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Bits per packed word.
WORD_BITS = 64

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
if not _HAVE_BITWISE_COUNT:  # pragma: no cover - numpy >= 2.0 has it
    _POPCOUNT_TABLE = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )


def popcount_words(words: "np.ndarray") -> "np.ndarray":
    """Per-word popcounts of a uint64 array (any shape, same shape out)."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    flat = np.ascontiguousarray(words)  # pragma: no cover - old numpy
    counts = _POPCOUNT_TABLE[flat.view(np.uint8)]  # pragma: no cover
    return counts.reshape(words.shape + (8,)).sum(  # pragma: no cover
        axis=-1, dtype=np.uint8
    )


def pack_mask(mask: int, n_words: int) -> "np.ndarray":
    """``mask`` as a little-endian uint64 word vector of length ``n_words``.

    Raises ``OverflowError`` when the mask does not fit.
    """
    buf = mask.to_bytes(n_words * 8, "little")
    return np.frombuffer(buf, dtype="<u8").astype(np.uint64, copy=False)


class MaskMatrix:
    """``n`` link-space masks packed as an ``(n, n_words)`` uint64 array.

    Bit positions are exactly the link space's, so every distance is
    bit-for-bit the per-pair ``(a ^ b).bit_count()``.
    """

    __slots__ = ("_buf",)

    def __init__(self, n_rows: int = 0, dimension: int = 0) -> None:
        words = max(1, -(-max(dimension, 1) // WORD_BITS))
        self._buf = np.zeros((n_rows, words), dtype=np.uint64)

    @classmethod
    def from_masks(
        cls, masks: Sequence[int], dimension: int = 0
    ) -> "MaskMatrix":
        """Pack ``masks``; capacity covers ``dimension`` and every mask."""
        if masks:
            dimension = max(dimension, max(m.bit_length() for m in masks))
        matrix = cls(len(masks), dimension)
        words = matrix._buf.shape[1]
        for i, mask in enumerate(masks):
            matrix._buf[i] = pack_mask(mask, words)
        return matrix

    @property
    def nbytes(self) -> int:
        """Bytes of backing storage (the ``linkspace.matrix_bytes`` peak)."""
        return int(self._buf.nbytes)

    def pairwise(self) -> "np.ndarray":
        """The full ``(n, n)`` Manhattan matrix in one shot (int64).

        Row blocks are chunked so the intermediate XOR tensor stays
        around 32 MB regardless of ``n``.
        """
        rows = self._buf
        n, words = rows.shape
        out = np.zeros((n, n), dtype=np.int64)
        if n == 0:
            return out
        chunk = max(1, (1 << 22) // max(1, n * words))
        for start in range(0, n, chunk):
            block = rows[start : start + chunk]
            xor = block[:, None, :] ^ rows[None, :, :]
            out[start : start + chunk] = popcount_words(xor).sum(
                axis=-1, dtype=np.int64
            )
        return out
