"""The epoch-keyed read-path cache over body masks.

A lookup's answer is a pure function of two things: the object's local
body mask (a :class:`~repro.core.linkspace.LinkSpace` bitmask — an
exact value encoding of its local picture) and the adopted typing
("epoch").  Two objects with identical masks get identical types, and
a refresh that adopts a new typing bumps the epoch, so caching on
``(epoch, mask)`` can never serve a stale or wrong answer — old-epoch
entries simply stop matching and age out of the LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Tuple

_Key = Tuple[int, int]  # (epoch, local body mask)
_Value = Tuple[FrozenSet[str], bool]  # (types, used the fallback rule)


class MaskCache:
    """A bounded LRU of classification results keyed ``(epoch, mask)``."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._max = max_entries
        self._entries: "OrderedDict[_Key, _Value]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, epoch: int, mask: int) -> Optional[_Value]:
        """The cached ``(types, fallback)`` for this epoch, if seen."""
        value = self._entries.get((epoch, mask))
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end((epoch, mask))
        self.hits += 1
        return value

    def put(
        self, epoch: int, mask: int, types: FrozenSet[str], fallback: bool
    ) -> None:
        """Record a classification; evicts the LRU entry when full."""
        self._entries[(epoch, mask)] = (types, fallback)
        self._entries.move_to_end((epoch, mask))
        while len(self._entries) > self._max:
            self._entries.popitem(last=False)
            self.evictions += 1

    def drop_before(self, epoch: int) -> int:
        """Eagerly drop entries from epochs before ``epoch``.

        Purely a memory optimisation — stale epochs can never be read
        again — used after a refresh to return the space immediately
        instead of waiting for LRU aging.  Returns the count dropped.
        """
        doomed = [key for key in self._entries if key[0] < epoch]
        for key in doomed:
            del self._entries[key]
        self.evictions += len(doomed)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        """JSON-friendly stats for the status endpoint."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
