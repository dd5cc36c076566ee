"""The ``/dev/shm`` leak scan.

The pool ships its database through the executor's initializer and
creates no shared-memory segment; this scan is the check that it stays
that way.  Segment names the library ever used carry a
``repro_<pid>_`` prefix, so a leak is attributable to one process.
"""

from __future__ import annotations

import os
from typing import List, Optional

#: Prefix of every segment name this library creates (leak-scan key).
NAME_PREFIX = "repro_"


def leaked_system_segments(pid: Optional[int] = None) -> List[str]:
    """``/dev/shm`` entries with our prefix (optionally one pid's).

    The leak oracle for the tests: after a pool closes — or after a
    process exits, even via SIGINT — this must be empty for that pid.
    Returns ``[]`` on platforms without a visible ``/dev/shm``.
    """
    prefix = NAME_PREFIX if pid is None else f"{NAME_PREFIX}{pid}_"
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))
