"""Multi-process extraction across weakly-connected-component shards.

Public surface:

* :class:`ParallelExtractor` — the ``--jobs N`` front end;
* :class:`SharedWorkerPool` / :func:`resolve_jobs` — the worker
  pool (one per public call) and the ``--jobs auto`` resolver;
* :func:`parallel_stage1` / :func:`parallel_sweep` — the two
  fan-out phases, usable on their own;
* :func:`merge_shard_typings` / :func:`sharded_stage1` /
  :func:`restricted_reconcile` — the in-process reconciliation
  primitives (used by the property tests; ``restricted_reconcile``
  is the in-process twin of the pooled distributed reconcile).

See ``docs/PARALLELISM.md`` for the sharding model and the
determinism guarantees.
"""

from repro.parallel.extractor import (
    ParallelExtractor,
    parallel_stage1,
    parallel_sweep,
    resolve_jobs,
)
from repro.parallel.merge import (
    merge_shard_typings,
    restricted_reconcile,
    sharded_stage1,
)
from repro.parallel.pool import SharedWorkerPool

__all__ = [
    "ParallelExtractor",
    "SharedWorkerPool",
    "merge_shard_typings",
    "parallel_stage1",
    "parallel_sweep",
    "resolve_jobs",
    "restricted_reconcile",
    "sharded_stage1",
]
