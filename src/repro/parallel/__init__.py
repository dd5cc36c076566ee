"""Multi-process extraction across weakly-connected-component shards.

Public surface:

* :class:`ParallelExtractor` — the ``--jobs N`` front end;
* :class:`SharedWorkerPool` / :func:`resolve_jobs` — the worker
  pool (one per public call) and the ``--jobs auto`` resolver;
* :func:`parallel_stage1` / :func:`parallel_sweep` — the two
  fan-out phases, usable on their own;
* :func:`merge_shard_typings` / :func:`sharded_stage1` — the merge of
  per-shard bisimulation classes into the sequential Stage 1 result,
  and the in-process twin of :func:`parallel_stage1` built on it
  (used by the property tests).

See ``docs/PARALLELISM.md`` for the sharding model and the
determinism guarantees.
"""

from repro.parallel.extractor import (
    ParallelExtractor,
    parallel_stage1,
    parallel_sweep,
    resolve_jobs,
)
from repro.parallel.merge import merge_shard_typings, sharded_stage1
from repro.parallel.pool import SharedWorkerPool

__all__ = [
    "ParallelExtractor",
    "SharedWorkerPool",
    "merge_shard_typings",
    "parallel_stage1",
    "parallel_sweep",
    "resolve_jobs",
    "sharded_stage1",
]
