"""Integration tests for the persistent shared-memory worker pool.

These spin up real pools (real ``ProcessPoolExecutor`` workers, real
``/dev/shm`` segments) and pin the PR's contracts: pooled results are
identical to the legacy spawn-per-call path and to the sequential
oracle, completed results survive a worker's death, and no shared
segment outlives its owner — on normal exit, on SIGINT, or when a
worker is killed.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.pipeline import SchemaExtractor
from repro.core.perfect import minimal_perfect_typing
from repro.graph.database import Database
from repro.graph.partition import partition_database
from repro.parallel import ParallelExtractor, resolve_jobs
from repro.parallel import shm
from repro.parallel.pool import (
    PooledStage1Task,
    SharedWorkerPool,
    run_pooled_stage1,
)
from repro.perf import PerfRecorder
from repro.synth.datasets import make_dbg


def _union(dbs):
    out = Database()
    for index, db in enumerate(dbs):
        prefix = f"c{index}_"
        for obj in db.objects():
            if db.is_atomic(obj):
                out.add_atomic(prefix + obj, db.value(obj))
            else:
                out.add_complex(prefix + obj)
        for edge in db.edges():
            out.add_link(prefix + edge.src, prefix + edge.dst, edge.label)
    return out


@pytest.fixture(scope="module")
def multi_db():
    return _union([make_dbg(seed=s) for s in (21, 22, 23)])


def _result_fingerprint(result):
    return (
        sorted(result.program.rules(), key=lambda r: r.name),
        result.assignment,
        result.defect.total,
        result.chosen_k,
    )


class TestPooledEquivalence:
    def test_pooled_extract_matches_sequential(self, multi_db):
        sequential = SchemaExtractor(multi_db).extract()
        pooled = ParallelExtractor(multi_db, jobs=2).extract()
        assert _result_fingerprint(pooled) == _result_fingerprint(sequential)

    def test_pooled_matches_legacy_spawn_per_call(self, multi_db):
        legacy = ParallelExtractor(
            multi_db, jobs=2, use_shared_pool=False
        ).extract()
        pooled = ParallelExtractor(multi_db, jobs=2).extract()
        assert _result_fingerprint(pooled) == _result_fingerprint(legacy)

    def test_pool_is_reused_across_phases(self, multi_db):
        perf = PerfRecorder()
        ParallelExtractor(multi_db, jobs=2, perf=perf).extract()
        counters = perf.to_dict()["counters"]
        # Stage 1 ran through the pool, then the sweep reused it.
        assert counters["parallel.pool_reuses"] >= 1
        assert counters["parallel.payload_bytes"] > 0
        # Tasks are (index, params) — orders of magnitude below the
        # payload that now ships only once.
        assert 0 < counters["parallel.task_bytes"] < (
            counters["parallel.payload_bytes"]
        )

    def test_no_segments_survive_extraction(self, multi_db):
        ParallelExtractor(multi_db, jobs=2).extract()
        assert shm.active_segment_names() == []
        assert shm.leaked_system_segments(os.getpid()) == []


@pytest.mark.expect_fallback
class TestWorkerDeath:
    def test_completed_results_survive_a_killed_worker(self, multi_db):
        """One worker dies hard mid-run; the pool respawns, loses no
        completed outcome and still returns every shard typing."""
        shards = partition_database(multi_db, 2)
        perf = PerfRecorder()
        chaos = shm.SharedPayload.create(b"\x01")
        try:
            with SharedWorkerPool(
                jobs=2,
                db=multi_db,
                shard_objects=[s.objects for s in shards],
                perf=perf,
            ) as pool:
                tasks = [
                    PooledStage1Task(
                        index=i, chaos_kill_segment=chaos.name
                    )
                    for i in range(len(shards))
                ]
                outcomes = pool.run(tasks, run_pooled_stage1)
        finally:
            chaos.unlink()
        assert [o.index for o in outcomes] == list(range(len(shards)))
        assert perf.to_dict()["counters"]["parallel.pool_respawns"] >= 1
        # The merged result is still the sequential one.
        from repro.parallel import merge_shard_typings

        merged = merge_shard_typings(
            multi_db, [o.typing for o in outcomes]
        )
        oracle = minimal_perfect_typing(multi_db)
        assert merged.extents == oracle.extents

    def test_killed_worker_leaks_no_segments(self, multi_db):
        shards = partition_database(multi_db, 2)
        chaos = shm.SharedPayload.create(b"\x01")
        try:
            with SharedWorkerPool(
                jobs=2,
                db=multi_db,
                shard_objects=[s.objects for s in shards],
            ) as pool:
                pool.run(
                    [
                        PooledStage1Task(
                            index=i, chaos_kill_segment=chaos.name
                        )
                        for i in range(len(shards))
                    ],
                    run_pooled_stage1,
                )
        finally:
            chaos.unlink()
        assert shm.active_segment_names() == []
        assert shm.leaked_system_segments(os.getpid()) == []


_SIGINT_CHILD = textwrap.dedent(
    """
    import sys, time

    from repro.parallel.pool import SharedWorkerPool
    from repro.synth.datasets import make_dbg

    db = make_dbg(seed=7)
    pool = SharedWorkerPool(jobs=2, db=db)
    pool.publish("extra", b"x" * 4096)
    print("READY", flush=True)
    time.sleep(30)
    """
)


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no visible /dev/shm"
)
def test_sigint_leaves_no_system_segments(tmp_path):
    """A SIGINT'd process must not leave ``/dev/shm`` entries behind:
    KeyboardInterrupt unwinds into the atexit backstop, which unlinks
    every segment the process still owns."""
    script = tmp_path / "sigint_child.py"
    script.write_text(_SIGINT_CHILD, encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        assert line.strip() == "READY"
        # The pool owns live segments right now.
        assert shm.leaked_system_segments(child.pid)
        child.send_signal(signal.SIGINT)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if not shm.leaked_system_segments(child.pid):
            break
        time.sleep(0.1)
    assert shm.leaked_system_segments(child.pid) == []


class TestResolveJobs:
    def test_auto_is_cpu_count(self):
        assert resolve_jobs("auto") == max(1, os.cpu_count() or 1)

    def test_ints_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(8) == 8

    def test_bad_values_are_rejected(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            resolve_jobs(0)
        with pytest.raises(ReproError):
            resolve_jobs("many")
        with pytest.raises(ReproError):
            resolve_jobs(True)
