"""Integration tests for the persistent worker pool.

These spin up real pools (real ``ProcessPoolExecutor`` workers) and pin
the pool's contracts: pooled results are identical to the sequential
oracle, completed results survive a worker's death, and no worker
process outlives the pool — on normal exit, on SIGINT, or when a worker
is killed — while no ``/dev/shm`` segment is ever created.  The leak
checks look at this process's own children and segments only, so a
concurrent pool user cannot fail them.
"""

import multiprocessing
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
from repro.parallel.pool import SharedWorkerPool
from repro.parallel.worker import PooledStage1Task, run_pooled_stage1
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

    def test_pool_is_reused_across_phases(self, multi_db):
        perf = PerfRecorder()
        ParallelExtractor(multi_db, jobs=2, perf=perf).extract()
        counters = perf.to_dict()["counters"]
        # Stage 1 ran through the pool, then the sweep reused it.
        assert counters["parallel.pool_reuses"] >= 1
        # The database reaches the workers through the initializer;
        # only the tasks are pickled.
        assert counters["parallel.task_bytes"] > 0

    def test_no_segments_survive_extraction(self, multi_db):
        ParallelExtractor(multi_db, jobs=2).extract()
        assert multiprocessing.active_children() == []
        assert shm.leaked_system_segments(os.getpid()) == []


def _worker_pid(_task):
    return os.getpid()


class TestWorkerCap:
    def test_a_run_starts_no_more_workers_than_tasks(self, multi_db):
        """One task forks one worker, whatever ``jobs`` says; a later
        run with more tasks still gets up to ``jobs`` workers."""
        with SharedWorkerPool(jobs=4, db=multi_db) as pool:
            pool.run([0], _worker_pid)
            assert len(multiprocessing.active_children()) == 1
            pool.run(list(range(3)), _worker_pid)
            assert len(multiprocessing.active_children()) == 3
        assert multiprocessing.active_children() == []


def _kill_one_worker(tmp_path):
    """Arm the worker-death hook: the first task to unlink it dies."""
    flag = tmp_path / "kill-one-worker"
    flag.touch()
    return str(flag)


@pytest.mark.expect_fallback
class TestWorkerDeath:
    def test_completed_results_survive_a_killed_worker(
        self, multi_db, tmp_path
    ):
        """One worker dies hard mid-run; the pool respawns, loses no
        completed outcome and still returns every shard typing."""
        shards = partition_database(multi_db, 2)
        perf = PerfRecorder()
        chaos = _kill_one_worker(tmp_path)
        with SharedWorkerPool(
            jobs=2,
            db=multi_db,
            shard_objects=[s.objects for s in shards],
            perf=perf,
        ) as pool:
            tasks = [
                PooledStage1Task(index=i, chaos_kill_file=chaos)
                for i in range(len(shards))
            ]
            outcomes = pool.run(tasks, run_pooled_stage1)
        assert not os.path.exists(chaos)
        assert [o.index for o in outcomes] == list(range(len(shards)))
        assert perf.to_dict()["counters"]["parallel.pool_respawns"] >= 1
        # The merged result is still the sequential one.
        from repro.parallel import merge_shard_typings

        merged = merge_shard_typings(
            multi_db, [(o.representative, o.class_db) for o in outcomes]
        )
        assert merged == minimal_perfect_typing(multi_db)

    def test_killed_worker_leaks_no_segments(self, multi_db, tmp_path):
        shards = partition_database(multi_db, 2)
        chaos = _kill_one_worker(tmp_path)
        with SharedWorkerPool(
            jobs=2,
            db=multi_db,
            shard_objects=[s.objects for s in shards],
        ) as pool:
            pool.run(
                [
                    PooledStage1Task(index=i, chaos_kill_file=chaos)
                    for i in range(len(shards))
                ],
                run_pooled_stage1,
            )
        assert not os.path.exists(chaos)
        assert multiprocessing.active_children() == []
        assert shm.leaked_system_segments(os.getpid()) == []


_SIGINT_CHILD = textwrap.dedent(
    """
    import multiprocessing, os, sys, time

    from repro.core.perfect import local_rule
    from repro.graph.database import Database
    from repro.parallel import ParallelExtractor
    from repro.synth.datasets import make_dbg

    announced = False


    def slow_rule(db, obj):
        # In a pool worker: append this worker's pid to the file named
        # on the command line (one O_APPEND write), then slow Stage 1
        # down so the SIGINT lands while the pool is busy.
        global announced
        if multiprocessing.parent_process() is not None:
            if not announced:
                announced = True
                fd = os.open(
                    sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND
                )
                os.write(fd, f"{os.getpid()}\\n".encode())
                os.close(fd)
            time.sleep(0.002)
        return local_rule(db, obj)


    if __name__ == "__main__":
        db = Database()
        for index, seed in enumerate((7, 8)):
            part = make_dbg(seed=seed)
            for obj in part.objects():
                if part.is_atomic(obj):
                    db.add_atomic(f"c{index}_{obj}", part.value(obj))
                else:
                    db.add_complex(f"c{index}_{obj}")
            for edge in part.edges():
                db.add_link(
                    f"c{index}_{edge.src}", f"c{index}_{edge.dst}",
                    edge.label,
                )
        ParallelExtractor(db, jobs=2, local_rule_fn=slow_rule).extract(k=4)
    """
)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigint_leaves_no_system_segments(tmp_path):
    """A pooled extract SIGINT'd mid-Stage 1 leaves no worker process
    alive and no ``/dev/shm`` entry: KeyboardInterrupt unwinds through
    the pool's ``close()``, which joins every worker."""
    script = tmp_path / "sigint_child.py"
    script.write_text(_SIGINT_CHILD, encoding="utf-8")
    pids = tmp_path / "worker-pids"
    errors = tmp_path / "stderr.txt"
    with open(errors, "w", encoding="utf-8") as stderr:
        # Its own session, so the cleanup below can reach orphans too.
        child = subprocess.Popen(
            [sys.executable, str(script), str(pids)],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
    try:
        deadline = time.monotonic() + 60
        while not (pids.exists() and pids.read_text()):
            assert child.poll() is None, errors.read_text()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # A worker is inside its first Stage 1 task right now.
        child.send_signal(signal.SIGINT)
        child.wait(timeout=60)
        assert "KeyboardInterrupt" in errors.read_text()
        workers = [int(pid) for pid in pids.read_text().split()]
        assert workers and [pid for pid in workers if _alive(pid)] == []
        assert shm.leaked_system_segments(child.pid) == []
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


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
