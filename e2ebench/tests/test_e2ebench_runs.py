"""Whole-run tests of the benchmark command (tens of seconds each).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from common import ROOT, RUN_TOKEN_VAR, WORK, survivors  # noqa: E402
from oracle import CACHE  # noqa: E402

RUN = [sys.executable, str(ROOT / "e2ebench" / "run.py")]


def _start(args, token):
    env = dict(os.environ, **{RUN_TOKEN_VAR: token})
    return subprocess.Popen(RUN + args, cwd=str(ROOT), env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_wrong_fingerprint_counts_as_a_failed_op():
    seed = 987_654  # far outside the recorded seeds
    saved = CACHE.read_text() if CACHE.exists() else None
    WORK.mkdir(parents=True, exist_ok=True)
    cache = json.loads(saved) if saved else {}
    cache.setdefault("dbg-extract", {})[str(seed)] = "k=0 defect=0 wrong"
    CACHE.write_text(json.dumps(cache))
    try:
        proc = _start(["--workload", "dbg-extract", "--seed", str(seed),
                       "--seconds", "1"], uuid.uuid4().hex)
        out, err = proc.communicate(timeout=300)
    finally:
        if saved is None:
            CACHE.unlink()
        else:
            CACHE.write_text(saved)
    assert proc.returncode == 0, err
    result = _result(out)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 4
    assert "wrong answer" in out


def _kill_midway(workload, signum, after):
    token = uuid.uuid4().hex
    proc = _start(["--workload", workload, "--seed", "3", "--seconds", "60"],
                  token)
    try:
        time.sleep(after)
        assert proc.poll() is None, proc.communicate()
        assert survivors(token, grace=0.0), "nothing was running"
        proc.send_signal(signum)
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert survivors(token, grace=60.0) == []


def test_sigkilled_client_leaves_no_process_during_sharded_ops():
    before = set(os.listdir("/dev/shm"))
    _kill_midway("sharded-extract", signal.SIGKILL, after=20.0)
    leaked = [name for name in set(os.listdir("/dev/shm")) - before
              if name.startswith("repro_")]
    assert leaked == []


def test_sigterm_client_stops_the_daemon():
    _kill_midway("service-mixed", signal.SIGTERM, after=20.0)


def test_sigkilled_client_leaves_no_oracle_pool():
    # Unrecorded instances make the run recompute their fingerprints in
    # an oracle child with a pool of two; kill the client meanwhile.
    seed = random.randrange(3_000_000, 4_000_000)
    token = uuid.uuid4().hex
    proc = _start(["--workload", "dbg-extract", "--seed", str(seed),
                   "--seconds", "8"], token)
    try:
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            running = survivors(token, grace=0.0)
            if (any("oracle.py" in p for p in running)
                    and any("multiprocessing" in p for p in running)):
                break
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.05)
        else:
            raise AssertionError("the oracle pool never started")
        proc.kill()
        proc.wait(timeout=60)
        # Well before the oracle could finish on its own (and without
        # reading the client's pipes, which a survivor would hold open).
        left = survivors(token, grace=2.0)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    assert left == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "dbg-extract",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
