"""Plumbing shared by the benchmark's processes.

Paths, the import guard that ties the benchmark to the checkout's own
``src/`` tree, the percentile and tail helpers, the reference probe
client and the start/stop discipline for child processes.  Nothing
here imports the program under test.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for one checkout (inputs, span dumps, the oracle
#: cache).  Listed in the root ``.gitignore``.
WORK = ROOT / ".e2ebench-work"

#: Every process the benchmark starts carries this variable, so a leak
#: check can find survivors by scanning ``/proc/*/environ``.
RUN_TOKEN_VAR = "E2EBENCH_RUN_TOKEN"

#: Probe time (ms) that defines the reference machine speed.  Timing
#: metrics are reported as ``raw * REFERENCE_PROBE_MS / probe``, where
#: ``probe`` is the mean of the probe samples taken just before and
#: just after the op on the CPUs it runs on: the op's time in probe
#: loops, times 25 ms.  The probe's reading does not depend on the
#: program (no shared code, and CPU time leaves out waits behind the
#: program on the probe's CPU), so a change to the program moves the
#: scaled time in full.  Fixed once; changing it rescales every run.
REFERENCE_PROBE_MS = 25.0

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.  All lie above the
#: median, so a tail never repeats the p50 under another name.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def require_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit 2.

    The benchmark measures the program in the checkout it sits in and
    nothing else: without ``src/repro`` (or if ``repro`` resolves to
    some other copy) it stops before printing a result.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"error: no program source at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        print(
            f"error: repro resolves to {repro.__file__}, not {package}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def child_env(token: str) -> Dict[str, str]:
    """Environment for a child: the checkout's ``src/`` and the token."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env[RUN_TOKEN_VAR] = token
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK)
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile.

    Computed in tenths of a percent, so 99.9 of 10000 is exactly 10.
    """
    return count * (1000 - round(pct * 10)) / 1000.0


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` of the highest supported tail, or ``None``.

    A percentile is supported when at least :data:`TAIL_MIN_BEYOND`
    samples lie beyond it; a run too short for any rung of
    :data:`TAIL_LADDER` has no tail.
    """
    for pct in TAIL_LADDER:
        if samples_beyond(len(values), pct) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# Line-delimited JSON between processes
# ---------------------------------------------------------------------------


def send(stream: IO[str], message: Dict[str, Any]) -> None:
    stream.write(json.dumps(message) + "\n")
    stream.flush()


def receive(stream: IO[str]) -> Dict[str, Any]:
    line = stream.readline()
    if not line:
        raise EOFError("peer closed its pipe")
    return json.loads(line)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def spawn(args: List[str], token: str, cpus: Optional[Set[int]] = None,
          **kwargs: Any) -> subprocess.Popen:
    """Start a Python child of the benchmark in its own session.

    Its own session (and process group) lets :func:`stop` signal the
    child together with every process it forks, such as pool workers.
    With ``cpus``, the child (and what it forks later) runs only there.
    """
    proc = subprocess.Popen(
        [sys.executable] + args,
        env=child_env(token),
        cwd=str(ROOT),
        start_new_session=True,
        text=True,
        **kwargs,
    )
    if cpus:
        pin(proc.pid, cpus)
    return proc


def cpu_plan() -> Tuple[Set[int], Set[int]]:
    """``(op_cpus, client_cpus)`` out of the CPUs this process may use.

    Ops get the first two (a pool of two workers needs both; a
    single-threaded op takes the first of them).  The service client
    gets the CPUs beyond those, or the second one on a 2-CPU box.
    """
    allowed = sorted(os.sched_getaffinity(0))
    ops = set(allowed[:2])
    return ops, set(allowed[2:]) or set(allowed[1:]) or ops


def pin(pid: int, cpus: Set[int]) -> None:
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:  # not permitted here: run unpinned
        pass


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def stop(proc: Optional[subprocess.Popen], timeout: float = 15.0) -> None:
    """Close the child's input, then SIGINT its group, then SIGKILL.

    Children that read commands from stdin exit by themselves at end of
    input; a child that does not is interrupted, and whatever is left
    of its process group after ``timeout`` is killed.  Always reaps the
    child, so no zombie outlives the caller.
    """
    if proc is None:
        return
    if proc.stdin is not None:
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        _signal_group(proc, signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    # Reap stragglers in the group (forked workers of a dead child).
    _signal_group(proc, signal.SIGKILL)
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def survivors(token: str, grace: float = 5.0) -> List[str]:
    """Live processes (other than this one) carrying ``token``.

    Killed processes take a moment to disappear, so the scan repeats
    for up to ``grace`` seconds before reporting ``pid: command``.
    """
    deadline = time.monotonic() + grace
    while True:
        found = _scan(token)
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.1)


def _scan(token: str) -> List[str]:
    found = []
    needle = f"{RUN_TOKEN_VAR}={token}".encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read()
            with open(f"/proc/{entry}/stat", "rb") as handle:
                state = handle.read().rsplit(b")", 1)[1].split()[0]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if needle in environ.split(b"\0") and state != b"Z":
            found.append(f"{entry}: {command.strip()[:120]}")
    return found


class Probe:
    """The reference probe: a fixed pure-Python loop per CPU.

    One long-lived probe process is pinned to each CPU the timed ops
    run on.  :meth:`sample` runs the loop once on every one of them at
    the same time and returns the mean CPU time in ms.  The box's slow
    and fast phases are per CPU, so a sample taken on the op's own CPUs
    just before and just after an op tracks the speed the op ran at
    (see the README's drift section); CPU time leaves out any wait
    behind the program on the same CPU.
    """

    def __init__(self, token: str, cpus: Set[int]) -> None:
        self._procs = [
            spawn([str(BENCH_DIR / "probe.py")], token, cpus={cpu},
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for cpu in sorted(cpus)
        ]
        self.samples: List[float] = []
        self.sample()  # the first loop warms the processes; keep it out
        self.samples.clear()

    def sample(self) -> float:
        for proc in self._procs:
            send(proc.stdin, {"cmd": "run"})
        readings = [receive(proc.stdout)["ms"] for proc in self._procs]
        self.samples.append(sum(readings) / len(readings))
        return self.samples[-1]

    def close(self) -> None:
        for proc in self._procs:
            stop(proc)


def scaled(ms: float, before: float, after: float) -> float:
    """``ms`` at the reference speed, by the probe samples around it."""
    return ms * REFERENCE_PROBE_MS / ((before + after) / 2.0)
