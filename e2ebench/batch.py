"""dbg-extract and sharded-extract: sequential parse + extract ops.

The runner (this module) generates each op's input, samples the probe
between ops and hands the op to a host process (``host.py``), which
times it.  Set-up is measured in fresh host processes: each one's first
op, on a warm-up input, after imports.  The last of them goes on to
run the measured ops.  Outputs are checked against the reference
oracle's fingerprints after the timed part of the run.
"""

from __future__ import annotations

import subprocess
from typing import Any, Dict, List, Optional, Set, Tuple

import inputs
import layers
from common import (
    BENCH_DIR,
    REFERENCE_PROBE_MS,
    WORK,
    Probe,
    cpu_plan,
    median,
    percentile,
    receive,
    scaled,
    send,
    spawn,
    stop,
)
from oracle import expected
from report import Outcome

#: Fresh-process set-ups per run; set-up time is their median.
SETUPS = 3


class Host:
    """Runner-side handle of one ``host.py`` process."""

    def __init__(self, workload: str, token: str, cpus: Set[int],
                 spans: Optional[str]) -> None:
        args = [str(BENCH_DIR / "host.py"), "--workload", workload]
        if spans:
            args += ["--spans", spans]
        self.proc: Optional[subprocess.Popen] = spawn(
            args, token, cpus, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        receive(self.proc.stdout)  # {"ready": true}: imports are done

    def op(self, op_id: str, path: str) -> Dict[str, Any]:
        send(self.proc.stdin, {"cmd": "op", "op": op_id, "path": path})
        return receive(self.proc.stdout)

    def finish(self) -> Dict[str, Any]:
        send(self.proc.stdin, {"cmd": "exit"})
        final = receive(self.proc.stdout)
        self.proc.wait(timeout=60)
        self.close()
        return final

    def close(self) -> None:
        stop(self.proc)
        self.proc = None


def _text(workload: str, instance: int) -> str:
    if workload == "dbg-extract":
        return inputs.dbg_text(instance)
    return inputs.multi_component_text(instance)


def _write_input(workload: str, instance: int, token: str) -> str:
    path = WORK / f"{token}-input.oem"
    path.write_text(_text(workload, instance), encoding="utf-8")
    return str(path)


def run(workload: str, seed: int, seconds: float, trace: bool,
        token: str, clock) -> Outcome:
    cpus, _ = cpu_plan()
    if workload == "dbg-extract":
        cpus = {min(cpus)}  # a single-threaded op
    probe = Probe(token, cpus)
    hosts: List[Host] = []
    spans_path = str(WORK / f"{token}-spans.json") if trace else None
    # (instance, reply, probe before, probe after)
    ops: List[Tuple[int, Dict[str, Any], float, float]] = []
    setups: List[Tuple[int, Dict[str, Any], float, float]] = []
    try:
        for index in range(SETUPS):
            last = index == SETUPS - 1
            instance = inputs.warmup_seed(index)
            path = _write_input(workload, instance, token)
            host = Host(workload, token, cpus, spans_path if last else None)
            hosts.append(host)
            before = probe.sample()
            reply = host.op(f"setup{index}", path)
            setups.append((instance, reply, before, probe.sample()))
            if not last:
                host.close()
        host = hosts[-1]
        started = clock()
        index = 0
        while clock() - started < seconds:
            instance = inputs.instance_seed(seed, index)
            path = _write_input(workload, instance, token)
            before = probe.sample()
            reply = host.op(f"op{index}", path)
            ops.append((instance, reply, before, probe.sample()))
            index += 1
        measured_s = clock() - started
        final = host.finish()
    finally:
        for host in hosts:
            host.close()
        probe.close()

    oracle = expected(workload, [i for i, *_ in setups + ops])
    failures: List[str] = []
    failed = 0
    for instance, reply, _, _ in setups + ops:
        problems = list(reply["failures"])
        if reply["fingerprint"] != oracle.get(instance):
            problems.append(
                f"wrong answer: {reply['fingerprint']} != oracle "
                f"{oracle.get(instance)}"
            )
        failed += bool(problems)
        failures.extend(f"instance {instance}: {p}" for p in problems)

    setup_raw = [reply["ms"] / 1000.0 for _, reply, _, _ in setups]
    setup_scaled = [scaled(reply["ms"], b, a) / 1000.0
                    for _, reply, b, a in setups]
    op_raw = [reply["ms"] for _, reply, _, _ in ops]
    op_scaled = [scaled(reply["ms"], b, a) for _, reply, b, a in ops]
    probes = probe.samples

    out = Outcome(
        workload=workload,
        attempted=len(setups) + len(ops),
        failed=failed,
        failures=failures,
    )
    out.metric("setup_s", median(setup_scaled), "s", len(setup_scaled),
               "median of fresh-process first ops on warm-up inputs, "
               "probe-scaled; raw " + ", ".join(
                   f"{v:.3f}" for v in setup_raw))
    out.metric("peak_rss_mb", final["peak_rss_mb"], "MB", 1,
               "coordinator (host process) peak RSS")
    op_note = ("parse + extract (auto-k)" if workload == "dbg-extract"
               else "parse + extract -k 6 --jobs 2, cold pool")
    out.metric("op_p50_ms", median(op_scaled), "ms", len(op_scaled),
               f"{op_note}, probe-scaled; raw p50 "
               f"{median(op_raw):.1f} ms")
    out.tail("op", op_scaled, "ms")
    if workload == "sharded-extract":
        out.note("worker_rss_mb", final["worker_rss_mb"], "MB", 1,
                 "largest pool worker's peak RSS")
    out.note("probe_ms", median(probes), "ms", len(probes),
             f"reference probe p50 (p25 {percentile(probes, 25):.1f}, "
             f"p75 {percentile(probes, 75):.1f}); "
             f"reference {REFERENCE_PROBE_MS:g} ms")
    out.note("measured_s", measured_s, "s", len(ops),
             "wall time of the measured loop")
    if trace:
        traced = [reply for _, reply, _, _ in ops]
        layers.batch_report(out, traced, spans_path, final["span_cost"])
    return out
