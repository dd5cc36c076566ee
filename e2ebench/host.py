"""The batch-op host: one process that runs parse + extract ops.

Started by ``run.py`` for dbg-extract and sharded-extract.  Speaks
line-delimited JSON on stdin/stdout:

* ``{"cmd": "op", "op": id, "path": file}`` parses the OEM text in
  ``file`` and extracts it as the CLI would (``extract`` with auto-k,
  or ``extract -k 6 --jobs 2``), answering with the op's wall time,
  the output's fingerprint and any failure (exception, degraded
  result, a live child process or a leaked shared-memory segment);
* ``{"cmd": "exit"}`` answers with the process's peak RSS and the
  largest reaped child's peak RSS (the pool workers), writes the
  spans of a traced run to ``spans`` and exits.

The host exits on end of input too, so it cannot outlive the runner.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict

from common import receive, require_program, send

JOBS = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spans", default=None,
                        help="trace the layers and dump spans here")
    args = parser.parse_args()
    channel = sys.stdout
    sys.stdout = sys.stderr  # the program's prints must not hit the pipe
    require_program()

    from oracle import SHARDED_K, fingerprint
    from repro.core.pipeline import SchemaExtractor
    from repro.graph.oem import loads_oem
    from repro.parallel import ParallelExtractor
    from repro.parallel.shm import leaked_system_segments
    from repro.perf import PerfRecorder

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        # install() rebinds loads_oem at its import sites only.
        import repro.graph.oem as oem_module

        loads_oem = oem_module.loads_oem

    def run_op(message: Dict[str, Any]) -> Dict[str, Any]:
        with open(message["path"], encoding="utf-8") as handle:
            text = handle.read()
        perf = PerfRecorder() if tracer is not None else None
        op_token = tracer.set_op(message["op"]) if tracer else None
        failures = []
        fp = None
        start = time.perf_counter()
        try:
            db = loads_oem(text)
            if args.workload == "dbg-extract":
                result = SchemaExtractor(db, perf=perf).extract()
            else:
                result = ParallelExtractor(
                    db, jobs=JOBS, perf=perf
                ).extract(k=SHARDED_K)
            end = time.perf_counter()
        except Exception:  # noqa: BLE001 - a failed op, reported
            end = time.perf_counter()
            failures.append("exception: " + traceback.format_exc(limit=3))
            result = None
        finally:
            if op_token is not None:
                tracer.reset_op(op_token)
        if result is not None:
            fp = fingerprint(result)
            if result.is_partial:
                failures.append(f"degraded: {result.degradation.summary()}")
        children = multiprocessing.active_children()
        if children:
            failures.append(f"{len(children)} child process(es) alive")
        leaked = leaked_system_segments(os.getpid())
        if leaked:
            failures.append(f"leaked shm segments: {leaked}")
        reply = {
            "start": start, "end": end, "ms": (end - start) * 1000.0,
            "fingerprint": fp, "failures": failures,
        }
        if perf is not None:
            reply["perf"] = perf.to_dict()
        return reply

    send(channel, {"ready": True})
    while True:
        try:
            message = receive(sys.stdin)
        except EOFError:
            return 0
        if message["cmd"] == "op":
            send(channel, run_op(message))
            continue
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        final = {"peak_rss_mb": own / 1024.0, "worker_rss_mb": kids / 1024.0}
        if tracer is not None:
            tracer.dump(args.spans)
            final["span_cost"] = tracing.span_cost()
        send(channel, final)
        return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
