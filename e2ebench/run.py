"""The benchmark's one command.

    python3 e2ebench/run.py --workload dbg-extract --seed 1 --seconds 30 \
        --trace 0

Runs one workload (``dbg-extract``, ``sharded-extract`` or
``service-mixed``) for ``--seconds`` of measured time, checks every
output, prints a report of every metric with its unit and sample
count, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, the per-layer metrics with ``--trace 1``).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import uuid
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    RUN_TOKEN_VAR,
    WORK,
    require_program,
    survivors,
)

WORKLOADS = ("dbg-extract", "sharded-extract", "service-mixed")


def _spec_names(key: str) -> List[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)[key]]


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the schema extractor.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    require_program()
    names = _spec_names("per_layer" if args.trace else "end_to_end")
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _interrupt)
    WORK.mkdir(parents=True, exist_ok=True)
    # Children inherit the token, so a leak scan can find every one; a
    # caller that set one (the tests) can scan for survivors itself.
    token = os.environ.get(RUN_TOKEN_VAR) or uuid.uuid4().hex[:12]
    os.environ[RUN_TOKEN_VAR] = token
    os.environ["TMPDIR"] = str(WORK)

    if args.workload == "service-mixed":
        import service as workload
    else:
        import batch as workload
    try:
        outcome = workload.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), token, time.perf_counter)
    finally:
        for leftover in WORK.glob(f"{token}-*"):
            leftover.unlink()
    left = survivors(token)
    if left:
        outcome.failed += 1
        outcome.failures.append(f"processes outlived the run: {left}")
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    print(outcome.render())
    print(outcome.result_line(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
