"""The reference probe process (see ``common.Probe``).

Reads ``{"cmd": "run"}`` lines on stdin, runs one fixed pure-Python
loop per line and answers ``{"ms": <CPU time>}``.  The loop mixes the
operations the extractor's hot paths are made of (dict and frozenset
traffic, integer bit masks, small sorts, calls) but shares no code
with the program, so a change to the program cannot move it.

The loop is timed by the thread's CPU time, not by wall time.  In the
box's slow phases CPU time stretches as wall time does, so the reading
still tracks the CPU's speed; but time the probe spends waiting while
another process (the daemon serving requests, say) runs on its CPU is
left out, so the program's own load cannot move the reading either.
Exits on end of input, which also happens when the benchmark dies.
"""

import json
import sys
import time

ROUNDS = 12000


def _mix(index: int, table: dict) -> int:
    key = index % 613
    body = frozenset((key, index & 63, (index >> 3) & 31))
    table[body] = table.get(body, 0) + 1
    mask = (1 << (index & 127)) | (1 << (key & 127))
    return bin(mask & ~index).count("1") + len(sorted(body))


def run_once() -> float:
    started = time.thread_time()
    table: dict = {}
    total = 0
    for index in range(ROUNDS):
        total += _mix(index, table)
    if total < 0:  # keeps the result live
        print(total)
    return (time.thread_time() - started) * 1000.0


def main() -> None:
    for line in sys.stdin:
        if json.loads(line).get("cmd") != "run":
            break
        sys.stdout.write(json.dumps({"ms": run_once()}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    try:
        main()
    except KeyboardInterrupt:
        sys.exit(130)
