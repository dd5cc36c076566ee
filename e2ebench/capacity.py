"""Closed-loop service times of the service-mixed daemon.

    python3 e2ebench/capacity.py --seed 1 --count 200 --writes 60

Starts the daemon as service-mixed does (``serve --jobs 1`` on
dbg-1998, pinned to one CPU, the client on the other) and sends one
request at a time, each as soon as the previous one is answered:
``--count`` lookups, then one classify of each complex object's body
(distinct bodies, so ``MaskCache`` mostly misses, as most of
service-mixed's classifies do), then
``--writes`` mutate batches from service-mixed's request plan.  Prints
each route's median and mean service time (send to answer) and the
reference probe reading.  ``service.py`` derives its offered load from these figures
(README, "Offered load").  Nothing is checked here; run it from the
repository root.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
import uuid
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    RUN_TOKEN_VAR,
    WORK,
    Probe,
    cpu_plan,
    median,
    pin,
    require_program,
    survivors,
)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--writes", type=int, default=60)
    args = parser.parse_args(argv)
    require_program()
    import inputs
    import service
    from repro.graph.oem import loads_oem

    token = uuid.uuid4().hex[:12]
    os.environ[RUN_TOKEN_VAR] = token
    WORK.mkdir(parents=True, exist_ok=True)
    op_cpus, client_cpus = cpu_plan()
    daemon_cpus = {min(op_cpus)}
    pin(0, client_cpus)
    text = inputs.dbg_text(service.DATASET_SEED)
    data_path = WORK / f"{token}-data.oem"
    data_path.write_text(text, encoding="utf-8")
    db = loads_oem(text)
    rng = random.Random(args.seed)
    objects = sorted(db.complex_objects())
    bodies = service.classify_bodies(db, rng, len(objects))
    batches = service.mutation_batches(db, rng, args.writes)
    probe = Probe(token, daemon_cpus)
    daemon = None
    timings = {}
    try:
        daemon = service.Daemon(str(data_path), token, daemon_cpus)
        requests = {
            "lookup": [("GET", f"/lookup/{rng.choice(objects)}", None)
                       for _ in range(args.count)],
            "classify": [("POST", "/classify", {"links": body})
                         for body in bodies],
            "mutate": [("POST", "/mutate", {"ops": batch})
                       for batch in batches],
        }
        for route, plan in requests.items():
            probe.sample()
            times = []
            for method, path, body in plan:
                sent = time.perf_counter()
                status, answer = service.call(daemon.address, method, path,
                                              body)
                times.append(1000.0 * (time.perf_counter() - sent))
                if status != 200 or (route == "mutate" and answer["stale"]):
                    raise RuntimeError(f"{route}: HTTP {status} {answer}")
            timings[route] = times
            probe.sample()
        failure = daemon.shutdown()
        if failure:
            raise RuntimeError(failure)
    finally:
        if daemon is not None:
            daemon.close()
        probe.close()
        data_path.unlink()
    for route, times in timings.items():
        print(f"{route:<9} n={len(times):<5} p50 {median(times):8.2f} ms  "
              f"mean {sum(times) / len(times):8.2f} ms")
    print(f"probe     n={len(probe.samples):<5} p50 "
          f"{median(probe.samples):8.2f} ms")
    left = survivors(token)
    if left:
        print(f"processes outlived the run: {left}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
