"""Reference fingerprints for the batch workloads' outputs.

The reference oracle is the paper-faithful configuration: frozenset
rule bodies (no link-space bitsets, no matrix kernel, no recast memo)
and one process.  A fingerprint covers the chosen k, the defect, the
program text and a digest of the object-to-types assignment.

Fingerprints are recorded per instance seed in ``fingerprints.json``
next to this file; a seed without a record is recomputed (untimed,
after the measured period) and kept in the checkout's scratch cache.

Run as a script to compute fingerprints::

    python3 e2ebench/oracle.py --workload dbg-extract --instances 0-9
    python3 e2ebench/oracle.py --workload dbg-extract --instances 0-299 \
        --record    # merge into fingerprints.json (two worker processes)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, Iterable, List

from common import BENCH_DIR, RUN_TOKEN_VAR, WORK, require_program, spawn, stop

RECORDS = BENCH_DIR / "fingerprints.json"
CACHE = WORK / "oracle-cache.json"

#: The pinned k of sharded-extract (as ``extract -k 6``).
SHARDED_K = 6


def fingerprint(result) -> str:
    """``k=.. defect=.. program=<sha> assignment=<sha>`` of a result."""
    from repro.core.notation import format_program

    assignment = hashlib.sha256()
    for obj in sorted(result.assignment):
        types = ",".join(sorted(result.assignment[obj]))
        assignment.update(f"{obj}\t{types}\n".encode())
    program = hashlib.sha256(format_program(result.program).encode())
    return (
        f"k={result.chosen_k} defect={result.defect.total} "
        f"program={program.hexdigest()[:16]} "
        f"assignment={assignment.hexdigest()[:16]}"
    )


def reference(workload: str, instance: int) -> str:
    """The oracle fingerprint of one instance (sequential, frozensets)."""
    require_program()
    import inputs
    from repro.core.pipeline import SchemaExtractor
    from repro.graph.oem import loads_oem

    if workload == "dbg-extract":
        text, k = inputs.dbg_text(instance), None
    else:
        text, k = inputs.multi_component_text(instance), SHARDED_K
    extractor = SchemaExtractor(
        loads_oem(text), use_bitset=False, use_matrix=False,
        recast_memo=False,
    )
    return fingerprint(extractor.extract(k=k))


def _load(path) -> Dict[str, Dict[str, str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def expected(workload: str, instances: Iterable[int]) -> Dict[int, str]:
    """Fingerprints for ``instances``: recorded, cached or recomputed.

    Recomputation runs in a child process with at most two workers, and
    only after the timed part of a run is over.
    """
    wanted = sorted(set(instances))
    found: Dict[int, str] = {}
    for source in (_load(RECORDS), _load(CACHE)):
        table = source.get(workload, {})
        for instance in wanted:
            if instance not in found and str(instance) in table:
                found[instance] = table[str(instance)]
    missing = [i for i in wanted if i not in found]
    if missing:
        computed = _compute_in_child(workload, missing)
        found.update(computed)
        cache = _load(CACHE)
        cache.setdefault(workload, {}).update(
            {str(i): fp for i, fp in computed.items()}
        )
        WORK.mkdir(parents=True, exist_ok=True)
        with open(CACHE, "w", encoding="utf-8") as handle:
            json.dump(cache, handle, indent=0, sort_keys=True)
    return found


def _compute_in_child(workload: str, instances: List[int]) -> Dict[int, str]:
    """Run this script in a child, so its pool dies with it.

    The child watches the read end of a pipe whose only write end this
    process holds; when that end closes (this process is done, or was
    killed) the child kills its own process group, pool included.
    """
    watch, keep = os.pipe()
    try:
        proc = spawn(
            [str(BENCH_DIR / "oracle.py"), "--workload", workload,
             "--instances", ",".join(map(str, instances)),
             "--watch-fd", str(watch)],
            os.environ.get(RUN_TOKEN_VAR, ""), stdout=subprocess.PIPE,
            pass_fds=(watch,),
        )
    finally:
        os.close(watch)
    try:
        out, _ = proc.communicate(timeout=900)
    finally:
        os.close(keep)
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"oracle exited with {proc.returncode}")
    return {int(i): fp for i, fp in json.loads(out).items()}


def _exit_with_parent(fd: int) -> None:
    """Kill this process's group once the other end of ``fd`` closes."""
    while os.read(fd, 1):
        pass
    os.killpg(0, signal.SIGKILL)


def compute(workload: str, instances: List[int]) -> Dict[int, str]:
    if len(instances) == 1:
        return {instances[0]: reference(workload, instances[0])}
    with ProcessPoolExecutor(
        max_workers=2, mp_context=get_context("spawn")
    ) as pool:
        results = pool.map(
            reference, [workload] * len(instances), instances
        )
        return dict(zip(instances, results))


def _parse_range(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dbg-extract", "sharded-extract"))
    parser.add_argument("--instances", required=True, type=_parse_range,
                        help="e.g. 0-239,1000000-1000002")
    parser.add_argument("--record", action="store_true",
                        help="merge the results into fingerprints.json")
    parser.add_argument("--watch-fd", type=int, default=None,
                        help=argparse.SUPPRESS)  # see _compute_in_child
    args = parser.parse_args(argv)
    if args.watch_fd is not None:
        threading.Thread(target=_exit_with_parent, args=(args.watch_fd,),
                         daemon=True).start()
    require_program()
    results = compute(args.workload, args.instances)
    if args.record:
        records = _load(RECORDS)
        records.setdefault(args.workload, {}).update(
            {str(i): fp for i, fp in sorted(results.items())}
        )
        with open(RECORDS, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=0, sort_keys=True)
            handle.write("\n")
    else:
        json.dump({str(i): fp for i, fp in results.items()}, sys.stdout)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
