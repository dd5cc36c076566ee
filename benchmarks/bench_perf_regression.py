"""Performance-regression harness for the instrumented pipeline.

Runs the full Stage 1 -> 3 extraction over the synthetic scalability
suite (the ``make_scaled`` specs of :mod:`benchmarks.bench_scalability`)
with a live :class:`repro.perf.PerfRecorder`, and writes the engine's
key work metrics to ``benchmarks/results/BENCH_pipeline.json``:

* the worklist GFP (:func:`repro.core.fixpoint.greatest_fixpoint`)
  against the naive top-down oracle
  (:func:`repro.core.fixpoint.greatest_fixpoint_naive`) on the same
  program — the gate asserts identical extents and a median wall-time
  speedup of at least :data:`MIN_GFP_SPEEDUP`; the worklist's
  ``gfp.satisfaction_checks`` and ``gfp.object_checks`` are recorded
  as counts (they do not depend on ``PYTHONHASHSEED``);
* Stage 2 merge steps and row scans (full rescans of a type's
  cheapest absorber);
* wall-clock per stage (from the recorder's spans);
* a parallel-vs-sequential pipeline comparison on a multi-component
  spec — the gate is **extent equality** between ``jobs=1`` and
  ``jobs=N`` (wall-clock and speedup are recorded but never asserted
  on the small scenario);
* a pooled-vs-sequential Stage 1 comparison on the 10^5-object
  multi-component workload (standalone/CI only) — the gate **asserts**
  ``speedup > MIN_PARALLEL_SPEEDUP``: the sequential whole-database
  fixpoint runs under a ``LARGE_SEQ_CAP_FACTOR x parallel_wall``
  budget, so exhausting it proves the speedup lower bound without an
  unbounded run (see :func:`compare_parallel_large`); the pooled result
  must also equal ``minimal_perfect_typing`` in every field;
* a bitset-vs-set manhattan-kernel comparison on DBG — the gates are
  program/extent/defect equality between ``use_bitset=True`` and the
  frozenset oracle path, identical auto-k sweep points on both paths,
  the auto-k Stage 2 (replayed from the sweep's merge trace) equal to
  ``run_to`` at the knee, plus a **checks-based cost proxy**: over the
  Stage 1 all-pairs candidate round, the set path touches
  ``sum(|body_i| + |body_j|)`` link hashes while the kernel touches
  ``num_pairs * ceil(dimension / 64)`` machine words, and the proxy
  reduction must clear :data:`MIN_KERNEL_REDUCTION` (wall seconds and
  the ``merge.manhattan_evals`` / ``recast.cover_checks`` /
  ``linkspace.*`` counters are recorded but never asserted as timings);
* an incremental-vs-rebuild comparison on the DBG pipeline graph — a
  deterministic 1% edit batch is maintained by
  :class:`repro.core.delta.Stage1Maintainer` and gated on extent
  equality with the from-scratch oracle and on
  ``delta.objects_visited`` <= 20% of ``num_complex`` (wall-clock
  speedup is recorded but never asserted);
* the same comparison at a size where the differential engine wins on
  wall time: chained three-edit batches on ``make_scaled(1000)``,
  gated on extent and home-type equality after every batch, with the
  median wall of each side recorded but never asserted;
* the production auto-k ``SchemaExtractor(db).extract()`` on
  ``make_large_multi_component(N)`` (standalone/CI only, ``N`` from
  ``--large-objects``): its wall time and the process's peak RSS
  without a recorder, then the ``pipeline.stage1`` / ``sweep`` /
  ``stage2`` / ``stage3`` split with one; the gate is identity with
  the same extract with Stage 1's bisimulation classes withheld (the
  identity partition), and no time is asserted
  (:func:`extract_large`).

Every standalone run also appends one record per git commit to
``benchmarks/results/BENCH_trajectory.jsonl`` (a record for the same
commit is replaced), so the figures build a trajectory instead of
overwriting the last run.

The file doubles as a CI smoke test: it is runnable standalone
(``python benchmarks/bench_perf_regression.py --sizes 100``) and under
plain pytest without the pytest-benchmark plugin.  Failures mean a
correctness or instrumentation regression, never a timing blip — the
two wall-clock assertions have wide margins: the GFP speedup bar sits
at 3x against measured 7-13x, and the large pooled-vs-sequential
speedup runs only standalone, against a capped sequential baseline.

See ``docs/PERFORMANCE.md`` for how to read the emitted JSON.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.clustering import GreedyMerger
from repro.core.delta import Stage1Maintainer
from repro.core.fixpoint import greatest_fixpoint, greatest_fixpoint_naive
from repro.core.linkspace import LinkSpace
from repro.core.perfect import build_object_program, minimal_perfect_typing
from repro.core.pipeline import SchemaExtractor
from repro.parallel import ParallelExtractor
from repro.exceptions import BudgetExceededError
from repro.perf import PerfRecorder
from repro.runtime.budget import Budget
from repro.synth.datasets import make_dbg

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from bench_scalability import (  # noqa: E402
    make_large_multi_component,
    make_multi_component,
    make_scaled,
)

RESULTS_PATH = (
    pathlib.Path(__file__).resolve().parent / "results" / "BENCH_pipeline.json"
)
TRAJECTORY_PATH = RESULTS_PATH.with_name("BENCH_trajectory.jsonl")

#: Minimum wall-time speedup of the worklist GFP over the naive
#: top-down oracle on ``Q_D`` of ``make_scaled(n)`` (medians of
#: :data:`GFP_TIMING_RUNS` runs each).  Measured on a 2-vCPU box: 7.3-10.5x
#: at 100 objects over four runs, 13.1x at 400.  A rescan of whole
#: extents also clears this bar, so the tier-1 chain test pins the
#: dirty tracking itself.
MIN_GFP_SPEEDUP = 3.0
GFP_TIMING_RUNS = 3

#: Minimum reduction in the checks-based manhattan cost proxy the bitset
#: kernel must deliver over the frozenset path on DBG: per body pair the
#: set path hashes ``|body_i| + |body_j|`` links to form the symmetric
#: difference, the kernel xors ``ceil(dimension / 64)`` machine words.
#: The acceptance bar is 30%; measured headroom on DBG is ~67%.
MIN_KERNEL_REDUCTION = 0.30

#: Maximum fraction of complex objects the differential engine may
#: visit while maintaining the deterministic 1% edit batch on DBG (the
#: PR's acceptance bar is 20%; the pinned batch measures ~11%).
MAX_DELTA_VISITED_FRACTION = 0.20

#: RNG seed pinning the DBG edit batch.  The visited fraction depends
#: on *which* edges a random batch touches (weakening a widely-shared
#: rule legitimately ripples further), so the gate runs a fixed,
#: representative batch rather than a fresh draw per CI run.
DELTA_EDIT_SEED = 26

#: Size, batch count and batch length of the wall-time entry for the
#: differential Stage 1 (:func:`compare_incremental_refresh_scaled`).
SCALED_REFRESH_OBJECTS = 1000
SCALED_REFRESH_BATCHES = 6
SCALED_REFRESH_EDITS = 3

#: Minimum Stage 1 speedup of the pooled sharded path over the
#: whole-database sequential fixpoint on the large multi-component
#: workload.  Asserted (the suite's second wall-clock assertion, and
#: the only one involving multiprocessing) because the advantage is
#: *algorithmic*, not core-count: the whole-database GFP mixes the
#: signature frontiers of every component superlinearly, while the
#: sharded path runs Stage 1 on the bisimulation classes — measured
#: headroom on the 10^5 workload is > 20x even on a single-core
#: runner.
MIN_PARALLEL_SPEEDUP = 1.0

#: Wall-clock allowance granted to the sequential baseline on the
#: large workload, as a multiple of the parallel wall time.  The
#: sequential GFP runs under ``Budget(timeout=factor * parallel_wall)``;
#: when the budget trips, ``speedup > factor`` is a *proven lower
#: bound* (the baseline consumed its whole allowance and had not
#: finished), so the gate asserts on it without waiting the 20+
#: minutes the full sequential run would take.
LARGE_SEQ_CAP_FACTOR = 3.0

#: Shard-size cap for the large comparison: fine-grained ~component
#: sized shards keep every worker task small and make the pooled
#: dispatch overhead (the thing this PR removed) measurable.
LARGE_SHARD_CAP = 512

DEFAULT_SIZES = [100, 400]
DEFAULT_JOBS = 4
DEFAULT_LARGE_OBJECTS = 100_000


def _median_run(engine, program, db):
    """``(result, median wall seconds)`` of :data:`GFP_TIMING_RUNS` runs."""
    walls: List[float] = []
    for _ in range(GFP_TIMING_RUNS):
        start = time.perf_counter()
        result = engine(program, db)
        walls.append(time.perf_counter() - start)
    return result, statistics.median(walls)


def compare_gfp_engines(num_objects: int) -> Dict[str, object]:
    """Time the worklist GFP against the naive oracle on ``Q_D``.

    Returns the worklist's work counters and both median walls; raises
    ``AssertionError`` when the extents differ or the speedup falls
    below :data:`MIN_GFP_SPEEDUP`.
    """
    db = make_scaled(num_objects)
    program = build_object_program(db)

    perf = PerfRecorder()
    greatest_fixpoint(program, db, perf=perf)  # counted once, untimed
    fast, fast_seconds = _median_run(greatest_fixpoint, program, db)
    naive, naive_seconds = _median_run(greatest_fixpoint_naive, program, db)

    assert fast.extents == naive.extents, (
        "worklist GFP diverged from the naive oracle "
        f"on scaled-{num_objects}"
    )
    speedup = naive_seconds / max(fast_seconds, 1e-9)
    assert speedup >= MIN_GFP_SPEEDUP, (
        f"worklist GFP speedup {speedup:.2f}x over the naive oracle fell "
        f"below the {MIN_GFP_SPEEDUP:.1f}x bar on scaled-{num_objects} "
        f"({fast_seconds * 1000:.1f} ms vs {naive_seconds * 1000:.1f} ms)"
    )
    return {
        "num_objects": num_objects,
        "iterations": fast.iterations,
        "satisfaction_checks": perf.counter("gfp.satisfaction_checks"),
        "object_checks": perf.counter("gfp.object_checks"),
        "wall_seconds": round(fast_seconds, 6),
        "naive_wall_seconds": round(naive_seconds, 6),
        "speedup": round(speedup, 3),
    }


def run_pipeline(num_objects: int, k: int = 4) -> Dict[str, object]:
    """Full instrumented extraction on one scalability spec."""
    db = make_scaled(num_objects)
    perf = PerfRecorder()
    start = time.perf_counter()
    result = SchemaExtractor(db, perf=perf).extract(k=k)
    wall = time.perf_counter() - start
    snapshot = perf.to_dict()
    counters = snapshot["counters"]
    return {
        "num_objects": num_objects,
        "k": k,
        "num_types": result.num_types,
        "defect": result.defect.total,
        "wall_seconds": round(wall, 6),
        "gfp_iterations": counters.get("gfp.type_rechecks", 0),
        "satisfaction_checks": counters.get("gfp.satisfaction_checks", 0),
        "merge_steps": counters.get("merge.steps", 0),
        "row_scans": counters.get("merge.row_scans", 0),
        "timers": snapshot["timers"],
    }


def compare_parallel_pipeline(
    num_objects: int, jobs: int = DEFAULT_JOBS, k: int = 4
) -> Dict[str, object]:
    """Sequential vs ``jobs=N`` extraction on a multi-component spec.

    The gate is extent equality: the parallel extractor must produce
    the same program, recast extents and defect as the sequential one.
    Wall-clock and the derived speedup are recorded for trend-watching
    but **never asserted** — a single-core CI runner legitimately sees
    speedup < 1 from process-pool overhead.
    """
    db = make_multi_component(num_objects)

    start = time.perf_counter()
    sequential = SchemaExtractor(db).extract(k=k)
    sequential_seconds = time.perf_counter() - start

    perf = PerfRecorder()
    start = time.perf_counter()
    parallel = ParallelExtractor(db, jobs=jobs, perf=perf).extract(k=k)
    parallel_seconds = time.perf_counter() - start

    assert parallel.program == sequential.program, (
        f"jobs={jobs} produced a different schema than jobs=1 "
        f"on multi-{num_objects}"
    )
    assert (
        parallel.recast_result.extents == sequential.recast_result.extents
    ), f"jobs={jobs} recast extents diverged on multi-{num_objects}"
    assert parallel.defect.total == sequential.defect.total
    return {
        "scenario": "small",
        "num_objects": num_objects,
        "jobs": jobs,
        "shards": perf.counter("parallel.shards"),
        "k": k,
        "num_types": parallel.num_types,
        "defect": parallel.defect.total,
        "sequential_wall_seconds": round(sequential_seconds, 6),
        "parallel_wall_seconds": round(parallel_seconds, 6),
        "speedup": round(
            sequential_seconds / max(parallel_seconds, 1e-9), 3
        ),
        "speedup_asserted": False,
        "pool_reuses": perf.counter("parallel.pool_reuses"),
        "task_bytes": perf.counter("parallel.task_bytes"),
    }


def compare_parallel_large(
    num_objects: int = DEFAULT_LARGE_OBJECTS,
    jobs: int = 2,
    cap_factor: float = LARGE_SEQ_CAP_FACTOR,
) -> Dict[str, object]:
    """Pooled sharded Stage 1 vs the whole-database fixpoint at 10^5.

    The suite's asserted parallel gate (``speedup_asserted: true``).
    The parallel side is :meth:`ParallelExtractor.stage1` through the
    persistent worker pool with fine-grained shards; the
    sequential side is the whole-database ``build_object_program`` +
    ``greatest_fixpoint`` under a wall-clock budget of
    ``cap_factor * parallel_wall``.  Two outcomes, both sound:

    * the sequential run **finishes** inside the allowance — the gate
      asserts the measured ``sequential / parallel > 1.0``;
    * the budget **trips** — the baseline provably needs more than
      ``cap_factor`` times the parallel wall, so ``speedup >
      cap_factor`` is a lower bound and the gate asserts on that.

    Either way no unbounded 20-minute sequential run happens in CI,
    and the asserted number is a measurement, never an extrapolation.
    The advantage being algorithmic (component-local signatures vs
    cross-component mixing), the gate holds even on one core.

    A second asserted gate (``identity_asserted: true``) pins the
    pooled result to production Stage 1: it must equal
    ``minimal_perfect_typing(db)`` in every field, ``q_iterations``
    included.  That call's wall is recorded
    (``sequential_stage1_wall_seconds``) but never asserted.
    """
    db = make_large_multi_component(num_objects)
    perf = PerfRecorder()
    extractor = ParallelExtractor(
        db, jobs=jobs, max_shard_objects=LARGE_SHARD_CAP, perf=perf
    )
    start = time.perf_counter()
    sharded = extractor.stage1()
    parallel_seconds = time.perf_counter() - start
    assert perf.counter("parallel.shards") >= 2, (
        "large workload did not shard; the comparison would be vacuous"
    )

    # The identity gate: the pooled Stage 1 is the production one.
    start = time.perf_counter()
    sequential_stage1 = minimal_perfect_typing(db)
    sequential_stage1_seconds = time.perf_counter() - start
    assert sharded == sequential_stage1, (
        "pooled Stage 1 diverged from minimal_perfect_typing on the "
        "large workload"
    )

    allowance = cap_factor * parallel_seconds
    budget = Budget(timeout=allowance).start()
    completed = False
    start = time.perf_counter()
    try:
        program = build_object_program(db)
        budget.check()
        greatest_fixpoint(program, db, budget=budget)
        completed = True
    except BudgetExceededError:
        pass
    sequential_seconds = time.perf_counter() - start

    if completed:
        speedup = sequential_seconds / max(parallel_seconds, 1e-9)
    else:
        # The baseline consumed its whole allowance without finishing:
        # the true sequential time exceeds it, so this is a floor.
        speedup = allowance / max(parallel_seconds, 1e-9)
    assert speedup > MIN_PARALLEL_SPEEDUP, (
        f"pooled sharded Stage 1 speedup {speedup:.2f}x fell below the "
        f"{MIN_PARALLEL_SPEEDUP:.1f}x bar on the large workload "
        f"({parallel_seconds:.1f}s parallel vs {sequential_seconds:.1f}s "
        f"sequential, completed={completed})"
    )
    return {
        "scenario": "large",
        "num_objects": db.num_objects,
        "num_complex": db.num_complex,
        "jobs": jobs,
        "shards": perf.counter("parallel.shards"),
        "num_types": sharded.num_types,
        "parallel_wall_seconds": round(parallel_seconds, 3),
        "sequential_wall_seconds": round(sequential_seconds, 3),
        "sequential_completed": completed,
        "sequential_cap_factor": cap_factor,
        "speedup": round(speedup, 3),
        "speedup_is_lower_bound": not completed,
        "speedup_asserted": True,
        "task_bytes": perf.counter("parallel.task_bytes"),
        "sequential_stage1_wall_seconds": round(
            sequential_stage1_seconds, 3
        ),
        "identity_asserted": True,
    }


def extract_large(num_objects: int = DEFAULT_LARGE_OBJECTS) -> Dict[str, object]:
    """The production auto-k extract on the large multi-component data.

    ``SchemaExtractor(db).extract()`` runs once without a recorder for
    its wall time and the process's peak RSS (``ru_maxrss``, the
    database included; :func:`run_suite` runs this entry first, so no
    other scenario inflates it), then once with a
    :class:`PerfRecorder` for the ``pipeline.*`` split.  The gate
    (``identity_asserted: true``) is that the same extract with Stage
    1's bisimulation classes withheld, so the sweep and Stage 3 run on
    the identity partition, returns the same sweep points, ``k``,
    Stage 2, program, Stage 3 result and defect; its wall is recorded
    but nothing is asserted on time.
    """
    db = make_large_multi_component(num_objects)
    start = time.perf_counter()
    result = SchemaExtractor(db).extract()
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    perf = PerfRecorder()
    SchemaExtractor(db, perf=perf).extract()
    timers = perf.to_dict()["timers"]

    withheld_stage1 = replace(result.stage1, representative=None)
    start = time.perf_counter()
    withheld = SchemaExtractor(db, stage1=withheld_stage1).extract()
    withheld_wall = time.perf_counter() - start
    assert withheld.sensitivity.points == result.sensitivity.points
    assert withheld.chosen_k == result.chosen_k
    assert withheld.stage2 == result.stage2
    assert withheld.program == result.program
    assert withheld.recast_result == result.recast_result
    assert withheld.defect == result.defect, (
        "the extract on Stage 1's classes diverged from the identity "
        "partition on the large workload"
    )
    return {
        "num_objects": db.num_objects,
        "num_complex": db.num_complex,
        "classes": len(set(result.stage1.representative.values())),
        "perfect_types": result.num_perfect_types,
        "chosen_k": result.chosen_k,
        "defect": result.defect.total,
        "wall_seconds": round(wall, 3),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "split_seconds": {
            name: round(timers[f"pipeline.{name}"]["seconds"], 3)
            for name in ("stage1", "sweep", "stage2", "stage3")
            if f"pipeline.{name}" in timers
        },
        "classes_withheld_wall_seconds": round(withheld_wall, 3),
        "identity_asserted": True,
    }


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True,
            cwd=pathlib.Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def append_trajectory(
    payload: Dict[str, object], path: pathlib.Path = TRAJECTORY_PATH
) -> Dict[str, object]:
    """Append this run's headline figures to the trajectory file.

    One JSON line per git commit: a line for the same commit is
    replaced.  ``src_dirty`` marks a run whose ``src/`` differed from
    the commit.
    """
    pipeline = payload["pipeline"]
    kernel = payload["manhattan_kernel"]
    record: Dict[str, object] = {
        "commit": _git("rev-parse", "--short", "HEAD") or "unknown",
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "date": datetime.date.today().isoformat(),
        "pipeline_wall_seconds": {
            str(entry["num_objects"]): entry["wall_seconds"]
            for entry in pipeline
        },
        "dbg_sweep_wall_seconds": kernel["sweep_bitset_wall_seconds"],
    }
    if "extract_large" in payload:
        large = payload["extract_large"]
        record["extract_large"] = {
            key: large[key]
            for key in ("num_objects", "chosen_k", "defect", "wall_seconds",
                        "peak_rss_mb", "split_seconds")
        }
    lines = []
    if path.exists():
        lines = [
            line for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
            and json.loads(line).get("commit") != record["commit"]
        ]
    lines.append(json.dumps(record, sort_keys=True))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return record


def compare_manhattan_kernel(k: int = 6) -> Dict[str, object]:
    """Bitset link-space kernel vs the frozenset oracle path on DBG.

    Runs the full Stage 1 -> 3 extraction twice — ``use_bitset=True``
    (the default) and ``use_bitset=False`` — and gates on program,
    extent and defect equality; then runs the auto-k sweep on both
    paths and gates on identical points (both walls and both paths'
    ``recast.cover_checks`` recorded, never asserted), and gates on the
    auto-k extract's Stage 2, replayed from the sweep's merge trace,
    equalling ``GreedyMerger.run_to`` at the knee.  The perf gate is a deterministic
    checks-based proxy over the Stage 1 all-pairs candidate round (the
    merger's first row scans evaluate exactly these pairs): the set
    path builds each symmetric difference by hashing every link of both
    bodies (``link_ops = sum(|body_i| + |body_j|)``) while the kernel
    xors fixed-width machine words (``word_ops = num_pairs *
    ceil(dimension / 64)``); the reduction must clear
    :data:`MIN_KERNEL_REDUCTION`.  Wall seconds and the live
    ``merge.manhattan_evals`` / ``recast.cover_checks`` /
    ``linkspace.*`` counters are recorded for trend-watching but never
    asserted — no assertion here compares timings.
    """
    db = make_dbg(seed=1998)

    perf_bitset = PerfRecorder()
    start = time.perf_counter()
    bitset = SchemaExtractor(db, perf=perf_bitset).extract(k=k)
    bitset_seconds = time.perf_counter() - start

    perf_set = PerfRecorder()
    start = time.perf_counter()
    plain = SchemaExtractor(
        db, use_bitset=False, perf=perf_set
    ).extract(k=k)
    set_seconds = time.perf_counter() - start

    assert bitset.program == plain.program, (
        "bitset kernel produced a different schema than the frozenset "
        "path on dbg-1998"
    )
    assert (
        bitset.recast_result.extents == plain.recast_result.extents
    ), "bitset kernel recast extents diverged on dbg-1998"
    assert bitset.defect.total == plain.defect.total

    # The auto-k sweep on both paths: every sample after the first
    # carried over from the last, against the frozenset oracle, which
    # recasts and measures each sample from scratch.  Identical points
    # are the gate; the walls and the subset tests each path made are
    # recorded, never asserted.
    sweep_perf_bitset = PerfRecorder()
    start = time.perf_counter()
    sweep_bitset = SchemaExtractor(db, perf=sweep_perf_bitset).sweep()
    sweep_bitset_seconds = time.perf_counter() - start
    sweep_perf_set = PerfRecorder()
    start = time.perf_counter()
    sweep_set = SchemaExtractor(
        db, use_bitset=False, perf=sweep_perf_set
    ).sweep()
    sweep_set_seconds = time.perf_counter() - start
    assert sweep_bitset.points == sweep_set.points, (
        "the mask-kernel sweep diverged from the frozenset sweep on "
        "dbg-1998"
    )

    # Auto-k Stage 2 replays the sweep's merges down to the knee; it
    # must equal a fresh greedy search to that k.
    auto = SchemaExtractor(db).extract()
    searched = GreedyMerger(
        auto.stage1.program,
        {name: float(w) for name, w in auto.stage1.weights.items()},
    ).run_to(auto.chosen_k)
    assert auto.stage2 == searched, (
        "auto-k Stage 2 replayed from the sweep's trace differs from "
        f"run_to({auto.chosen_k}) on dbg-1998"
    )

    # Checks-based cost proxy over the Stage 1 all-pairs round.
    stage1 = minimal_perfect_typing(db)
    bodies = [rule.body for rule in stage1.program.rules()]
    space = LinkSpace()
    for body in bodies:
        space.encode(body)
    dimension = space.dimension
    words_per_pair = max(1, math.ceil(dimension / 64))
    num_pairs = len(bodies) * (len(bodies) - 1) // 2
    link_ops = sum(
        len(bodies[i]) + len(bodies[j])
        for i in range(len(bodies))
        for j in range(i + 1, len(bodies))
    )
    word_ops = num_pairs * words_per_pair
    assert link_ops > 0, "Stage 1 program recorded no candidate pairs"
    reduction = 1.0 - word_ops / link_ops
    assert reduction >= MIN_KERNEL_REDUCTION, (
        f"manhattan-kernel proxy reduction {reduction:.1%} fell below "
        f"the {MIN_KERNEL_REDUCTION:.0%} regression bar "
        f"({word_ops} word ops vs {link_ops} link ops)"
    )
    bitset_counters = perf_bitset.to_dict()["counters"]
    set_counters = perf_set.to_dict()["counters"]
    return {
        "dataset": "dbg-1998",
        "k": k,
        "dimension": dimension,
        "num_bodies": len(bodies),
        "num_pairs": num_pairs,
        "link_ops": link_ops,
        "word_ops": word_ops,
        "proxy_reduction": round(reduction, 4),
        "defect": bitset.defect.total,
        "manhattan_evals_bitset": bitset_counters.get(
            "merge.manhattan_evals", 0
        ),
        "manhattan_evals_set": set_counters.get("merge.manhattan_evals", 0),
        "cover_checks_bitset": bitset_counters.get("recast.cover_checks", 0),
        "cover_checks_set": set_counters.get("recast.cover_checks", 0),
        "linkspace_encodes": bitset_counters.get("linkspace.encodes", 0),
        "encode_wall_seconds": round(
            perf_bitset.elapsed("linkspace.encode"), 6
        ),
        "bitset_wall_seconds": round(bitset_seconds, 6),
        "set_wall_seconds": round(set_seconds, 6),
        "speedup": round(set_seconds / max(bitset_seconds, 1e-9), 3),
        "sweep_samples": len(sweep_bitset.points),
        "sweep_knee": sweep_bitset.knee(),
        "sweep_points_identical": True,
        "sweep_cover_checks_bitset": sweep_perf_bitset.counter(
            "recast.cover_checks"
        ),
        "sweep_cover_checks_set": sweep_perf_set.counter(
            "recast.cover_checks"
        ),
        "auto_k_stage2_identical": True,
        "sweep_bitset_wall_seconds": round(sweep_bitset_seconds, 6),
        "sweep_set_wall_seconds": round(sweep_set_seconds, 6),
    }


def _apply_edits(db, edges):
    """Remove the even-indexed ``edges`` and add a copy of each odd one
    under an ``extra_`` label; return the batch's change log."""
    with db.track_changes() as log:
        for i, edge in enumerate(edges):
            if i % 2 == 0:
                db.remove_link(edge.src, edge.dst, edge.label)
            else:
                db.add_link(edge.src, edge.dst, "extra_" + edge.label)
    return log


def compare_incremental_refresh(
    seed: int = DELTA_EDIT_SEED,
) -> Dict[str, object]:
    """Incremental Stage 1 maintenance vs from-scratch rebuild on DBG.

    Applies a deterministic 1% edit batch (``ceil(0.01 * num_complex)``
    edits, alternating link removals and additions drawn by a pinned
    RNG) to the DBG pipeline graph, maintains the perfect typing with
    :class:`Stage1Maintainer`, and recomputes it from scratch as the
    oracle.  Gates on extent equality and on ``delta.objects_visited``
    <= :data:`MAX_DELTA_VISITED_FRACTION` of ``num_complex``; the
    wall-clock speedup is recorded but never asserted.
    """
    db = make_dbg(seed=1998)
    maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
    rng = random.Random(seed)
    edges = sorted(db.edges())
    num_edits = max(1, math.ceil(0.01 * db.num_complex))
    log = _apply_edits(db, rng.sample(edges, num_edits))

    perf = PerfRecorder()
    start = time.perf_counter()
    maintained = maintainer.apply(log, perf=perf)
    delta_seconds = time.perf_counter() - start

    start = time.perf_counter()
    oracle = minimal_perfect_typing(db)
    rebuild_seconds = time.perf_counter() - start

    assert maintained.extents == oracle.extents, (
        "differential Stage 1 diverged from the from-scratch oracle "
        f"on the dbg-1998 edit batch (seed={seed})"
    )
    assert maintained.home_type == oracle.home_type
    visited = perf.counter("delta.objects_visited")
    fraction = visited / db.num_complex
    assert fraction <= MAX_DELTA_VISITED_FRACTION, (
        f"differential engine visited {visited}/{db.num_complex} "
        f"complex objects ({fraction:.1%}), above the "
        f"{MAX_DELTA_VISITED_FRACTION:.0%} ripple-locality bar"
    )
    return {
        "dataset": "dbg-1998",
        "edit_seed": seed,
        "num_edits": num_edits,
        "num_complex": db.num_complex,
        "seeds": perf.counter("delta.seeds"),
        "objects_visited": visited,
        "visited_fraction": round(fraction, 4),
        "retractions": perf.counter("delta.retractions"),
        "gains": perf.counter("delta.gains"),
        "type_rechecks": perf.counter("delta.type_rechecks"),
        "satisfaction_checks": perf.counter("delta.satisfaction_checks"),
        "delta_wall_seconds": round(delta_seconds, 6),
        "rebuild_wall_seconds": round(rebuild_seconds, 6),
        "speedup": round(
            rebuild_seconds / max(delta_seconds, 1e-9), 3
        ),
    }


def compare_incremental_refresh_scaled(
    num_objects: int = SCALED_REFRESH_OBJECTS,
    batches: int = SCALED_REFRESH_BATCHES,
    edits: int = SCALED_REFRESH_EDITS,
    seed: int = DELTA_EDIT_SEED,
) -> Dict[str, object]:
    """Incremental Stage 1 vs rebuild where the incremental side wins.

    On DBG the differential engine is no faster than a full Stage 1;
    on ``make_scaled(num_objects)`` a full Stage 1 grows superlinearly
    (its GFP, even over one object per bisimulation class, is quadratic
    in the classes that share a signature) and the differential one
    follows the batch's ripple.  Applies ``batches`` chained batches of
    ``edits`` edits (alternating link removals and additions drawn by a
    pinned RNG), and after each batch times :meth:`Stage1Maintainer.apply`
    against :func:`minimal_perfect_typing` from scratch.  Gates on equal
    extents and home types after every batch; the median walls are
    recorded but never asserted.
    """
    db = make_scaled(num_objects)
    maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
    rng = random.Random(seed)
    delta_seconds: List[float] = []
    rebuild_seconds: List[float] = []
    for batch in range(batches):
        log = _apply_edits(db, rng.sample(sorted(db.edges()), edits))
        start = time.perf_counter()
        maintained = maintainer.apply(log)
        delta_seconds.append(time.perf_counter() - start)

        start = time.perf_counter()
        oracle = minimal_perfect_typing(db)
        rebuild_seconds.append(time.perf_counter() - start)

        assert maintained.extents == oracle.extents, (
            "differential Stage 1 diverged from the from-scratch oracle "
            f"on scaled-{num_objects} batch {batch} (seed={seed})"
        )
        assert maintained.home_type == oracle.home_type
    delta_median = statistics.median(delta_seconds)
    rebuild_median = statistics.median(rebuild_seconds)
    return {
        "dataset": f"scaled-{num_objects}",
        "edit_seed": seed,
        "batches": batches,
        "edits_per_batch": edits,
        "num_complex": db.num_complex,
        "delta_median_wall_seconds": round(delta_median, 6),
        "rebuild_median_wall_seconds": round(rebuild_median, 6),
        "speedup": round(rebuild_median / max(delta_median, 1e-9), 3),
    }


def run_suite(
    sizes: List[int],
    jobs: int = DEFAULT_JOBS,
    include_large: bool = False,
    large_objects: int = DEFAULT_LARGE_OBJECTS,
) -> Dict[str, object]:
    """The whole harness: engine comparison + instrumented pipeline.

    ``include_large`` adds the asserted 10^5-object pooled-vs-
    sequential entry to ``parallel_comparison`` and the
    ``extract_large`` entry (minutes of wall time; the pytest entry
    point leaves them off, the standalone/CI harness turns them on).
    """
    large_extract = extract_large(large_objects) if include_large else None
    parallel_entries = [
        compare_parallel_pipeline(n, jobs=jobs) for n in sizes
    ]
    if include_large:
        parallel_entries.append(
            compare_parallel_large(large_objects, jobs=max(2, min(jobs, 4)))
        )
    payload = {
        "suite": "perf-regression",
        "min_gfp_speedup": MIN_GFP_SPEEDUP,
        "min_kernel_reduction": MIN_KERNEL_REDUCTION,
        "min_parallel_speedup": MIN_PARALLEL_SPEEDUP,
        "max_delta_visited_fraction": MAX_DELTA_VISITED_FRACTION,
        "engine_comparison": [compare_gfp_engines(n) for n in sizes],
        "pipeline": [run_pipeline(n) for n in sizes],
        "parallel_comparison": parallel_entries,
        "manhattan_kernel": compare_manhattan_kernel(),
        "incremental_refresh": compare_incremental_refresh(),
        "incremental_refresh_scaled": compare_incremental_refresh_scaled(),
    }
    if large_extract is not None:
        payload["extract_large"] = large_extract
    return payload


def write_report(payload: Dict[str, object], path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# pytest entry points (plain asserts; no pytest-benchmark fixtures)
# ----------------------------------------------------------------------
def test_gfp_engine_regression_gate():
    """The worklist GFP matches the naive oracle and beats its wall time
    by at least the regression bar on the smallest scalability spec."""
    stats = compare_gfp_engines(100)
    assert stats["speedup"] >= MIN_GFP_SPEEDUP
    assert stats["satisfaction_checks"] > 0


def test_parallel_pipeline_extent_gate():
    """``jobs=2`` is extent-identical to sequential on the smallest
    multi-component spec (the assertion lives inside the comparison)."""
    stats = compare_parallel_pipeline(100, jobs=2)
    assert stats["shards"] >= 2


def test_manhattan_kernel_regression_gate():
    """The bitset kernel is program/extent/defect-identical to the
    frozenset path on DBG, its auto-k sweep has identical points, the
    replayed auto-k Stage 2 equals ``run_to`` at the knee, and its
    checks-based cost proxy clears the 30% bar (the assertions live
    inside the comparison)."""
    stats = compare_manhattan_kernel()
    assert stats["sweep_points_identical"] is True
    assert stats["auto_k_stage2_identical"] is True
    assert stats["proxy_reduction"] >= MIN_KERNEL_REDUCTION
    assert stats["manhattan_evals_bitset"] > 0
    assert stats["cover_checks_bitset"] > 0
    assert stats["linkspace_encodes"] > 0


def test_incremental_refresh_ripple_gate():
    """Maintaining the pinned 1% DBG edit batch is extent-identical to
    a from-scratch rebuild and visits <= 20% of the complex objects
    (both assertions live inside the comparison)."""
    stats = compare_incremental_refresh()
    assert stats["visited_fraction"] <= MAX_DELTA_VISITED_FRACTION
    assert stats["seeds"] > 0


def test_pipeline_emits_bench_json(tmp_path):
    """An instrumented end-to-end run produces a well-formed report."""
    payload = run_suite([100], jobs=2)
    out = tmp_path / "BENCH_pipeline.json"
    write_report(payload, out)
    loaded = json.loads(out.read_text(encoding="utf-8"))
    (entry,) = loaded["pipeline"]
    assert entry["row_scans"] > 0
    assert entry["satisfaction_checks"] > 0
    assert entry["merge_steps"] > 0
    (parallel_entry,) = loaded["parallel_comparison"]
    assert parallel_entry["jobs"] == 2
    assert parallel_entry["shards"] >= 2
    assert parallel_entry["scenario"] == "small"
    assert parallel_entry["speedup_asserted"] is False
    assert parallel_entry["task_bytes"] > 0
    assert "pool_reuses" in parallel_entry
    kernel_entry = loaded["manhattan_kernel"]
    assert kernel_entry["proxy_reduction"] >= MIN_KERNEL_REDUCTION
    assert kernel_entry["manhattan_evals_bitset"] > 0
    assert kernel_entry["cover_checks_bitset"] > 0
    refresh_entry = loaded["incremental_refresh"]
    assert refresh_entry["visited_fraction"] <= MAX_DELTA_VISITED_FRACTION
    assert refresh_entry["seeds"] > 0
    scaled_entry = loaded["incremental_refresh_scaled"]
    assert scaled_entry["batches"] == SCALED_REFRESH_BATCHES


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Instrumented pipeline regression benchmark"
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=DEFAULT_SIZES,
        metavar="N", help="scalability-spec sizes to run (objects)",
    )
    parser.add_argument(
        "--jobs", type=int, default=DEFAULT_JOBS, metavar="N",
        help="worker processes for the parallel comparison",
    )
    parser.add_argument(
        "--output", default=str(RESULTS_PATH), metavar="PATH",
        help="where to write BENCH_pipeline.json",
    )
    parser.add_argument(
        "--skip-large", action="store_true",
        help="skip the asserted 10^5-object parallel comparison "
        "(minutes of wall time)",
    )
    parser.add_argument(
        "--large-objects", type=int, default=DEFAULT_LARGE_OBJECTS,
        metavar="N", help="object count for the large parallel "
        "comparison (>= 10^5 for the published results file)",
    )
    args = parser.parse_args(argv)
    payload = run_suite(
        args.sizes,
        jobs=args.jobs,
        include_large=not args.skip_large,
        large_objects=args.large_objects,
    )
    write_report(payload, pathlib.Path(args.output))
    append_trajectory(payload)
    for entry in payload["engine_comparison"]:
        print(
            f"gfp scaled-{entry['num_objects']}: "
            f"{entry['wall_seconds'] * 1000:.1f} ms worklist vs "
            f"{entry['naive_wall_seconds'] * 1000:.1f} ms naive "
            f"({entry['speedup']:.2f}x, asserted >= "
            f"{MIN_GFP_SPEEDUP:.1f}x), "
            f"{entry['satisfaction_checks']} satisfaction checks, "
            f"{entry['object_checks']} object checks"
        )
    for entry in payload["pipeline"]:
        print(
            f"pipeline scaled-{entry['num_objects']}: "
            f"{entry['wall_seconds'] * 1000:.1f} ms, "
            f"{entry['merge_steps']} merges, "
            f"{entry['row_scans']} row scans"
        )
    for entry in payload["parallel_comparison"]:
        if entry["scenario"] == "large":
            bound = (
                "lower bound, sequential budget exhausted"
                if entry["speedup_is_lower_bound"]
                else "measured"
            )
            print(
                f"parallel large-{entry['num_objects']} "
                f"jobs={entry['jobs']}: {entry['shards']} shards, "
                f"{entry['parallel_wall_seconds']:.1f} s pooled vs "
                f"{entry['sequential_wall_seconds']:.1f} s sequential "
                f"({entry['speedup']:.2f}x {bound}, asserted > "
                f"{MIN_PARALLEL_SPEEDUP:.1f}x); equals "
                f"minimal_perfect_typing "
                f"({entry['sequential_stage1_wall_seconds']:.2f} s)"
            )
            continue
        print(
            f"parallel multi-{entry['num_objects']} jobs={entry['jobs']}: "
            f"{entry['shards']} shards, extents identical, "
            f"{entry['parallel_wall_seconds'] * 1000:.1f} ms vs "
            f"{entry['sequential_wall_seconds'] * 1000:.1f} ms sequential "
            f"({entry['speedup']:.2f}x, informational)"
        )
    kernel = payload["manhattan_kernel"]
    print(
        f"manhattan kernel on {kernel['dataset']}: "
        f"{kernel['word_ops']} word ops vs {kernel['link_ops']} link ops "
        f"({kernel['proxy_reduction']:.1%} proxy reduction), "
        f"{kernel['bitset_wall_seconds'] * 1000:.1f} ms vs "
        f"{kernel['set_wall_seconds'] * 1000:.1f} ms set path "
        f"({kernel['speedup']:.2f}x, informational); auto-k sweep "
        f"({kernel['sweep_samples']} samples) points identical, "
        f"{kernel['sweep_bitset_wall_seconds'] * 1000:.1f} ms vs "
        f"{kernel['sweep_set_wall_seconds'] * 1000:.1f} ms, "
        f"{kernel['sweep_cover_checks_bitset']} vs "
        f"{kernel['sweep_cover_checks_set']} cover checks (informational); "
        f"auto-k Stage 2 equals run_to({kernel['sweep_knee']})"
    )
    delta = payload["incremental_refresh"]
    print(
        f"incremental refresh on {delta['dataset']}: "
        f"{delta['num_edits']} edits, visited "
        f"{delta['objects_visited']}/{delta['num_complex']} "
        f"({delta['visited_fraction']:.1%}), "
        f"{delta['delta_wall_seconds'] * 1000:.1f} ms vs "
        f"{delta['rebuild_wall_seconds'] * 1000:.1f} ms rebuild "
        f"({delta['speedup']:.2f}x, informational)"
    )
    scaled = payload["incremental_refresh_scaled"]
    print(
        f"incremental refresh on {scaled['dataset']}: median of "
        f"{scaled['batches']} batches of {scaled['edits_per_batch']} edits, "
        f"{scaled['delta_median_wall_seconds'] * 1000:.1f} ms vs "
        f"{scaled['rebuild_median_wall_seconds'] * 1000:.1f} ms rebuild "
        f"({scaled['speedup']:.2f}x, informational)"
    )
    large = payload.get("extract_large")
    if large is not None:
        split = ", ".join(
            f"{name} {seconds:.2f} s"
            for name, seconds in large["split_seconds"].items()
        )
        print(
            f"auto-k extract of make_large_multi_component("
            f"{args.large_objects}): {large['num_complex']} complex objects "
            f"in {large['classes']} classes, k={large['chosen_k']}, defect "
            f"{large['defect']}, {large['wall_seconds']:.2f} s, peak RSS "
            f"{large['peak_rss_mb']:.1f} MB ({split}); equals the "
            f"classes-withheld run "
            f"({large['classes_withheld_wall_seconds']:.2f} s)"
        )
    print(f"wrote {args.output} and {TRAJECTORY_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
