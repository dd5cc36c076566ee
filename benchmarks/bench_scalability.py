"""Scalability of the fixpoint engine and Stage 1 (Section 4.1).

Section 4.1 warns that the obvious greatest-fixpoint computation "can
potentially take double-quadratic time" and suggests engineering the
iteration carefully.  This benchmark measures our engine — signature
upper bound plus worklist propagation — on growing synthetic databases
and checks the growth stays tame (roughly linear in objects at fixed
per-object degree), and compares against the naive all-types start on
a small instance to show the gap.
"""

from __future__ import annotations

import time
from typing import Dict

import pytest

from repro.core.fixpoint import greatest_fixpoint, greatest_fixpoint_naive
from repro.core.perfect import build_object_program, minimal_perfect_typing
from repro.core.typing_program import ATOMIC
from repro.graph.database import Database
from repro.synth.generator import generate
from repro.synth.spec import DatasetSpec, LinkSpec, TypeSpec

SIZES = [100, 400, 1600]
_CACHE: Dict[int, float] = {}


def make_scaled(num_objects: int, seed: int = 99):
    per_type = num_objects // 4
    types = (
        TypeSpec("a", per_type, (
            LinkSpec("a-name", ATOMIC, 1.0),
            LinkSpec("owns", "b", 0.8),
        )),
        TypeSpec("b", per_type, (
            LinkSpec("b-name", ATOMIC, 0.9),
            LinkSpec("uses", "c", 0.7),
        )),
        TypeSpec("c", per_type, (
            LinkSpec("c-name", ATOMIC, 1.0),
            LinkSpec("refs", "c", 0.3),
        )),
        TypeSpec("d", per_type, (
            LinkSpec("d-name", ATOMIC, 0.8),
            LinkSpec("sees", "a", 0.5),
        )),
    )
    return generate(DatasetSpec(f"scaled-{num_objects}", types), seed=seed)


def make_multi_component(num_objects: int, num_components: int = 4):
    """Disjoint union of prefixed ``make_scaled`` copies.

    ``make_scaled`` emits one densely linked blob, which the component
    partitioner correctly refuses to split.  The parallel benches need
    a database with several weakly-connected components — the regime
    where ``--jobs`` applies — so this unions ``num_components``
    independent copies (distinct seeds) under per-copy prefixes.
    """
    out = Database()
    per_copy = max(num_objects // num_components, 8)
    for index in range(num_components):
        db = make_scaled(per_copy, seed=99 + index)
        prefix = f"p{index}_"
        for obj in db.objects():
            if db.is_atomic(obj):
                out.add_atomic(prefix + obj, db.value(obj))
            else:
                out.add_complex(prefix + obj)
        for edge in db.edges():
            out.add_link(prefix + edge.src, prefix + edge.dst, edge.label)
    return out


def make_bounded_component(num_objects: int, seed: int):
    """One component with *bounded* link-pattern variety.

    ``make_scaled``'s optional links give almost every object a unique
    GFP signature, so the perfect typing grows linearly with size — at
    10^5 objects Stage 1 would be dominated by tens of thousands of
    types, which is realistic for Table 1 but useless for a wall-clock
    gate.  This spec keeps the variants per type small (two mandatory
    links, at most one optional), so a component of any size collapses
    to a handful of types and the cost driver is the *object count*,
    exactly what a scalability workload should measure.
    """
    per = max(num_objects // 4, 4)
    types = (
        TypeSpec("r", per, (
            LinkSpec("r-name", ATOMIC, 1.0),
            LinkSpec("member", "m", 1.0),
        )),
        TypeSpec("m", per, (
            LinkSpec("m-name", ATOMIC, 1.0),
            LinkSpec("item", "i", 1.0),
        )),
        TypeSpec("i", per, (
            LinkSpec("i-name", ATOMIC, 1.0),
            LinkSpec("tag", ATOMIC, 0.5),
        )),
        TypeSpec("x", per, (
            LinkSpec("x-name", ATOMIC, 1.0),
            LinkSpec("links", "r", 0.5),
        )),
    )
    return generate(DatasetSpec(f"bounded-{num_objects}", types), seed=seed)


def make_large_multi_component(num_objects: int = 100_000):
    """A >= 10^5-object disjoint union of bounded-variant components.

    ``num_objects`` is the target for ``db.num_objects`` (complex plus
    atomic); the generator requests roughly half that in complex
    objects, spread over ~250-object components (seeds ``7 + index``),
    and the atoms land it slightly above the target — the default
    yields ~105k objects in ~200 components with ~31 global types.
    This is the regime the persistent-pool benches gate on: many small
    components, so sharded Stage 1 does strictly less signature-mixing
    work than the whole-database per-object fixpoint (production
    Stage 1 avoids that mixing too, by running on the bisimulation
    quotient).
    """
    requested = max(num_objects // 2, 500)
    num_components = max(requested // 250, 1)
    out = Database()
    per_copy = max(requested // num_components, 16)
    for index in range(num_components):
        db = make_bounded_component(per_copy, seed=7 + index)
        prefix = f"p{index}_"
        for obj in db.objects():
            if db.is_atomic(obj):
                out.add_atomic(prefix + obj, db.value(obj))
            else:
                out.add_complex(prefix + obj)
        for edge in db.edges():
            out.add_link(prefix + edge.src, prefix + edge.dst, edge.label)
    return out


def run_stage1(num_objects: int) -> float:
    if num_objects not in _CACHE:
        db = make_scaled(num_objects)
        start = time.perf_counter()
        minimal_perfect_typing(db)
        _CACHE[num_objects] = time.perf_counter() - start
    return _CACHE[num_objects]


@pytest.mark.parametrize("num_objects", SIZES)
def test_stage1_scaling(benchmark, num_objects):
    elapsed = benchmark.pedantic(
        run_stage1, args=(num_objects,), rounds=1, iterations=1
    )
    assert elapsed < 60


def test_worklist_beats_naive(benchmark, report):
    """The optimised engine does far less work than the naive
    all-objects-in-all-types iteration on the per-object program."""
    db = make_scaled(200)
    program = build_object_program(db)

    start = time.perf_counter()
    fast = greatest_fixpoint(program, db)
    fast_time = time.perf_counter() - start

    start = time.perf_counter()
    slow = greatest_fixpoint_naive(program, db)
    slow_time = time.perf_counter() - start

    assert fast.extents == slow.extents

    lines = [
        "GFP of the per-object program Q_D, 200 complex objects:",
        f"  signature + worklist: {fast_time * 1000:8.1f} ms",
        f"  naive top-down:       {slow_time * 1000:8.1f} ms",
        f"  speedup:              {slow_time / max(fast_time, 1e-9):8.1f}x",
        "",
        "stage 1 wall time by database size:",
    ]
    for size in SIZES:
        lines.append(f"  {size:>5} objects: {run_stage1(size) * 1000:8.1f} ms")
    report("scalability", "\n".join(lines))

    assert fast_time < slow_time
