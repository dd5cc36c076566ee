"""Seeded inputs for the three workloads.

Every input is a pure function of the workload seed and the op index,
so the same ``--seed`` replays the same run, and the program under test
only ever receives generated OEM text or HTTP requests.  Within one run
no input repeats: op ``i`` of a batch workload uses instance seed
``seed + i``, and the warm-up inputs come from a separate seed range.
"""

from __future__ import annotations

from repro.core.typing_program import ATOMIC
from repro.graph.database import Database
from repro.graph.oem import dumps_oem
from repro.synth.datasets import make_dbg
from repro.synth.generator import generate
from repro.synth.spec import DatasetSpec, LinkSpec, TypeSpec

#: Instance seeds of warm-up inputs start here, far from any op seed.
WARMUP_BASE = 1_000_000

#: Complex objects per sharded-extract component, as in the
#: repository's large multi-component scalability bench.
COMPONENT_OBJECTS = 250

#: Components per sharded-extract instance (about 6.1k objects).
COMPONENTS = 12


def instance_seed(seed: int, index: int) -> int:
    """The instance seed of op ``index`` in a run started with ``seed``."""
    return seed + index


def warmup_seed(index: int) -> int:
    """The instance seed of the ``index``-th warm-up input.

    Warm-up inputs do not depend on the run seed, so set-up time does
    not vary with it; each set-up runs in a fresh process, so reusing
    them across runs cannot warm a cache.
    """
    return WARMUP_BASE + index


def dbg_text(instance: int) -> str:
    """A DBG-1998-like database (the paper's Figure 1/6 dataset)."""
    return dumps_oem(make_dbg(seed=instance))


def _bounded_spec(num_objects: int) -> DatasetSpec:
    """One component with bounded link-pattern variety (a few types)."""
    per = max(num_objects // 4, 4)
    return DatasetSpec(f"bounded-{num_objects}", (
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
    ))


def multi_component_db(instance: int) -> Database:
    """A disjoint union of bounded-variant components.

    Built the way ``make_large_multi_component`` in the repository's
    scalability bench builds its database, at a size where one cold
    ``extract -k 6 --jobs 2`` takes one to two seconds.  Component
    seeds derive from ``instance``, so two instances share nothing.
    """
    out = Database()
    spec = _bounded_spec(COMPONENT_OBJECTS)
    for index in range(COMPONENTS):
        component = generate(spec, seed=instance * COMPONENTS + index)
        prefix = f"p{index}_"
        for obj in component.objects():
            if component.is_atomic(obj):
                out.add_atomic(prefix + obj, component.value(obj))
            else:
                out.add_complex(prefix + obj)
        for edge in component.edges():
            out.add_link(prefix + edge.src, prefix + edge.dst, edge.label)
    return out


def multi_component_text(instance: int) -> str:
    return dumps_oem(multi_component_db(instance))
