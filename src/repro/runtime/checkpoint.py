"""Checkpointing the Stage 2 merge trace.

Stage 2 is the pipeline's long pole: the greedy merger executes
``n - k`` merges, each touching every body that references the
absorbed type.  When a budget expires (or the process is killed)
halfway down, restarting from scratch wastes all of that work.

A checkpoint is the *minimal deterministic replay recipe*: the
starting program and weights, the merger configuration, and the
ordered list of ``(absorber, absorbed)`` pairs executed so far.
Because every :class:`~repro.core.clustering.GreedyMerger` operation
is deterministic given the pair being merged, replaying the trace
reconstructs the merger state **exactly** — same bodies, same weights,
same merge map, same total cost — after which the run continues as if
it had never stopped.  (Replay skips the choice of each merge:
:meth:`~repro.core.clustering.GreedyMerger.replay` applies the recorded
pairs and prices every row once at the end, so the resumed run chooses
exactly as the uninterrupted one would have.)

The on-disk format is a single JSON document with the program stored
in the paper's arrow notation (the same text
:func:`repro.core.notation.parse_program` accepts), so checkpoints are
human-readable and diffable like every other artefact in this
library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.clustering import GreedyMerger, MergePolicy
from repro.core.distance import WeightedDistance, named_distances
from repro.core.notation import format_program, parse_program
from repro.exceptions import ReproError

_FORMAT = "repro-checkpoint/1"


@dataclass(frozen=True)
class Checkpoint:
    """A resumable snapshot of a Stage 2 clustering run.

    Attributes
    ----------
    program_text:
        The **starting** program (before any merge) in arrow notation.
    weights:
        The starting per-type weights.
    policy:
        The :class:`~repro.core.clustering.MergePolicy` value.
    allow_empty_type, empty_weight, frozen:
        The remaining merger configuration.
    merges:
        Ordered ``(absorber, absorbed)`` pairs executed so far; the
        empty-type absorber appears under its reserved name.
    k_target:
        The type count the interrupted run was aiming for (``None``
        when unknown — e.g. the run was stepping manually).
    distance:
        The named distance (``"delta_1"``..``"delta_5"``) used by the
        run, or ``None`` for a custom callable (the caller must then
        supply it again to :func:`restore_merger`).
    """

    program_text: str
    weights: Dict[str, float]
    policy: str
    allow_empty_type: bool
    empty_weight: float
    frozen: Tuple[str, ...]
    merges: Tuple[Tuple[str, str], ...]
    k_target: Optional[int] = None
    distance: Optional[str] = None

    @property
    def num_merges(self) -> int:
        """Number of completed merges recorded in the trace."""
        return len(self.merges)

    def with_target(self, k: Optional[int]) -> "Checkpoint":
        """The same checkpoint aiming at a different ``k``."""
        return replace(self, k_target=k)


def checkpoint_merger(
    merger: GreedyMerger,
    k_target: Optional[int] = None,
    distance: Optional[str] = None,
) -> Checkpoint:
    """Snapshot a merger's trace into a :class:`Checkpoint`.

    ``distance`` should be the *name* of the weighted distance when a
    named one was used; custom callables cannot be serialised and are
    recorded as ``None``.
    """
    return Checkpoint(
        program_text=format_program(merger.initial_program),
        weights=dict(merger.initial_weights),
        policy=merger.policy.value,
        allow_empty_type=merger.allow_empty_type,
        empty_weight=merger.empty_weight,
        frozen=tuple(sorted(merger.frozen)),
        merges=tuple((r.absorber, r.absorbed) for r in merger.records),
        k_target=k_target,
        distance=distance,
    )


def restore_merger(
    checkpoint: Checkpoint,
    distance: Optional[WeightedDistance] = None,
    perf=None,
    use_bitset: bool = True,
) -> GreedyMerger:
    """Rebuild a merger from a checkpoint and replay its trace.

    Parameters
    ----------
    checkpoint:
        The snapshot to restore.
    distance:
        Explicit weighted-distance callable; required when the
        checkpoint recorded no named distance, overrides it otherwise.
    perf:
        Optional :class:`repro.perf.PerfRecorder` for the rebuilt
        merger (replayed merges count in ``merge.steps``; the rows are
        priced once, when the replay ends).
    use_bitset:
        Body representation for the rebuilt merger (see
        :class:`GreedyMerger`).  Checkpoints only record the merge
        trace, never bodies, so either representation replays to the
        identical state — a checkpoint written by one path resumes
        freely on the other.

    Returns a :class:`GreedyMerger` whose state (bodies, weights,
    merge map, records, total cost) is identical to the interrupted
    run's at its last completed merge.
    """
    program = parse_program(checkpoint.program_text)
    if distance is None:
        if checkpoint.distance is None:
            raise ReproError(
                "checkpoint used a custom distance; pass it to restore_merger"
            )
        table = named_distances(len(program.typed_links()))
        try:
            distance = table[checkpoint.distance]
        except KeyError:
            raise ReproError(
                f"checkpoint names unknown distance {checkpoint.distance!r}"
            ) from None
    merger = GreedyMerger(
        program,
        checkpoint.weights,
        distance=distance,
        policy=MergePolicy(checkpoint.policy),
        allow_empty_type=checkpoint.allow_empty_type,
        empty_weight=checkpoint.empty_weight,
        frozen=frozenset(checkpoint.frozen),
        perf=perf,
        use_bitset=use_bitset,
    )
    merger.replay(checkpoint.merges)
    return merger


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def dumps_checkpoint(checkpoint: Checkpoint) -> str:
    """Serialise a checkpoint to a JSON string."""
    from repro import __version__

    document = {
        "format": _FORMAT,
        "version": __version__,
        "program": checkpoint.program_text,
        "weights": dict(sorted(checkpoint.weights.items())),
        "policy": checkpoint.policy,
        "allow_empty_type": checkpoint.allow_empty_type,
        "empty_weight": checkpoint.empty_weight,
        "frozen": list(checkpoint.frozen),
        "merges": [list(pair) for pair in checkpoint.merges],
        "k_target": checkpoint.k_target,
        "distance": checkpoint.distance,
    }
    return json.dumps(document, indent=2, sort_keys=True)


def loads_checkpoint(text: str) -> Checkpoint:
    """Parse a JSON document produced by :func:`dumps_checkpoint`."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed checkpoint document: {exc}") from exc
    if document.get("format") != _FORMAT:
        raise ReproError(
            f"unsupported checkpoint format {document.get('format')!r}"
        )
    try:
        return Checkpoint(
            program_text=document["program"],
            weights={
                name: float(w) for name, w in document["weights"].items()
            },
            policy=document["policy"],
            allow_empty_type=bool(document["allow_empty_type"]),
            empty_weight=float(document["empty_weight"]),
            frozen=tuple(document["frozen"]),
            merges=tuple(
                (str(a), str(b)) for a, b in document["merges"]
            ),
            k_target=document.get("k_target"),
            distance=document.get("distance"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed checkpoint document: {exc}") from exc


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write a checkpoint to ``path`` as JSON (atomically via rename)."""
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".checkpoint-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(dumps_checkpoint(checkpoint))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_checkpoint(handle.read())
