"""Command-line interface: ``repro-schema`` / ``python -m repro``.

Subcommands
-----------
``extract FILE``
    Run the full pipeline on an OEM text file and print the program.
``sweep FILE``
    Print the Figure 6 sensitivity series as CSV (k, distance, defect).
``generate NAME``
    Emit a built-in dataset (``dbg`` or ``table1-<n>``) as OEM text.
``describe FILE``
    Print summary statistics of an OEM text file.
``dot FILE``
    Emit Graphviz DOT for the data graph, or for the extracted schema
    with ``--schema [-k K]``.
``query FILE QUERY``
    Evaluate a select-from-where query; with a ``from`` clause the
    schema is extracted first (``-k`` controls its size).
``explain FILE OBJECT``
    Extract a schema and explain why OBJECT carries its types.
``incremental FILE MUTATIONS``
    Extract, apply a mutation script, and maintain the typing — with
    one-step retyping notes (default), the exact differential
    ``--refresh`` tier, or a from-scratch ``--rebuild``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro.core.explain import explain_object
from repro.core.incremental import IncrementalTyper
from repro.core.notation import format_program
from repro.core.hierarchy import hierarchy_to_dot
from repro.core.sorts import sorted_local_rule
from repro.core.pipeline import SchemaExtractor
from repro.exceptions import ReproError
from repro.parallel import ParallelExtractor, resolve_jobs
from repro.graph.dot import database_to_dot, program_to_dot
from repro.graph.oem import dumps_oem, load_oem
from repro.graph.sanitize import load_oem_sanitized
from repro.graph.statistics import describe
from repro.perf import PerfRecorder
from repro.query.select import evaluate_select, parse_select
from repro.runtime.budget import Budget
from repro.synth.datasets import make_dbg, make_table1_database


def _load_database(args: argparse.Namespace):
    """Load the input OEM file, honouring ``--repair`` where present.

    Without ``--repair`` the strict loader is used, so a corrupted file
    raises a :class:`~repro.exceptions.DatabaseError` that the
    :func:`main` wrapper turns into a one-line message and exit code 2.
    """
    if getattr(args, "repair", False):
        db, report = load_oem_sanitized(args.file, policy="repair")
        if not report.clean:
            print(report.describe(), file=sys.stderr)
        return db
    return load_oem(args.file)


def _make_budget(args: argparse.Namespace) -> Optional[Budget]:
    """A :class:`Budget` from ``--timeout``/``--max-iterations``, if set."""
    timeout = getattr(args, "timeout", None)
    max_iterations = getattr(args, "max_iterations", None)
    if timeout is None and max_iterations is None:
        return None
    if timeout is not None and timeout <= 0:
        raise ReproError("--timeout must be positive")
    if max_iterations is not None and max_iterations <= 0:
        raise ReproError("--max-iterations must be positive")
    return Budget(timeout=timeout, max_iterations=max_iterations)


def _make_perf(args: argparse.Namespace) -> Optional[PerfRecorder]:
    """A live recorder when ``--perf-report`` or ``-v`` asks for one.

    Everything else gets ``None``, which the pipeline resolves to the
    shared no-op recorder — instrumentation stays off the hot path
    unless explicitly requested.
    """
    if getattr(args, "perf_report", None) or args.verbose > 0:
        return PerfRecorder()
    return None


def _report_perf(args: argparse.Namespace, perf: Optional[PerfRecorder]) -> None:
    """Write ``--perf-report`` and/or print the ``-v`` summary."""
    if perf is None:
        return
    path = getattr(args, "perf_report", None)
    if path:
        perf.write_json(path)
    if args.verbose > 0:
        print(perf.summary(), file=sys.stderr)


def _jobs_value(text: str):
    """argparse type for ``--jobs``: a positive int or ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None


def _make_extractor(args: argparse.Namespace, db, perf):
    """A sequential or parallel extractor, depending on ``--jobs``.

    ``--jobs 1`` (the default) builds a plain :class:`SchemaExtractor`
    so the sequential path stays byte-identical; ``--jobs N`` (or
    ``--jobs auto``, which resolves to the machine's CPU count) builds
    a :class:`ParallelExtractor`, which runs Stage 1 and the sweep on
    a worker pool (Stage 1 stays in-process when the graph is a single
    component).
    """
    jobs = resolve_jobs(getattr(args, "jobs", 1))
    common = dict(
        distance=args.distance,
        use_roles=getattr(args, "roles", False),
        allow_empty_type=getattr(args, "empty_type", False),
        local_rule_fn=(
            sorted_local_rule if getattr(args, "sorts", False) else None
        ),
        use_bitset=not getattr(args, "no_bitset", False),
        perf=perf,
    )
    if jobs == 1:
        return SchemaExtractor(db, **common)
    return ParallelExtractor(db, jobs=jobs, **common)


def _cmd_extract(args: argparse.Namespace) -> int:
    if args.resume and args.max_defect is not None:
        raise ReproError("--resume and --max-defect are mutually exclusive")
    db = _load_database(args)
    perf = _make_perf(args)
    extractor = _make_extractor(args, db, perf)
    budget = _make_budget(args)
    if args.max_defect is not None:
        result = extractor.extract_within_defect(args.max_defect, budget=budget)
    else:
        result = extractor.extract(
            k=args.k,
            budget=budget,
            checkpoint_path=args.checkpoint,
            resume_from=args.resume,
        )
    print(result.describe())
    if result.is_partial:
        print(f"warning: {result.degradation.summary()}", file=sys.stderr)
    _report_perf(args, perf)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    db = _load_database(args)
    perf = _make_perf(args)
    extractor = _make_extractor(args, db, perf)
    sweep = extractor.sweep(step=args.step, budget=_make_budget(args))
    _report_perf(args, perf)
    print("k,total_distance,defect,excess,deficit")
    for point in sweep.points:
        print(
            f"{point.k},{point.total_distance},{point.defect},"
            f"{point.excess},{point.deficit}"
        )
    knee_lo, knee_hi = sweep.optimal_range()
    print(f"# knee={sweep.knee()} optimal_range={knee_lo}-{knee_hi}", file=sys.stderr)
    if sweep.exhausted:
        print("warning: budget exhausted; the series is partial", file=sys.stderr)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    name = args.name.lower()
    if name == "dbg":
        db = make_dbg(seed=args.seed)
    elif name.startswith("table1-"):
        db, _ = make_table1_database(int(name.split("-", 1)[1]))
    else:
        print(
            f"unknown dataset {args.name!r}; use 'dbg' or 'table1-<1..8>'",
            file=sys.stderr,
        )
        return 2
    text = dumps_oem(db)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    db = load_oem(args.file)
    print(describe(db).summary())
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    db = load_oem(args.file)
    if args.schema or args.hierarchy:
        result = SchemaExtractor(db).extract(k=args.k)
        if args.hierarchy:
            print(hierarchy_to_dot(result.program))
        else:
            print(program_to_dot(result.program))
    else:
        print(database_to_dot(db))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    db = load_oem(args.file)
    if args.object not in db:
        print(f"unknown object {args.object!r}", file=sys.stderr)
        return 2
    result = SchemaExtractor(db).extract(k=args.k)
    print(explain_object(result.program, db, result.assignment, args.object))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    db = load_oem(args.file)
    query = parse_select(args.query)
    extents = None
    if query.from_type is not None:
        result = SchemaExtractor(db).extract(k=args.k)
        extents = result.recast_result.extents
        if query.from_type not in extents:
            known = ", ".join(sorted(extents))
            print(
                f"type {query.from_type!r} not in the extracted schema "
                f"(types: {known})",
                file=sys.stderr,
            )
            return 2
    outcome = evaluate_select(db, query, extents)
    for value in outcome.values:
        print(value)
    print(
        f"# {len(outcome.values)} value(s) from "
        f"{outcome.candidates_considered} candidate object(s)",
        file=sys.stderr,
    )
    return 0


def _parse_mutations(path: str) -> list:
    """Parse a mutation script into a list of operation tuples.

    One operation per line; blank lines and ``#`` comments skipped::

        add-link src dst label
        remove-link src dst label
        add-atomic obj <json value>
        add-object obj
        remove-object obj
    """
    ops = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            op = parts[0].lower()
            try:
                if op in ("add-link", "remove-link"):
                    _, src, dst, label = parts
                    ops.append((op, src, dst, label))
                elif op == "add-atomic":
                    if len(parts) < 3:
                        raise ValueError("expected: add-atomic obj <json>")
                    ops.append((op, parts[1], json.loads(" ".join(parts[2:]))))
                elif op in ("add-object", "remove-object"):
                    _, obj = parts
                    ops.append((op, obj))
                else:
                    raise ValueError(f"unknown operation {op!r}")
            except (ValueError, json.JSONDecodeError) as exc:
                raise ReproError(
                    f"{path}:{lineno + 1}: bad mutation {line!r} ({exc})"
                )
    return ops


def _apply_mutation(db, typer: IncrementalTyper, op, one_step: bool) -> None:
    """Apply one parsed operation; with ``one_step``, notify the typer."""
    kind = op[0]
    if kind == "add-link":
        _, src, dst, label = op
        if db.add_link(src, dst, label) and one_step:
            typer.note_new_link(src, dst)
    elif kind == "remove-link":
        _, src, dst, label = op
        if db.remove_link(src, dst, label) and one_step:
            typer.note_removed_link(src, dst)
    elif kind == "add-atomic":
        db.add_atomic(op[1], op[2])
    elif kind == "add-object":
        obj = op[1]
        db.add_complex(obj)
        if one_step:
            typer.note_new_object(obj)
    else:  # remove-object
        obj = op[1]
        neighbours = frozenset()
        if obj in db and db.is_complex(obj):
            neighbours = frozenset(
                {edge.dst for edge in db.out_edges(obj)}
                | {edge.src for edge in db.in_edges(obj)}
            )
        if db.remove_object(obj) and one_step:
            typer.note_removed_object(obj, neighbours=neighbours)


def _cmd_incremental(args: argparse.Namespace) -> int:
    db = _load_database(args)
    ops = _parse_mutations(args.mutations)
    perf = _make_perf(args)
    result = SchemaExtractor(db, perf=perf).extract(k=args.k)
    typer = IncrementalTyper(db, result)
    one_step = not (args.refresh or args.rebuild)
    with db.track_changes() as log:
        for op in ops:
            _apply_mutation(db, typer, op, one_step)
    if args.refresh:
        refreshed = typer.refresh(log, perf=perf)
        if refreshed is not None:
            result = refreshed
        print(result.describe())
    elif args.rebuild:
        result = typer.rebuild(perf=perf)
        print(result.describe())
    else:
        print(format_program(typer.program))
        drift = typer.drift()
        print(
            f"# drift: {drift.fallbacks}/{drift.updates} fallback(s) "
            f"(stale={typer.stale()})",
            file=sys.stderr,
        )
    print(f"# applied {len(ops)} mutation(s): {log.summary()}", file=sys.stderr)
    _report_perf(args, perf)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ServiceConfig
    from repro.service.app import serve as serve_daemon

    if args.rate <= 0:
        raise ReproError("--rate must be positive")
    if args.burst < 1:
        raise ReproError("--burst must be >= 1")
    if args.queue_depth < 1:
        raise ReproError("--queue-depth must be >= 1")
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise ReproError("--deadline-ms must be positive")
    if args.breaker_threshold < 1:
        raise ReproError("--breaker-threshold must be >= 1")
    db = _load_database(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        k=args.k,
        rate=args.rate,
        burst=args.burst,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        refresh_timeout=args.refresh_timeout,
        breaker_threshold=args.breaker_threshold,
        enable_chaos=args.enable_chaos,
        jobs=resolve_jobs(getattr(args, "jobs", 1)),
    )
    try:
        return asyncio.run(
            serve_daemon(
                db, config, announce=lambda line: print(line, flush=True)
            )
        )
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-schema",
        description="Schema extraction from semistructured data "
        "(Nestorov, Abiteboul, Motwani; SIGMOD 1998).",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log pipeline progress to stderr "
                        "(-v INFO, -vv DEBUG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract a typing program")
    p_extract.add_argument("file", help="OEM text file")
    p_extract.add_argument("-k", type=int, default=None,
                           help="number of types (default: auto knee)")
    p_extract.add_argument("--distance", default="delta_2",
                           help="weighted distance delta_1..delta_5")
    p_extract.add_argument("--roles", action="store_true",
                           help="enable multiple-role decomposition")
    p_extract.add_argument("--empty-type", action="store_true",
                           help="allow moving outlier types to the empty type")
    p_extract.add_argument("--sorts", action="store_true",
                           help="distinguish atomic sorts (Remark 2.1)")
    p_extract.add_argument("--jobs", type=_jobs_value, default=1,
                           metavar="N|auto",
                           help="worker processes for Stage 1 sharding and "
                           "the sweep (1 = sequential; 'auto' = the "
                           "machine's CPU count, capped by the shard "
                           "count; falls back to sequential on "
                           "single-component graphs)")
    p_extract.add_argument("--no-bitset", action="store_true",
                           help="run Stage 2/3 on the frozenset oracle path "
                           "instead of the link-space bitset kernel "
                           "(results are identical; use to measure the "
                           "saving)")
    p_extract.add_argument("--max-defect", type=int, default=None,
                           help="solve the dual problem: smallest schema "
                           "with defect at most N (overrides -k)")
    p_extract.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                           help="wall-clock budget; on exhaustion the best "
                           "partial result is returned")
    p_extract.add_argument("--max-iterations", type=int, default=None, metavar="N",
                           help="iteration budget across fixpoint/merge steps")
    p_extract.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="write the Stage 2 merge trace here after "
                           "every merge (and on budget exhaustion)")
    p_extract.add_argument("--resume", default=None, metavar="PATH",
                           help="resume Stage 2 from a checkpoint written "
                           "by --checkpoint")
    p_extract.add_argument("--repair", action="store_true",
                           help="sanitize a corrupted input file instead of "
                           "rejecting it (report goes to stderr)")
    p_extract.add_argument("--perf-report", default=None, metavar="PATH",
                           help="write pipeline performance counters and "
                           "timers to PATH as JSON (with -v, a summary is "
                           "also printed to stderr)")
    p_extract.set_defaults(func=_cmd_extract)

    p_sweep = sub.add_parser("sweep", help="print the defect-vs-k series")
    p_sweep.add_argument("file", help="OEM text file")
    p_sweep.add_argument("--distance", default="delta_2")
    p_sweep.add_argument("--step", type=int, default=1,
                         help="sample every STEP values of k")
    p_sweep.add_argument("--jobs", type=_jobs_value, default=1,
                         metavar="N|auto",
                         help="worker processes for the sweep's sample "
                         "blocks (1 = sequential; 'auto' = the machine's "
                         "CPU count)")
    p_sweep.add_argument("--no-bitset", action="store_true",
                         help="run the sweep on the frozenset oracle path "
                         "instead of the link-space bitset kernel")
    p_sweep.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="wall-clock budget; exhaustion truncates the series")
    p_sweep.add_argument("--max-iterations", type=int, default=None, metavar="N",
                         help="iteration budget across merge/sample steps")
    p_sweep.add_argument("--repair", action="store_true",
                         help="sanitize a corrupted input file instead of "
                         "rejecting it")
    p_sweep.add_argument("--perf-report", default=None, metavar="PATH",
                         help="write sweep performance counters and timers "
                         "to PATH as JSON")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_generate = sub.add_parser("generate", help="emit a built-in dataset")
    p_generate.add_argument("name", help="'dbg' or 'table1-<1..8>'")
    p_generate.add_argument("-o", "--output", default=None,
                            help="write to a file instead of stdout")
    p_generate.add_argument("--seed", type=int, default=1998)
    p_generate.set_defaults(func=_cmd_generate)

    p_describe = sub.add_parser("describe", help="summarise an OEM file")
    p_describe.add_argument("file", help="OEM text file")
    p_describe.set_defaults(func=_cmd_describe)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT")
    p_dot.add_argument("file", help="OEM text file")
    p_dot.add_argument("--schema", action="store_true",
                       help="render the extracted schema instead of the data")
    p_dot.add_argument("--hierarchy", action="store_true",
                       help="render the subsumption (inheritance) Hasse diagram")
    p_dot.add_argument("-k", type=int, default=None,
                       help="number of types for --schema (default: auto)")
    p_dot.set_defaults(func=_cmd_dot)

    p_query = sub.add_parser("query", help="run a select-from-where query")
    p_query.add_argument("file", help="OEM text file")
    p_query.add_argument("query", help="e.g. \"select name from t1 where age > 30\"")
    p_query.add_argument("-k", type=int, default=None,
                         help="schema size when a 'from' clause is used")
    p_query.set_defaults(func=_cmd_query)

    p_explain = sub.add_parser("explain",
                               help="explain an object's types")
    p_explain.add_argument("file", help="OEM text file")
    p_explain.add_argument("object", help="object identifier")
    p_explain.add_argument("-k", type=int, default=None,
                           help="schema size (default: auto)")
    p_explain.set_defaults(func=_cmd_explain)

    p_inc = sub.add_parser(
        "incremental",
        help="apply a mutation script and maintain the typing",
    )
    p_inc.add_argument("file", help="OEM text file")
    p_inc.add_argument("mutations",
                       help="mutation script (add-link/remove-link/"
                       "add-atomic/add-object/remove-object, one per "
                       "line, '#' comments)")
    p_inc.add_argument("-k", type=int, default=None,
                       help="schema size for the initial extraction "
                       "(default: auto knee)")
    tier = p_inc.add_mutually_exclusive_group()
    tier.add_argument("--refresh", action="store_true",
                      help="exact differential maintenance: fold the "
                      "batch into Stage 1 via the delta engine, re-run "
                      "Stages 2-3")
    tier.add_argument("--rebuild", action="store_true",
                      help="re-run the full pipeline from scratch after "
                      "the batch")
    p_inc.add_argument("--repair", action="store_true",
                       help="sanitize a corrupted input file instead of "
                       "rejecting it")
    p_inc.add_argument("--perf-report", default=None, metavar="PATH",
                       help="write performance counters (including the "
                       "delta.* family) to PATH as JSON")
    p_inc.set_defaults(func=_cmd_incremental)

    p_serve = sub.add_parser(
        "serve",
        help="run the schema daemon over an OEM file",
        description="Extract once, then serve Stage-3 recast lookups "
        "and maintain the typing through mutation batches (see "
        "docs/SERVICE.md).  Prints 'listening on HOST:PORT' once the "
        "socket is bound; stop with SIGINT/SIGTERM.",
    )
    p_serve.add_argument("file", help="OEM text file")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = pick an ephemeral port and "
                         "print it)")
    p_serve.add_argument("-k", type=int, default=None,
                         help="schema size for the initial extraction "
                         "(default: auto knee)")
    p_serve.add_argument("--rate", type=float, default=50.0,
                         help="rate-limit tokens per second per client")
    p_serve.add_argument("--burst", type=float, default=20.0,
                         help="rate-limit bucket capacity per client")
    p_serve.add_argument("--queue-depth", type=int, default=16,
                         help="write queue bound; a full queue answers "
                         "503 + Retry-After")
    p_serve.add_argument("--deadline-ms", type=float, default=2000.0,
                         help="default per-request deadline "
                         "(X-Deadline-Ms overrides per request)")
    p_serve.add_argument("--refresh-timeout", type=float, default=30.0,
                         help="wall-clock budget for one differential "
                         "refresh")
    p_serve.add_argument("--breaker-threshold", type=int, default=3,
                         help="consecutive refresh failures that trip "
                         "the circuit breaker")
    p_serve.add_argument("--jobs", type=_jobs_value, default=1,
                         metavar="N|auto",
                         help="worker processes for the initial "
                         "extraction (one pool, closed before serving; "
                         "refreshes run in-process; 1 = sequential)")
    p_serve.add_argument("--enable-chaos", action="store_true",
                         help="expose POST /chaos fault injection "
                         "(tests and benches only)")
    p_serve.add_argument("--repair", action="store_true",
                         help="sanitize a corrupted input file instead "
                         "of rejecting it")
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` logger for ``-v``."""
    if verbosity <= 0:
        return
    logger = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG if verbosity > 1 else logging.INFO)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Expected failures never show a traceback: domain errors
    (:class:`~repro.exceptions.ReproError` — corrupt input, impossible
    parameters, exhausted budgets with nothing to salvage) print a
    one-line ``error:`` message and exit 2; missing or unreadable input
    files exit 1.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed stdout; exit quietly with
        # the conventional SIGPIPE status instead of an error message.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
