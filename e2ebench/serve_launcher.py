"""Start the schema daemon as ``repro serve`` would, for service-mixed.

    python3 e2ebench/serve_launcher.py [--spans FILE] -- <serve args>

Calls ``repro.cli.main(["serve", ...])`` in this process.  With
``--spans``, the layer wrappers of ``tracer.py`` are installed first
and the recorded spans (plus the calibrated cost of one span) are
written to FILE after the daemon has shut down.

The benchmark holds this process's stdin open; end of input (the
benchmark closed it, or died) sends the daemon SIGINT, its normal
graceful shutdown, so the daemon cannot outlive the benchmark.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from common import require_program


def _shutdown_on_eof() -> None:
    sys.stdin.read()
    os.kill(os.getpid(), signal.SIGINT)


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    require_program()
    import repro.cli

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    threading.Thread(target=_shutdown_on_eof, daemon=True).start()
    code = repro.cli.main(["serve"] + serve_args)
    if tracer is not None:
        tracer.dump(args.spans)
        with open(args.spans + ".cost", "w", encoding="utf-8") as handle:
            handle.write(repr(tracing.span_cost()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
