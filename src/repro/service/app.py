"""The schema daemon: routing, the writer loop, and the server.

:class:`SchemaService` composes the pieces — a warm
:class:`~repro.service.session.DatasetSession`, the middleware stack
(request ids, rate limiting, deadlines), the bounded single-writer
:class:`~repro.service.queue.MutationQueue`, the refresh
:class:`~repro.service.breaker.CircuitBreaker` and the
:class:`~repro.service.chaos.ChaosHooks` — behind one
``async handle(request)`` entry point, so the whole service is
testable in-process without sockets.  :func:`serve` wraps it in an
``asyncio.start_server`` loop with graceful SIGINT/SIGTERM shutdown.

Degradation contract (the robustness tentpole):

* a full write queue answers **503 + Retry-After** immediately;
* an empty rate bucket answers **429 + Retry-After**;
* a blown request deadline answers **504** (the budget's token stops
  the underlying kernels mid-loop);
* a failing refresh trips the breaker: mutations keep landing (and
  accumulate in the pending delta), reads keep serving the last-good
  typing **explicitly marked stale**, ``/healthz`` flips to 503, and
  once the (jittered, exponentially backed-off) probe succeeds the
  pending delta folds in one differential refresh and everything
  recovers.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ReproError
from repro.graph.database import Database
from repro.runtime.budget import Budget
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import ChaosHooks
from repro.service.errors import (
    BadRequestError,
    NotFoundError,
    OverloadedError,
    ProtocolError,
    RateLimitedError,
    ServiceError,
)
from repro.perf import PerfRecorder
from repro.service.http import Request, Response, read_request
from repro.service.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.middleware import (
    RateLimiter,
    RequestContext,
    compose,
    deadline_middleware,
    rate_limit_middleware,
    request_id_middleware,
    retry_after_header,
)
from repro.service.queue import MutationQueue
from repro.service.session import DatasetSession

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Knobs of the daemon (all have serviceable defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port is printed/reported.
    k: Optional[int] = None  #: schema size (None = auto knee).
    rate: float = 50.0  #: rate-limit tokens per second per client.
    burst: float = 20.0  #: rate-limit bucket capacity.
    queue_depth: int = 16  #: write queue bound (backpressure point).
    deadline_ms: Optional[float] = 2000.0  #: default per-request deadline.
    refresh_timeout: Optional[float] = 30.0  #: budget for one refresh.
    retry_after: float = 1.0  #: advised client backoff on 503.
    breaker_threshold: int = 3
    breaker_reset: float = 0.25  #: base backoff before the first probe.
    breaker_max_backoff: float = 5.0
    cache_entries: int = 4096
    enable_chaos: bool = False  #: expose POST /chaos (tests/benches only).
    jobs: int = 1  #: worker processes for the initial extract (>1 pools).
    extractor_options: Dict[str, Any] = field(default_factory=dict)


#: Mutation ops accepted by POST /mutate, mirroring the CLI mutation
#: script: {"op": "add-link", "src": ..., "dst": ..., "label": ...} etc.
_LINK_OPS = ("add-link", "remove-link")
_OBJECT_OPS = ("add-object", "remove-object")


def parse_mutation_ops(payload: Any) -> List[tuple]:
    """JSON mutation batch -> the CLI's parsed-op tuples."""
    if not isinstance(payload, dict) or "ops" not in payload:
        raise BadRequestError('mutation body must be {"ops": [...]}')
    raw_ops = payload["ops"]
    if not isinstance(raw_ops, list) or not raw_ops:
        raise BadRequestError('"ops" must be a non-empty list')
    ops: List[tuple] = []
    for index, raw in enumerate(raw_ops):
        if not isinstance(raw, dict):
            raise BadRequestError(f"ops[{index}] must be an object")
        kind = raw.get("op")
        if kind in _LINK_OPS:
            src, dst, label = raw.get("src"), raw.get("dst"), raw.get("label")
            if not all(isinstance(x, str) and x for x in (src, dst, label)):
                raise BadRequestError(
                    f"ops[{index}]: {kind} needs string src/dst/label"
                )
            ops.append((kind, src, dst, label))
        elif kind == "add-atomic":
            obj = raw.get("object")
            if not isinstance(obj, str) or not obj or "value" not in raw:
                raise BadRequestError(
                    f"ops[{index}]: add-atomic needs object and value"
                )
            ops.append((kind, obj, raw["value"]))
        elif kind in _OBJECT_OPS:
            obj = raw.get("object")
            if not isinstance(obj, str) or not obj:
                raise BadRequestError(
                    f"ops[{index}]: {kind} needs a string object"
                )
            ops.append((kind, obj))
        else:
            raise BadRequestError(f"ops[{index}]: unknown op {kind!r}")
    return ops


class SchemaService:
    """The daemon's brain: one dataset session behind the stack."""

    def __init__(
        self,
        db: Database,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        rng: Callable[[], float] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        # One always-on recorder for the whole daemon lifetime: the
        # Prometheus endpoint exports its counters/spans, so recording
        # is not optional the way --perf-report is for the CLI.
        self.perf = PerfRecorder()
        self.session = DatasetSession(
            db,
            k=self.config.k,
            cache_entries=self.config.cache_entries,
            perf=self.perf,
            jobs=self.config.jobs,
            **self.config.extractor_options,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout=self.config.breaker_reset,
            max_backoff=self.config.breaker_max_backoff,
            clock=clock,
            **({"rng": rng} if rng is not None else {}),
        )
        self.limiter = RateLimiter(
            rate=self.config.rate, burst=self.config.burst, clock=clock
        )
        self.chaos = ChaosHooks()
        self.queue: Optional[MutationQueue] = None  # built on start()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "rate_limited": 0,
            "overloaded": 0,
            "deadline_expired": 0,
            "disconnects": 0,
            "bad_requests": 0,
        }
        self._clock = clock
        self._ready = False
        self._writer_task: Optional[asyncio.Task] = None
        self._handler = compose(
            [
                request_id_middleware(),
                rate_limit_middleware(self.limiter),
                deadline_middleware(self.config.deadline_ms, clock=clock),
            ],
            self._dispatch,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the writer task; the service becomes ready."""
        if self._ready:
            return
        self.queue = MutationQueue(
            maxsize=self.config.queue_depth,
            retry_after=self.config.retry_after,
        )
        self._writer_task = asyncio.get_running_loop().create_task(
            self.queue.worker(self._write_batch), name="schema-writer"
        )
        self._ready = True

    async def stop(self) -> None:
        """Drain accepted writes, stop the writer, become not-ready."""
        self._ready = False
        if self.queue is not None:
            await self.queue.close()
        if self._writer_task is not None:
            try:
                await asyncio.wait_for(self._writer_task, timeout=10.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._writer_task.cancel()
            self._writer_task = None

    @property
    def ready(self) -> bool:
        return bool(
            self._ready
            and self._writer_task is not None
            and not self._writer_task.done()
        )

    # ------------------------------------------------------------------
    # The single writer
    # ------------------------------------------------------------------
    async def _write_batch(self, ops: List[tuple]) -> Dict[str, Any]:
        """Apply one batch, then try to fold the pending delta in.

        Runs only in the writer task.  The CPU-heavy differential
        refresh runs in a thread so reads stay responsive; the session
        snapshot swap happens back on the loop, so readers never see a
        half-adopted typing.
        """
        await self.chaos.before_mutate()
        log = self.session.apply_batch(ops)  # atomic; raises on poison
        self.session.note_changes(log)
        refreshed = False
        if self.session.stale and self.breaker.allow():
            refreshed = await self._try_refresh()
        return {
            "applied": len(ops),
            "changes": log.summary(),
            "refreshed": refreshed,
            "stale": self.session.stale,
            "epoch": self.session.epoch,
        }

    async def _try_refresh(self) -> bool:
        """One guarded refresh attempt; reports to the breaker."""
        budget = None
        if self.config.refresh_timeout is not None:
            budget = Budget(timeout=self.config.refresh_timeout)

        def run() -> bool:
            self.chaos.before_refresh()
            return self.session.refresh(budget=budget)

        try:
            refreshed = await asyncio.get_running_loop().run_in_executor(
                None, run
            )
        except Exception as exc:
            logger.warning("refresh failed: %s", exc)
            self.session.record_refresh_failure(exc)
            self.breaker.record_failure(str(exc))
            return False
        self.breaker.record_success()
        return refreshed

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        """Full middleware stack + dispatch; never raises."""
        self.counters["requests"] += 1
        ctx = RequestContext(client=request.client)
        try:
            return await self._handler(request, ctx)
        except RateLimitedError as exc:
            self.counters["rate_limited"] += 1
            return Response.json(
                {"error": str(exc), "request_id": ctx.request_id},
                status=exc.status,
                **{"Retry-After": retry_after_header(exc.retry_after)},
            )
        except OverloadedError as exc:
            self.counters["overloaded"] += 1
            return Response.json(
                {"error": str(exc), "request_id": ctx.request_id},
                status=exc.status,
                **{"Retry-After": retry_after_header(exc.retry_after)},
            )
        except (BadRequestError, NotFoundError, ProtocolError) as exc:
            self.counters["bad_requests"] += 1
            return Response.json(
                {"error": str(exc), "request_id": ctx.request_id},
                status=exc.status,
            )
        except ServiceError as exc:
            return Response.json(
                {"error": str(exc), "request_id": ctx.request_id},
                status=exc.status,
            )
        except ReproError as exc:
            self.counters["bad_requests"] += 1
            return Response.json(
                {"error": str(exc), "request_id": ctx.request_id}, status=400
            )
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            logger.exception("[%s] unhandled error", ctx.request_id)
            return Response.json(
                {"error": f"internal error: {exc}",
                 "request_id": ctx.request_id},
                status=500,
            )

    async def _dispatch(
        self, request: Request, ctx: RequestContext
    ) -> Response:
        """The route table (after the middleware stack)."""
        method, path = request.method, request.path
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/status" and method == "GET":
            if request.query.get("format") == "prometheus":
                return Response.text(
                    render_prometheus(self._status(), self.perf),
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            return Response.json(self._status())
        if path == "/schema" and method == "GET":
            return Response.json(self.session.schema())
        if path.startswith("/lookup/") and method == "GET":
            obj = path[len("/lookup/"):]
            return Response.json(self.session.lookup(obj, budget=ctx.budget))
        if path == "/lookup" and method == "GET":
            obj = request.query.get("object")
            if not obj:
                raise BadRequestError("GET /lookup needs ?object=<id>")
            return Response.json(self.session.lookup(obj, budget=ctx.budget))
        if path == "/classify" and method == "POST":
            payload = request.json()
            if not isinstance(payload, dict) or not isinstance(
                payload.get("links"), list
            ):
                raise BadRequestError('classify body must be {"links": [...]}')
            return Response.json(
                self.session.classify(payload["links"], budget=ctx.budget)
            )
        if path == "/mutate" and method == "POST":
            return await self._mutate(request, ctx)
        if path == "/refresh" and method == "POST":
            return await self._force_refresh()
        if path == "/chaos" and method == "POST":
            return self._chaos(request)
        raise NotFoundError(f"no route for {method} {path}")

    # -- individual routes ---------------------------------------------
    def _healthz(self) -> Response:
        """Liveness + degradation: 503 while the breaker is open."""
        if self.breaker.state == CircuitBreaker.OPEN:
            return Response.json(
                {
                    "status": "degraded",
                    "breaker": self.breaker.state,
                    "stale": self.session.stale,
                },
                status=503,
                **{"Retry-After": retry_after_header(self.breaker.retry_after())},
            )
        return Response.json(
            {"status": "ok", "breaker": self.breaker.state,
             "stale": self.session.stale}
        )

    def _readyz(self) -> Response:
        if not self.ready:
            return Response.json({"status": "not ready"}, status=503)
        return Response.json({"status": "ready"})

    def _status(self) -> Dict[str, Any]:
        status = self.session.status()
        status["breaker"] = self.breaker.snapshot()
        status["queue"] = (
            self.queue.snapshot() if self.queue is not None else None
        )
        status["requests"] = dict(self.counters)
        status["ready"] = self.ready
        return status

    async def _mutate(self, request: Request, ctx: RequestContext) -> Response:
        ops = parse_mutation_ops(request.json())
        if self.queue is None or not self.ready:
            raise OverloadedError(
                "service is not accepting writes",
                retry_after=self.config.retry_after,
            )
        future = self.queue.submit(ops)  # raises OverloadedError when full
        timeout = (
            ctx.budget.remaining_timeout() if ctx.budget is not None else None
        )
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(future), timeout=timeout
            )
        except asyncio.TimeoutError:
            # The write is still queued and WILL be applied; the client
            # just isn't waiting around for it any more.
            self.counters["deadline_expired"] += 1
            return Response.json(
                {
                    "accepted": True,
                    "completed": False,
                    "error": "deadline expired while the write was queued",
                    "request_id": ctx.request_id,
                },
                status=202,
            )
        return Response.json({**outcome, "request_id": ctx.request_id})

    async def _force_refresh(self) -> Response:
        """Admin: run one refresh attempt through the breaker."""
        if self.queue is None or not self.ready:
            raise OverloadedError(
                "service is not accepting writes",
                retry_after=self.config.retry_after,
            )
        if not self.session.stale:
            return Response.json({"refreshed": False, "stale": False,
                                  "epoch": self.session.epoch})
        if not self.breaker.allow():
            raise OverloadedError(
                f"refresh breaker is {self.breaker.state}",
                retry_after=max(self.breaker.retry_after(),
                                self.config.retry_after),
            )
        refreshed = await self._try_refresh()
        return Response.json(
            {
                "refreshed": refreshed,
                "stale": self.session.stale,
                "epoch": self.session.epoch,
                "breaker": self.breaker.state,
            }
        )

    def _chaos(self, request: Request) -> Response:
        if not self.config.enable_chaos:
            raise NotFoundError("chaos endpoint is not enabled")
        payload = request.json()
        if payload:
            if not isinstance(payload, dict):
                raise BadRequestError("chaos body must be an object")
            if payload.pop("reset", False):
                self.chaos.reset()
            self.chaos.arm(**payload)
        return Response.json(self.chaos.snapshot())

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read a request, answer, close.

        Client disconnects at any point are counted and absorbed — a
        half-sent request or a reader that went away must never take
        the daemon down or wedge the writer queue.
        """
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "?"
        try:
            try:
                request = await read_request(reader, client=client)
            except ProtocolError as exc:
                writer.write(Response.json(
                    {"error": str(exc)}, status=exc.status).encode())
                await writer.drain()
                return
            except ServiceError as exc:
                writer.write(Response.json(
                    {"error": str(exc)}, status=exc.status).encode())
                await writer.drain()
                return
            if request is None:
                self.counters["disconnects"] += 1
                return
            response = await self.handle(request)
            if self.chaos.drop_response():
                return  # chaos: sever without answering
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self.counters["disconnects"] += 1
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


async def serve(
    db: Database,
    config: Optional[ServiceConfig] = None,
    *,
    announce: Callable[[str], None] = print,
    install_signal_handlers: bool = True,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; returns the exit code.

    ``announce`` receives the ``listening on HOST:PORT`` discovery line
    once the socket is bound (the CI smoke test and the bench harness
    parse it to find the ephemeral port).
    """
    config = config or ServiceConfig()
    service = SchemaService(db, config)
    await service.start()
    server = await asyncio.start_server(
        service.handle_connection, config.host, config.port
    )
    host, port = server.sockets[0].getsockname()[:2]
    announce(f"listening on {host}:{port}")

    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    try:
        await stop_event.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()
    announce("shutdown complete")
    return 0
