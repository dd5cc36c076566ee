"""service-mixed: the schema daemon under an open-loop read/write mix.

The daemon is ``repro serve`` with its default ``--jobs 1``, started by
``serve_launcher.py`` on dbg-1998 (the seed drives the request stream,
not the dataset).  One client process
drives it over at most two connections at a time: a read lane and a
write lane, each sending its requests at a fixed rate and timing every
request from its due time, so a stall that delays later requests shows
in their latency (the lane's own lateness is reported too).  The rates
derive from the daemon's closed-loop service times (``capacity.py``).

* Reads are ``GET /lookup/<obj>`` of assigned objects and
  ``POST /classify`` of seeded hypothetical bodies drawn from a small
  pool, so bodies repeat between writes and can hit ``MaskCache``.
* Writes are ``POST /mutate`` batches cycling through a single-edge
  remove, the re-add of that edge, and a small object add.  A write is
  done when the daemon answers non-stale at an epoch above every epoch
  seen before it was sent (the ``/mutate`` answer today; a ``/lookup``
  poll otherwise), so acknowledging before refreshing cannot look
  faster.

Set-up time is daemon spawn to ``/readyz`` 200, the median over three
daemon starts; the third daemon is the one measured.  At the end,
every complex object's ``/lookup`` is compared with a from-scratch
``SchemaExtractor`` at the served k on the client's mirror database.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import selectors
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

import inputs
import layers
from common import (
    BENCH_DIR,
    REFERENCE_PROBE_MS,
    WORK,
    Probe,
    cpu_plan,
    median,
    percentile,
    pin,
    scaled,
    spawn,
    stop,
)
from report import Outcome

#: Closed-loop ``/mutate`` service time (ms, p50) of the daemon on
#: dbg-1998: one write at a time, no reads, measured with
#: ``capacity.py`` on the 2-vCPU development box.  The offered load
#: derives from it and from the tail rule (README, "Offered load").
MUTATE_MS = 130.0
#: Writes per second, a fifth of the closed-loop write capacity: the
#: 650 ms between writes stays above a refresh under the read load even
#: in the box's slow phase, so a write seldom waits for the one before
#: it and ``op_p50_ms`` times a refresh, not a backlog.
WRITE_RATE = 0.2 * 1000.0 / MUTATE_MS
#: Reads per second: the fewest that give ``read_tail_ms`` a p99 in a
#: 30 s run (1000 reads leave 10 beyond it), rounded up.
READ_RATE = 40.0
#: Lookups among reads; the rest are classifies.  No trace of real read
#: traffic exists, so neither route is favoured.
LOOKUP_SHARE = 0.5
#: Distinct hypothetical bodies: three epochs' worth of classifies, so
#: about one classify in seven repeats a body already classified at its
#: epoch (a ``MaskCache`` hit).  The repeat share is an assumption.
CLASSIFY_BODIES = round(3 * READ_RATE * (1 - LOOKUP_SHARE) / WRITE_RATE)
SETUPS = 3  #: daemon starts per run; the last one is measured
#: The served dataset: dbg-1998, the instance ``repro generate dbg``
#: emits.  One fixed dataset keeps runs comparable (a refresh's cost
#: depends mostly on the dataset); the seed drives the request stream.
DATASET_SEED = 1998
#: Deployment settings: rate limits above the offered load, and a
#: request deadline no refresh on this dataset comes near.
SERVE_ARGS = ["--port", "0", "--rate", "100000", "--burst", "100000",
              "--deadline-ms", "10000"]
STARTUP_TIMEOUT = 120.0
FRESH_TIMEOUT = 30.0
#: The probe is sampled this long (s) before each write is due: time
#: for one loop (16-37 ms) with reads sharing the CPU, so the sample
#: ends before the write is sent and brackets it with the one after.
PROBE_LEAD = 0.1


# ---------------------------------------------------------------------------
# The open-loop lane
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One request of a lane: due, sent and done times plus its answer."""

    due: float
    sent: float
    done: float
    result: Any

    @property
    def latency(self) -> float:
        """Seconds from the due time to the (fresh) answer."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the lane sent this request after its due time."""
        return self.sent - self.due


def run_lane(plan: Sequence[Tuple[float, Any]],
             perform: Callable[[Any], Any],
             clock: Callable[[], float] = time.perf_counter,
             sleep: Callable[[float], None] = time.sleep,
             after: Optional[Callable[[Sample], None]] = None,
             before: Optional[Callable[[], None]] = None,
             lead: float = 0.0) -> List[Sample]:
    """Send each ``(due, request)`` at its due time, one at a time.

    A request whose due time passed while the previous one was still
    out is sent at once and keeps its due time, so waiting behind a
    slow answer counts in its latency.  ``after`` runs untimed once
    each request is done; time it takes makes later requests late.
    ``before`` runs ``lead`` seconds ahead of a due time, and only when
    the lane still has that long, so it never delays a send by itself.
    """
    samples = []
    for due, request in plan:
        if before is not None and due - clock() >= lead:
            sleep(max(due - lead - clock(), 0.0))
            before()
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        sent = clock()
        result = perform(request)
        samples.append(Sample(due, sent, clock(), result))
        if after is not None:
            after(samples[-1])
    return samples


# ---------------------------------------------------------------------------
# HTTP and the daemon
# ---------------------------------------------------------------------------


def call(address: Tuple[str, int], method: str, path: str,
         body: Any = None, request_id: Optional[str] = None,
         timeout: float = 60.0) -> Tuple[int, Any]:
    """One request on a fresh connection; ``(status, parsed body)``."""
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        headers = {"X-Client-Id": "e2ebench"}
        if request_id:
            headers["X-Request-Id"] = request_id
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        if "json" in (response.getheader("Content-Type") or ""):
            return response.status, json.loads(raw)
        return response.status, raw.decode()
    finally:
        connection.close()


def _read_line(stream, timeout: float) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(stream, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise TimeoutError(f"no output from the daemon in {timeout}s")
    return stream.readline()


class Daemon:
    """One ``serve`` process; spawn time is taken just before Popen."""

    def __init__(self, data_path: str, token: str, cpus: Set[int],
                 spans: Optional[str] = None) -> None:
        args = [str(BENCH_DIR / "serve_launcher.py")]
        if spans:
            args += ["--spans", spans]
        args += ["--", data_path] + SERVE_ARGS
        self.spawned = time.perf_counter()
        self.proc: Optional[subprocess.Popen] = spawn(
            args, token, cpus, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        line = _read_line(self.proc.stdout, STARTUP_TIMEOUT).strip()
        if not line.startswith("listening on "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, _, port = line[len("listening on "):].rpartition(":")
        self.address = (host, int(port))
        while call(self.address, "GET", "/readyz")[0] != 200:
            time.sleep(0.005)
        self.ready = time.perf_counter()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def shutdown(self) -> Optional[str]:
        """Graceful stop; returns a failure description or ``None``."""
        proc, self.proc = self.proc, None
        proc.stdin.close()  # the launcher turns end of input into SIGINT
        proc.stdin = None
        try:
            rest, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            stop(proc)
            return "daemon did not shut down within 30 s"
        stop(proc)
        if proc.returncode != 0 or "shutdown complete" not in rest:
            return f"unclean shutdown (exit {proc.returncode}): {rest!r}"
        return None

    def close(self) -> None:
        stop(self.proc)
        self.proc = None


# ---------------------------------------------------------------------------
# The seeded request plan
# ---------------------------------------------------------------------------


def mutation_batches(db, rng: random.Random, count: int
                     ) -> List[List[dict]]:
    """Mutation batches: remove an edge, re-add it, add an object."""
    edges = sorted((e.src, e.dst, e.label) for e in db.edges())
    complex_objects = sorted(db.complex_objects())
    batches: List[List[dict]] = []
    for index in range(count):
        step = index % 3
        if step == 0:
            src, dst, label = rng.choice(edges)
            edge = {"src": src, "dst": dst, "label": label}
            batches.append([{"op": "remove-link", **edge}])
        elif step == 1:
            batches.append([{"op": "add-link", **edge}])
        else:
            new, atom = f"bench_n{index}", f"bench_a{index}"
            batches.append([
                {"op": "add-object", "object": new},
                {"op": "add-atomic", "object": atom,
                 "value": f"bench-value-{index}"},
                {"op": "add-link", "src": new, "dst": atom, "label": "name"},
                {"op": "add-link", "src": new,
                 "dst": rng.choice(complex_objects), "label": "project"},
            ])
    return batches


def classify_bodies(db, rng: random.Random, count: int
                    ) -> List[List[dict]]:
    """Hypothetical bodies: copies of ``count`` random objects' out-links."""
    bodies = []
    for obj in rng.sample(sorted(db.complex_objects()), count):
        links = []
        for edge in sorted(db.out_edges(obj),
                           key=lambda e: (e.label, e.dst)):
            target = None if db.is_atomic(edge.dst) else edge.dst
            links.append({"direction": "out", "label": edge.label,
                          "target": target})
        bodies.append(links)
    return bodies


def make_plan(db, seed: int, seconds: float, start: float
              ) -> Tuple[List[Tuple[float, tuple]], List[Tuple[float, tuple]]]:
    """``(reads, writes)``: ``(due, request)`` lists for the two lanes."""
    rng = random.Random(seed)
    objects = sorted(db.complex_objects())
    bodies = classify_bodies(db, rng, CLASSIFY_BODIES)
    reads = []
    for index in range(int(seconds * READ_RATE)):
        due = start + index / READ_RATE
        if rng.random() < LOOKUP_SHARE:
            reads.append((due, ("lookup", rng.choice(objects))))
        else:
            reads.append((due, ("classify", rng.choice(bodies))))
    count = int(seconds * WRITE_RATE)
    writes = [
        (start + (index + 0.5) / WRITE_RATE, ("mutate", batch))
        for index, batch in enumerate(mutation_batches(db, rng, count))
    ]
    return reads, writes


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class Client:
    """The two lanes' request logic, the epoch check and the mirror.

    ``epoch`` is the highest epoch any answer has shown; an answer to a
    request sent after that must not show a lower one.
    """

    def __init__(self, address: Tuple[str, int], mirror: Any) -> None:
        self.address = address
        self.mirror = mirror  # the client's copy of the database
        self.problems: List[str] = []
        self.epoch = -1
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _floor(self) -> int:
        with self._lock:
            return self.epoch

    def _saw(self, epoch: int, floor: int, what: str) -> bool:
        with self._lock:
            self.epoch = max(self.epoch, epoch)
        if epoch < floor:
            self.problems.append(
                f"{what}: epoch {epoch} below {floor} seen before sending")
            return False
        return True

    def read(self, request: tuple) -> Dict[str, Any]:
        kind, target = request
        floor = self._floor()
        rid = f"r{next(self._ids)}"
        if kind == "lookup":
            status, body = call(self.address, "GET", f"/lookup/{target}",
                                request_id=rid)
        else:
            status, body = call(self.address, "POST", "/classify",
                                {"links": target}, request_id=rid)
        ok = status == 200 and self._saw(body["epoch"], floor, rid)
        if status != 200:
            self.problems.append(f"{kind} {rid}: HTTP {status} {body}")
        return {"kind": kind, "ok": ok,
                "stale": bool(ok and body.get("stale"))}

    def write(self, request: tuple) -> Dict[str, Any]:
        _, batch = request
        floor = self._floor()
        rid = f"w{next(self._ids)}"
        status, body = call(self.address, "POST", "/mutate",
                            {"ops": batch}, request_id=rid)
        if status != 200 or body.get("completed") is False:
            self.problems.append(f"mutate {rid}: HTTP {status} {body}")
            return {"ok": False, "rid": rid}
        self._apply_to_mirror(batch)
        if not self._saw(body["epoch"], floor, rid):
            return {"ok": False, "rid": rid}
        if body["stale"] or body["epoch"] <= floor:
            touched = batch[0].get("src") or batch[0]["object"]
            if not self._poll_fresh(touched, floor, rid):
                return {"ok": False, "rid": rid}
        return {"ok": True, "rid": rid}

    def _poll_fresh(self, obj: str, floor: int, rid: str) -> bool:
        deadline = time.perf_counter() + FRESH_TIMEOUT
        while time.perf_counter() < deadline:
            status, body = call(self.address, "GET", f"/lookup/{obj}")
            if status != 200:
                self.problems.append(f"fresh poll {rid}: HTTP {status}")
                return False
            self._saw(body["epoch"], floor, rid)
            if not body["stale"] and body["epoch"] > floor:
                return True
            time.sleep(0.005)
        self.problems.append(f"mutate {rid}: not fresh in {FRESH_TIMEOUT}s")
        return False

    def _apply_to_mirror(self, batch: List[dict]) -> None:
        for op in batch:
            kind = op["op"]
            if kind == "add-link":
                self.mirror.add_link(op["src"], op["dst"], op["label"])
            elif kind == "remove-link":
                self.mirror.remove_link(op["src"], op["dst"], op["label"])
            elif kind == "add-atomic":
                self.mirror.add_atomic(op["object"], op["value"])
            elif kind == "add-object":
                self.mirror.add_complex(op["object"])


def _perf_counters(address: Tuple[str, int]) -> Dict[str, float]:
    """The daemon's PerfRecorder counters from the Prometheus scrape."""
    status, text = call(address, "GET", "/status?format=prometheus")
    if status != 200:
        raise RuntimeError(f"prometheus scrape answered {status}")
    counters: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith('repro_perf_counter{name="'):
            name, _, value = line[len('repro_perf_counter{name="'):] \
                .partition('"} ')
            counters[name] = float(value)
    return counters


def run(workload: str, seed: int, seconds: float, trace: bool,
        token: str, clock) -> Outcome:
    from repro.core.pipeline import SchemaExtractor
    from repro.graph.oem import loads_oem

    op_cpus, client_cpus = cpu_plan()
    daemon_cpus = {min(op_cpus)}  # serve --jobs 1: one busy thread
    pin(0, client_cpus)
    probe = Probe(token, daemon_cpus)
    daemons: List[Daemon] = []
    problems: List[str] = []
    setup_raw: List[float] = []
    setup_scaled: List[float] = []
    spans_path = str(WORK / f"{token}-spans.json") if trace else None
    daemon_failures = 0
    text = inputs.dbg_text(DATASET_SEED)
    data_path = WORK / f"{token}-data.oem"
    data_path.write_text(text, encoding="utf-8")
    try:
        for index in range(SETUPS):
            last = index == SETUPS - 1
            before = probe.sample()
            daemon = Daemon(str(data_path), token, daemon_cpus,
                            spans_path if last else None)
            daemons.append(daemon)
            setup_raw.append(daemon.ready - daemon.spawned)
            setup_scaled.append(
                scaled(setup_raw[-1], before, probe.sample()))
            if last:
                break
            failure = daemon.shutdown()
            if failure:
                daemon_failures += 1
                problems.append(f"set-up daemon {index}: {failure}")

        counters_before = _perf_counters(daemon.address) if trace else {}
        mirror = loads_oem(text)
        client = Client(daemon.address, mirror)
        start = clock() + 0.2
        read_plan, write_plan = make_plan(mirror, seed, seconds, start)
        results: Dict[str, List[Sample]] = {}

        last_probe = [probe.sample()]

        # The probe runs on the daemon's CPU just before and just after
        # each write (after the previous write when the lane runs late).
        def probe_before_write() -> None:
            last_probe[0] = probe.sample()

        def probe_after_write(sample: Sample) -> None:
            sample.result["probe"] = (last_probe[0], probe.sample())
            last_probe[0] = sample.result["probe"][1]

        def lane(name, plan, perform, after=None, before=None):
            try:
                results[name] = run_lane(plan, perform, clock, after=after,
                                         before=before, lead=PROBE_LEAD)
            except Exception as exc:  # noqa: BLE001 - reported as failure
                problems.append(f"{name} lane crashed: {exc!r}")
                results[name] = []

        threads = [
            threading.Thread(target=lane,
                             args=("reads", read_plan, client.read)),
            threading.Thread(target=lane,
                             args=("writes", write_plan, client.write,
                                   probe_after_write, probe_before_write)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured_s = clock() - start

        status = call(daemon.address, "GET", "/status")[1]
        counters_after = _perf_counters(daemon.address) if trace else {}
        oracle = SchemaExtractor(mirror.copy()).extract(k=status["k"])
        mismatches = 0
        checked = sorted(mirror.complex_objects())
        for obj in checked:
            code, body = call(daemon.address, "GET", f"/lookup/{obj}")
            want = sorted(oracle.assignment.get(obj, frozenset()))
            if code != 200 or body["stale"] or body["types"] != want:
                mismatches += 1
                problems.append(
                    f"final lookup {obj}: HTTP {code} {body} != oracle {want}")
        peak_rss = daemon.peak_rss_mb()
        failure = daemon.shutdown()
        if failure:
            daemon_failures += 1
            problems.append(f"measured daemon: {failure}")
    finally:
        for daemon in daemons:
            daemon.close()
        probe.close()

    reads, writes = results.get("reads", []), results.get("writes", [])
    problems.extend(client.problems)
    failed_reads = sum(not s.result["ok"] for s in reads)
    failed_writes = sum(not s.result["ok"] for s in writes)
    answered = [s for s in reads if s.result["ok"]]
    stale = sum(s.result["stale"] for s in answered)
    fresh = [s for s in writes if s.result["ok"]]
    fresh_raw = [1000.0 * s.latency for s in fresh]
    fresh_scaled = [scaled(1000.0 * s.latency, *s.result["probe"])
                    for s in fresh]
    read_ms = [1000.0 * s.latency for s in answered]
    lateness = [1000.0 * s.lateness for s in reads + writes]
    probes = probe.samples

    out = Outcome(workload=workload, failures=problems)
    out.attempted = SETUPS + len(reads) + len(writes) + len(checked)
    out.failed = (failed_reads + failed_writes + mismatches
                  + daemon_failures)
    out.metric("setup_s", median(setup_scaled), "s", len(setup_scaled),
               "median daemon spawn to /readyz 200 on dbg-1998, "
               "probe-scaled; raw " + ", ".join(
                   f"{v:.3f}" for v in setup_raw))
    out.metric("peak_rss_mb", peak_rss, "MB", 1, "daemon peak RSS (VmHWM)")
    out.metric("op_p50_ms", median(fresh_scaled) if fresh_scaled else 0.0,
               "ms", len(fresh_scaled),
               "write due time to fresh answer, probe-scaled; raw p50 "
               f"{median(fresh_raw) if fresh_raw else 0.0:.1f} ms")
    out.tail("op", fresh_scaled, "ms")
    out.note("read_p50_ms", median(read_ms) if read_ms else 0.0, "ms",
             len(read_ms), "read due time to full response, raw")
    out.tail("read", read_ms, "ms")
    out.note("stale_read_ratio", stale / len(answered) if answered else 0.0,
             "ratio", len(answered), "reads answered stale: true")
    out.note("lateness_p50_ms", median(lateness) if lateness else 0.0, "ms",
             len(lateness), "lane send time minus due time; max "
             f"{max(lateness) if lateness else 0.0:.1f} ms")
    out.note("probe_ms", median(probes), "ms", len(probes),
             f"reference probe p50 (p25 {percentile(probes, 25):.1f}, "
             f"p75 {percentile(probes, 75):.1f}); "
             f"reference {REFERENCE_PROBE_MS:g} ms")
    out.note("measured_s", measured_s, "s", len(reads) + len(writes),
             f"{READ_RATE:g} reads/s and {WRITE_RATE:g} writes/s offered")
    if trace:
        layers.service_report(out, writes, spans_path,
                              counters_before, counters_after, status)
    return out
