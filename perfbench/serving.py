"""The ``serve_mixed`` workload: ``repro serve`` under a mixed load.

The server runs in its own process (``repro serve --workers 2``) over a
store the program filled in an untimed step.  The benchmark process is
the only client: two sender threads send requests, one connection per
request (``Connection: close``), as the program's own ``repro loadtest``
does.  They first drain fixed request sets as fast as the server
answers (closed loop), then send on fixed schedules (open loop) at
shares of the closed-loop rate.  A keep-alive client would time
a different thing: the server writes headers and body in two sends, so
on a reused connection Nagle's algorithm and the client's delayed ACK
hold each response about 40 ms.  A request
is timed from when it was due, so a stall also charges the requests it
delayed; how late the generator sent is recorded on its own.

The mix has three parts, drawn per request from a seeded generator:

* a Zipf-skewed head of repeated analysis, query and table-page
  requests, which the server's response cache answers;
* a tail of unique per-site, per-round point queries, which miss the
  cache and reach the query kernels;
* observer-report requests.

Sampled response bodies are compared byte for byte with the same
request computed server-free, from the same store, in this process.
"""

from __future__ import annotations

import gc
import http.client
import json
import pathlib
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import common
import layers
from batch import Tally, check_invocation, export_digest

SERVE_SCALE = 0.3
WORKERS = 2
#: sender threads (= connections); the machine's two cores bound this.
CONNECTIONS = 2
#: The server runs on the first CPU.  The senders join it there for the
#: closed-loop drains: across two CPUs, a drain's rate halved between
#: runs whose CPU speed read the same, because every request waits on
#: a wake-up across CPUs.  For the open-loop steps the senders move to
#: the second CPU: on one shared CPU, scheduler time slices alone put
#: the p99 at half capacity above 10 ms.
SERVER_CPU = common.CPUS[0]
CLIENT_CPU = common.CPUS[1] if len(common.CPUS) > 1 else common.CPUS[0]
#: seconds between speed samples on the server's CPU during set-up and
#: drains; a drain lasts 0.1 to 0.5 s.
PROBE_INTERVAL_S = 0.025
SETUP_SPAWNS = 3
#: closed-loop drains (``wall_s``): requests per drain, and drains.
DRAIN_REQUESTS = 600
DRAINS = 15
#: the offered rates, as shares of the closed-loop rate of one drain
#: sent from the client's CPU: 12 % steps from half that rate to 1.74
#: times it, past where two senders fall behind their schedule, so the
#: highest rate that meets the limit is set by the server, not by the
#: last step.  The first step is the reference rate.
RATE_SHARES = tuple(0.5 * 1.12 ** step for step in range(12))
#: requests per offered rate, per second of ``--seconds``.  The count
#: depends only on ``--seconds``, so a seed draws the same requests on
#: any machine; the measured capacity sets only the pacing.
STEP_REQUESTS_PER_S = 100
#: latency limit on the tail percentile for a rate to count as met:
#: about ten times the p99 at half capacity on the reference machine.
LIMIT_MS = 10.0
#: a request that takes longer than this counts as failed.
DEADLINE_S = 5.0
#: mix composition.  The tail share is the miss fraction of the
#: program's own load mix, ``BENCH_serve.json`` (44 misses in 240
#: requests).  The observer share is an assumption: that mix has no
#: observer requests.  The head takes the rest.
TAIL_SHARE = 44 / 240
OBSERVER_SHARE = 0.05
HEAD_SHARE = 1.0 - TAIL_SHARE - OBSERVER_SHARE
#: Zipf exponent of the head, ``repro.data.loadtest.DEFAULT_ZIPF_S``.
ZIPF_S = 1.1
#: the tables paged by the head: ``repro.data.columnar.TABLE_SCHEMAS``.
TABLES = ("dns", "dns_counts", "page_checks", "downloads", "paths", "faults",
          "transitions")
#: every k-th request's body is kept and compared server-free.
VERIFY_EVERY = 10


def serve_argv(store: pathlib.Path, port: int) -> list[str]:
    return ["serve", "--port", str(port), "--cache-dir", str(store),
            "--workers", str(WORKERS)]


def prepare_argv(seed: int, store: pathlib.Path, out: pathlib.Path):
    return ["export", "--out", str(out), "--scale", str(SERVE_SCALE),
            "--seed", str(seed), "--cache-dir", str(store)]


# ---------------------------------------------------------------------------
# the seeded request generator


@dataclass(frozen=True)
class Request:
    part: str  # "head", "tail" or "observer"
    method: str
    path: str
    body: bytes | None = None


def _json(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def head_templates(digest: str, vantages: list[str]) -> list[Request]:
    """The repeated requests, in Zipf rank order (hottest first).

    They are the hot set of the program's load mix
    (``repro.data.loadtest.build_templates``, everything before its
    per-site tail): per vantage a grouped download query, a
    classification and a grouped path query; the campaign detail; then
    the first page of every table per vantage."""
    base = f"/campaigns/{digest}"
    templates = []
    for vantage in vantages:
        templates.append(Request("head", "POST", f"{base}/query", _json({
            "vantage": vantage, "table": "downloads",
            "where": [{"column": "converged", "op": "eq", "value": True}],
            "group_by": ["family"],
            "aggregates": [{"op": "count", "alias": "n"},
                           {"op": "mean", "column": "mean_speed",
                            "alias": "speed"}],
        })))
        templates.append(Request("head", "GET",
                                 f"{base}/analysis/classify?vantage={vantage}"))
        templates.append(Request("head", "POST", f"{base}/query", _json({
            "vantage": vantage, "table": "paths",
            "group_by": ["family", "dest_asn"],
            "aggregates": [{"op": "count", "alias": "routes"}],
        })))
    templates.append(Request("head", "GET", base))
    for vantage in vantages:
        for table in TABLES:
            templates.append(Request(
                "head", "GET",
                f"{base}/tables/{table}?vantage={vantage}&offset=0&limit=200"))
    return templates


def tail_request(digest: str, vantage: str, site: int, rnd: int) -> Request:
    return Request("tail", "POST", f"/campaigns/{digest}/query", _json({
        "vantage": vantage, "table": "downloads",
        "where": [{"column": "site_id", "op": "eq", "value": site},
                  {"column": "round", "op": "eq", "value": rnd}],
        "select": ["family", "mean_speed", "ci_half_width", "converged"],
    }))


class MixGenerator:
    """An endless, seeded request sequence over one campaign.

    Tail keys ``(vantage, site, round)`` are drawn without replacement,
    so no tail request repeats and each one misses the response cache.
    """

    def __init__(self, seed: int, digest: str, vantages: list[str],
                 site_rounds: dict[str, list[tuple[int, int]]],
                 observers: list[str]) -> None:
        self.rng = random.Random(seed)
        self.digest = digest
        self.head = head_templates(digest, sorted(vantages))
        weights = [(rank + 1) ** -ZIPF_S for rank in range(len(self.head))]
        total = sum(weights)
        self.cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self.cumulative.append(acc)
        self.tail_keys = [
            (vantage, site, rnd)
            for vantage in sorted(site_rounds)
            for site, rnd in sorted(site_rounds[vantage])
        ]
        self.rng.shuffle(self.tail_keys)
        self.observers = sorted(observers)
        self.counts = {"head": 0, "tail": 0, "observer": 0}

    def next(self) -> Request:
        draw = self.rng.random()
        if draw < HEAD_SHARE:
            pick = self.rng.random()
            rank = next((i for i, c in enumerate(self.cumulative) if pick <= c),
                        len(self.head) - 1)
            request = self.head[rank]
        elif draw < HEAD_SHARE + TAIL_SHARE and self.tail_keys:
            request = tail_request(self.digest, *self.tail_keys.pop())
        else:
            name = self.observers[self.rng.randrange(len(self.observers))]
            request = Request(
                "observer", "GET", f"/campaigns/{self.digest}/observers/{name}")
        self.counts[request.part] += 1
        return request

    def take(self, n: int) -> list[Request]:
        return [self.next() for _ in range(n)]


# ---------------------------------------------------------------------------
# the server-free reference


class Reference:
    """The program's request core over the same store, with no server
    and no response cache: what every served body must equal."""

    def __init__(self, store: pathlib.Path) -> None:
        if str(common.SRC) not in sys.path:
            sys.path.insert(0, str(common.SRC))
        from repro.data.serve import ServeApp, ServeConfig, canonical_json
        from repro.engine.store import CampaignStore

        self._canonical = canonical_json
        self._bodies: dict[Request, bytes] = {}
        self.app = ServeApp(
            CampaignStore(store),
            ServeConfig(cache_root=str(store), response_cache_entries=0,
                        workers=0),
        )

    def payload(self, method: str, path: str, body=None) -> dict:
        route, _, query = path.partition("?")
        params = dict(p.split("=", 1) for p in query.split("&")) if query else {}
        status, payload = self.app.handle(method, route, params, body)
        if status != 200:
            raise RuntimeError(f"server-free {method} {path}: {status}")
        return payload

    def body(self, request: Request) -> bytes:
        expected = self._bodies.get(request)
        if expected is None:
            expected = self._canonical(
                self.payload(request.method, request.path, request.body))
            self._bodies[request] = expected
        return expected

    def campaign(self) -> tuple[str, list[str], dict, list[str]]:
        """(digest, vantages, per-vantage (site, round) keys, observers)."""
        listing = self.payload("GET", "/campaigns")["campaigns"]
        digest = next(c["digest"] for c in listing if c["kind"] == "weekly")
        detail = self.payload("GET", f"/campaigns/{digest}")
        vantages = sorted(detail["vantages"])
        site_rounds = {}
        for vantage in vantages:
            result = self.payload("POST", f"/campaigns/{digest}/query", _json({
                "vantage": vantage, "table": "downloads",
                "group_by": ["site_id", "round"],
                "aggregates": [{"op": "count", "alias": "n"}],
            }))
            columns = result["columns"]
            site_rounds[vantage] = list(zip(columns["site_id"],
                                            columns["round"]))
        observers = [o["name"] for o in self.payload("GET", "/observers")
                     ["observers"]]
        return digest, vantages, site_rounds, observers


# ---------------------------------------------------------------------------
# driving the server


@dataclass
class Outcome:
    request: Request
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    cache: str = ""
    body: bytes | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0

    def ok(self) -> bool:
        return (self.error is None and 200 <= self.status < 300
                and self.done - self.due <= DEADLINE_S)


def _send(port: int, request: Request):
    headers = {"Connection": "close"}
    if request.body:
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE_S)
    try:
        conn.request(request.method, request.path, body=request.body,
                     headers=headers)
        response = conn.getresponse()
        return (response.status,
                response.getheader("X-Repro-Response-Cache", ""),
                response.read())
    finally:
        conn.close()


def drive(port: int, requests: list[Request], rate: float | None,
          keep_every: int = VERIFY_EVERY) -> list[Outcome]:
    """Send ``requests``: open loop at ``rate`` requests per second, or
    closed loop (each sender sends as soon as it is free) when None."""
    outcomes: list[Outcome | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.01

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            now = time.monotonic()
            due = start + index / rate if rate else max(now, start)
            if due > now:
                time.sleep(due - now)
            outcome = Outcome(requests[index], due)
            outcome.sent = time.monotonic()
            try:
                status, cache, body = _send(port, requests[index])
                outcome.status, outcome.cache = status, cache
                if keep_every and index % keep_every == 0:
                    outcome.body = body
            except (OSError, http.client.HTTPException) as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.done = time.monotonic()
            outcomes[index] = outcome

    # The generator must not be what delays a request: no collector
    # pauses, and a short switch interval so a sender that wakes on
    # time gets the interpreter from the other one promptly.
    interval = sys.getswitchinterval()
    gc.disable()
    sys.setswitchinterval(0.0005)
    try:
        threads = [threading.Thread(target=sender)
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
        gc.enable()
    return outcomes  # type: ignore[return-value]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(port: int, path: str, timeout: float = DEADLINE_S):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process, spawned through the launcher."""

    def __init__(self, ws: common.Workspace, store: pathlib.Path,
                 digest: str) -> None:
        self.ws = ws
        self.port = _free_port()
        self.log = ws.fresh("serve-log")
        ready = ws.fresh("ready")
        self.spawned = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                common.launcher_cmd(ready, serve_argv(store, self.port)),
                cwd=common.ROOT, env=common.program_env(ws.tmp),
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        try:
            self.setup_s = self._await_campaign(digest)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.import_s = float("nan")
        if ready.exists():
            facts = common.read_ready(ready)
            self.import_s = facts["imported"] - facts["started"]
        self.maxrss_mb = 0.0

    def _await_campaign(self, digest: str) -> float:
        """Seconds from spawn to the first 200 on the campaign endpoint."""
        deadline = self.spawned + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited early: {self.log.read_text()[-500:]}")
            try:
                status, _ = _get(self.port, f"/campaigns/{digest}")
            except OSError:
                time.sleep(0.005)
                continue
            if status == 200:
                return time.monotonic() - self.spawned
            raise RuntimeError(f"campaign endpoint answered {status}")
        raise RuntimeError("repro serve did not become ready in 60 s")

    def metrics(self) -> dict:
        status, body = _get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)["metrics"]

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.terminate()
            try:
                _, _, usage = common.wait4(self.proc, time.monotonic() + 30.0)
            except TimeoutError:
                self.proc.kill()
                _, _, usage = common.wait4(self.proc, time.monotonic() + 30.0)
            self.maxrss_mb = usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the workload


@dataclass
class RateResult:
    rate: float
    n: int
    achieved_rps: float
    tail_ms: float
    tail_q: float
    p50_ms: float
    late_p99_ms: float
    met: bool
    outcomes: list = field(repr=False, default_factory=list)


def summarise(rate: float, outcomes: list[Outcome]) -> RateResult:
    """One offered rate's figures, as measured.

    Latencies at a fixed offered rate include waiting for the CPU to
    wake and the schedule to come round, which do not scale with CPU
    speed, so they are not restated at reference speed."""
    latencies = sorted(o.latency_ms for o in outcomes)
    late = sorted(o.late_ms for o in outcomes)
    tail_q = common.tail_quantile(len(latencies))
    tail = common.percentile(latencies, tail_q)
    first_due = min(o.due for o in outcomes)
    last_done = max(o.done for o in outcomes)
    last_due = max(o.due for o in outcomes)
    # no growing backlog: the final request finished within the limit
    # of when the schedule said it was due.
    drained = (last_done - last_due) * 1000.0 <= LIMIT_MS
    met = all(o.ok() for o in outcomes) and tail <= LIMIT_MS and drained
    return RateResult(
        rate=rate, n=len(outcomes),
        achieved_rps=len(outcomes) / (last_done - first_due),
        tail_ms=tail, tail_q=tail_q,
        p50_ms=common.percentile(latencies, 50.0),
        late_p99_ms=common.percentile(late, common.tail_quantile(len(late))),
        met=met, outcomes=outcomes,
    )


def max_rps(results: list[RateResult]) -> float:
    """The highest offered rate that met the limit.  When none did, the
    lowest rate scaled down by how far its tail missed the limit."""
    met = [r.rate for r in results if r.met]
    if met:
        return max(met)
    return results[0].rate * LIMIT_MS / results[0].tail_ms


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, ws: common.Workspace, seed: int, refs: dict,
                 bench_seed: int) -> None:
        self.ws = ws
        self.tally = Tally()
        self.store = ws.fresh("serve-store")
        out = ws.fresh("serve-export")
        inv = common.run_cli(ws, prepare_argv(seed, self.store, out))
        problems = check_invocation("serve-store preparation", inv)
        if not problems and export_digest(inv.stdout) != refs[
                "repository_digest"]:
            problems = ["serve-store preparation: repository digest "
                        "differs from the reference"]
        if problems:
            raise RuntimeError("; ".join(problems))
        shutil.rmtree(out, ignore_errors=True)
        self.reference = Reference(self.store)
        digest, vantages, site_rounds, observers = self.reference.campaign()
        self.digest = digest
        self.mix = MixGenerator(bench_seed, digest, vantages, site_rounds,
                                observers)
        self.disk_bytes = common.tree_bytes(self.store)
        #: per spawn: (set-up seconds, spawn time, ready time)
        self.setup: list[tuple[float, float, float]] = []
        self.server: Server | None = None
        #: machine speed on the server's CPU, sampled while the servers
        #: start and during the drains (see common.SpeedProbe)
        self.probing: common.ProbeProcess | None = None
        self.speed = common.SpeedProbe()

    def start(self) -> None:
        """Spawn the server several times for ``setup_s``; keep the last
        one and warm it up."""
        self.probing = common.ProbeProcess(self.ws, SERVER_CPU,
                                           PROBE_INTERVAL_S)
        common.pin(SERVER_CPU)  # inherited by the server
        for spawn in range(SETUP_SPAWNS):
            server = Server(self.ws, self.store, self.digest)
            self.setup.append((server.setup_s, server.spawned,
                               server.spawned + server.setup_s))
            if spawn < SETUP_SPAWNS - 1:
                server.stop()
            self.server = server
        common.pin(CLIENT_CPU)
        self.warm_up()

    def stop_probing(self) -> None:
        """End the speed sampling before the open-loop steps, whose
        latencies a sample would delay."""
        if self.probing is not None:
            self.speed = self.probing.stop()
            self.probing = None

    def stop(self) -> None:
        self.stop_probing()
        if self.server is not None:
            self.server.stop()

    def setup_times(self) -> list[float]:
        """Each spawn's set-up time at the CPU's speed then."""
        return [seconds * self.speed.scale(since, until)
                for seconds, since, until in self.setup]

    def walls(self, drains: list[tuple[float, float]]) -> list[float]:
        """Drain walls, each at the CPU's speed during it."""
        return [(until - since) * self.speed.scale(since, until)
                for since, until in drains]

    def check(self, outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            problems = []
            if not outcome.ok():
                problems.append(
                    f"{outcome.request.method} {outcome.request.path}: "
                    f"status {outcome.status}, error {outcome.error}, "
                    f"{outcome.latency_ms:.1f} ms")
            elif (outcome.body is not None
                  and outcome.body != self.reference.body(outcome.request)):
                problems.append(
                    f"{outcome.request.path}: body differs from the "
                    "server-free computation")
            self.tally.record(problems)

    def warm_up(self) -> None:
        """Send every repeated request once, so the timed rates see the
        response cache in its steady state rather than filling it."""
        requests = self.mix.head + [
            Request("observer", "GET",
                    f"/campaigns/{self.digest}/observers/{name}")
            for name in self.mix.observers
        ]
        self.check(drive(self.server.port, requests, None, keep_every=1))

    def drains(self) -> tuple[list[tuple[float, float]], list[Outcome]]:
        """Closed-loop drains of a fixed request count, sent from the
        server's CPU: when each ran."""
        windows, done = [], []
        common.pin(SERVER_CPU)
        try:
            for _ in range(DRAINS):
                requests = self.mix.take(DRAIN_REQUESTS)
                started = time.monotonic()
                outcomes = drive(self.server.port, requests, None)
                windows.append((started, time.monotonic()))
                self.check(outcomes)
                done.extend(outcomes)
        finally:
            common.pin(CLIENT_CPU)
        return windows, done

    def run_rates(self, seconds: float) -> tuple[float, list[RateResult]]:
        """Open-loop steps at shares of the closed-loop rate from the
        client's CPU, which one drain measures first: that rate, and
        the steps."""
        requests = self.mix.take(DRAIN_REQUESTS)
        started = time.monotonic()
        outcomes = drive(self.server.port, requests, None)
        closed_rps = DRAIN_REQUESTS / (time.monotonic() - started)
        self.check(outcomes)
        n = max(200, int(STEP_REQUESTS_PER_S * seconds))
        results = []
        for share in RATE_SHARES:
            rate = share * closed_rps
            outcomes = drive(self.server.port, self.mix.take(n), rate)
            self.check(outcomes)
            results.append(summarise(rate, outcomes))
        return closed_rps, results

    @staticmethod
    def rates(results: list[RateResult]) -> list[dict]:
        """Each offered rate's figures, as measured, for the info line."""
        return [
            {"offered": round(r.rate, 1),
             "achieved": round(r.achieved_rps, 1),
             "n": r.n, "p50_ms": round(r.p50_ms, 3),
             f"p{r.tail_q:g}_ms": round(r.tail_ms, 3),
             "late_p99_ms": round(r.late_p99_ms, 3), "met": r.met}
            for r in results
        ]

    @staticmethod
    def named(results: list[RateResult]) -> list[tuple[str, float, str]]:
        """The open-loop figures by the names the README gives them."""
        reference = results[0]
        return [
            ("serve_p50_ms", reference.p50_ms, "ms"),
            (f"serve_p{reference.tail_q:g}_ms", reference.tail_ms,
             f"ms ({reference.n} samples)"),
            ("serve_max_rps", max_rps(results), "1/s"),
            ("serve_late_ms", reference.late_p99_ms, "ms"),
        ]

    def measure(self, seconds: float) -> dict:
        try:
            self.start()
            drains, _ = self.drains()
            self.stop_probing()
            closed_rps, results = self.run_rates(seconds)
        finally:
            self.stop()
        values = {
            "wall_s": common.median(self.walls(drains)),
            "setup_s": common.median(self.setup_times()),
            "peak_rss_mb": self.server.maxrss_mb,
            "disk_bytes": float(self.disk_bytes),
        }
        info = {
            "speed_scale": round(self.speed.scale(), 4),
            "closed_loop_rps": round(closed_rps, 1),
            "rates": self.rates(results),
            "mix": dict(self.mix.counts),
            "setup_spawns": len(self.setup),
        }
        return {"values": values, "info": info,
                "named": self.named(results)}

    def traced(self, seconds: float) -> dict:
        """Per-layer figures from ``/metrics`` and the response headers."""
        try:
            self.start()
            plain, _ = self.drains()
            before = self.server.metrics()
            traced, drained = self.drains()
            between = self.server.metrics()
            self.stop_probing()
            _, results = self.run_rates(seconds)
            after = self.server.metrics()
        finally:
            self.stop()
        delta = {
            name: {"value": float(entry.get("value", 0.0))
                   - float((before.get(name) or {}).get("value", 0.0))}
            for name, entry in after.items() if "value" in entry
        }
        delta["data.serve.campaign_loads"] = after.get(
            "data.serve.campaign_loads", {"value": 0.0})
        values = layers.empty()
        values.update(layers.from_counters(delta))
        values["data.query.calls"] = delta.get(
            "data.query.scans", {"value": 0.0})["value"]
        # the closed-loop drains: requests are sent as soon as a sender is
        # free, so their latency has no backlog in it.
        hits = sorted(o.latency_ms for o in drained if o.cache == "hit")
        misses = sorted(o.latency_ms for o in drained if o.cache == "miss")
        values["data.serve.cache_hit_share"] = len(hits) / max(
            1, len(hits) + len(misses))
        values["data.serve.hit_p50_ms"] = (
            common.percentile(hits, 50.0) if hits else 0.0)
        values["data.serve.miss_p50_ms"] = (
            common.percentile(misses, 50.0) if misses else 0.0)
        # server-side handling time over client-side latency, on the
        # drains: the share of what the client waited for that the
        # server's request core accounts for.
        served_ms = (float(between["data.serve.latency_ms"]["sum"])
                     - float(before["data.serve.latency_ms"]["sum"]))
        values["bench.span_coverage"] = served_ms / sum(
            o.latency_ms for o in drained)
        values = layers.at_speed(
            values, self.speed.scale(traced[0][0], traced[-1][1]))
        values["bench.tracing_overhead_s"] = (
            common.median(self.walls(traced))
            - common.median(self.walls(plain)))
        _, spawned, ready = self.setup[-1]
        values["import.cli_s"] = (self.server.import_s
                                  * self.speed.scale(spawned, ready))
        # the open-loop latencies and rates stay as measured (summarise)
        values["data.serve.p50_ms"] = results[0].p50_ms
        values["data.serve.p99_ms"] = results[0].tail_ms
        values["data.serve.max_rps"] = max_rps(results)
        values["bench.serve_late_ms"] = results[0].late_p99_ms
        return {"values": values,
                "info": {"rates": self.rates(results),
                         "mix": dict(self.mix.counts)},
                "named": self.named(results)}
