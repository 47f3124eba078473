"""serve-http: open-loop HTTP load on ``repro.cli serve``.

Set-up builds the index the dblp-stream workload writes and starts the
server in its own process.  The load is a Zipf-skewed mix of
``/refine``, ``/lookup`` and ``/paths`` over a (keyword, interval)
working set several times the server's 256-entry hot cache, so both
hits and index reads occur.  Section 3 does no work here: only index
reads, the query service and the HTTP tier do.

Phases: a reference rate (the latency figures), a closed loop that
keeps every connection busy (the completed-request throughput), and a
sweep of higher fixed rates (the highest rate meeting the p99 limit
with no backlog and no failures).  Every response body must equal the
in-process ``encode_payload(..._payload(service, ...))`` bytes.

The CPU probe of the other workloads does not track this two-process
path, so the reference and closed-loop phases run as bursts with a
burst against ``echo_server.py`` (the same stdlib HTTP stack with a
fixed answer) between each two, and each burst is scaled by the probe
bursts around it to a host where the probe server answers at
REFERENCE_PROBE_P50_S and REFERENCE_PROBE_RATE.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from itertools import accumulate
from typing import Dict, List, Tuple
from urllib.parse import quote

from repro.corpus import DBLPAdapter
from repro.service import ClusterQueryService
from repro.serving import (
    encode_payload,
    lookup_payload,
    paths_payload,
    refine_payload,
)
from repro.streaming import StreamingDocumentPipeline

from common import Outcome, percentile, process_hwm_mib, repeat_setup
from gen import write_dblp_xml
from echo_server import BODY as PROBE_BODY
from loadgen import (
    CONNECTIONS,
    PIPELINE_DEPTH,
    HTTPConnection,
    Phase,
    closed_loop,
    open_loop,
)

HERE = os.path.dirname(os.path.abspath(__file__))
L, K, GAP = 3, 5, 1
REFERENCE_RATE = 1000.0
SWEEP_RATES = (2000.0, 3000.0, 4000.0)
# Shares of --seconds spent in each phase (SWEEP_SHARE per swept rate).
WARM_SHARE, REFERENCE_SHARE, CLOSED_SHARE, SWEEP_SHARE = \
    0.05, 0.35, 0.3, 0.1
P99_LIMIT_S = 0.010
BURSTS = 10
PROBE_REQUESTS = 250
PROBE_SECONDS = 0.2
REFERENCE_PROBE_P50_S = 0.00034
REFERENCE_PROBE_RATE = 15000.0
ZIPF_EXPONENT = 1.0
PATH_KEYWORDS = 12

# With two or more CPUs the server and the load generator each get
# their own, so their placement does not change from run to run.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[-1]}
CLIENT_CPUS = {_CPUS[0]} if len(_CPUS) > 1 else set(_CPUS)


def build_index(xml_path: str, index_dir: str) -> None:
    """The index dblp-stream writes: the corpus streamed interval by
    interval into a live index, then finalized."""
    with StreamingDocumentPipeline(l=L, k=K, gap=GAP, index_dir=index_dir,
                                   index_append=False) as pipeline:
        pipeline.ingest_adapter(DBLPAdapter(xml_path))


class Server:
    """An HTTP server in its own process, pinned to SERVER_CPUS: *argv*
    must print ``... at http://HOST:PORT`` once it listens."""

    def __init__(self, root: str, argv: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, cwd=root, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))
        try:
            banner = self.proc.stdout.readline()
            if " at http://" not in banner:
                raise RuntimeError(f"server did not start: {banner!r}")
            address = banner.rsplit(" at http://", 1)[1].strip()
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
            self.get("/")
        except BaseException:
            self.stop()
            raise

    def get(self, target: str) -> Tuple[int, bytes]:
        conn = HTTPConnection(self.host, self.port)
        try:
            return conn.get(target)
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def request_universe(service: ClusterQueryService,
                     active: Dict[int, List[str]],
                     rng: random.Random) -> List[Tuple]:
    """Every distinct request of the mix with its expected body, in
    Zipf rank order (most popular first)."""
    every = sorted({kw for kws in active.values() for kw in kws})
    keys = []
    for interval in range(service.num_intervals):
        for keyword in active[interval]:
            keys.append(("refine", keyword, interval))
            if rng.random() < 0.5:
                keys.append(("lookup", keyword, interval))
        # A keyword with no cluster this year: a refine miss.
        keys.append(("refine", rng.choice(every), interval))
    keys += [("paths", keyword, None)
             for keyword in rng.sample(every, PATH_KEYWORDS)]
    keys.append(("paths", None, None))
    rng.shuffle(keys)
    return [_request(service, key) for key in keys]


def _request(service: ClusterQueryService, key) -> Tuple[str, bytes, tuple]:
    """``(target, expected body, key)`` for one request key."""
    route, keyword, interval = key
    if route == "paths":
        target = "/paths" if keyword is None \
            else f"/paths?keyword={quote(keyword)}"
    else:
        target = f"/{route}?keyword={quote(keyword)}&interval={interval}"
    return target, encode_payload(answer(service, key)), key


def answer(service: ClusterQueryService, key) -> Dict:
    """The payload the server builds for one request key."""
    route, keyword, interval = key
    if route == "paths":
        return paths_payload(service, keyword)
    build = refine_payload if route == "refine" else lookup_payload
    return build(service, keyword, interval)


def run(seed: int, seconds: float, trace: bool, work: str,
        trace_path: str) -> Outcome:
    outcome = Outcome()
    root = os.path.dirname(HERE)
    xml_path = os.path.join(work, "dblp.xml")
    index_dir = os.path.join(work, "serve-index")
    servers: List[Server] = []

    def setup():
        active = write_dblp_xml(xml_path, seed)
        build_index(xml_path, index_dir)
        servers.append(Server(root, [
            sys.executable, "-m", "repro.cli", "serve", index_dir,
            "--port", "0", "--max-seconds", str(3 * seconds + 120)]))
        return active

    def teardown():
        servers.pop().stop()

    try:
        active, setup_s = repeat_setup(setup, teardown)
        server = servers[0]
        servers.append(Server(root, [
            sys.executable, os.path.join(HERE, "echo_server.py")]))
        measure(outcome, server, servers[1], index_dir, active, seed,
                seconds, trace)
        outcome.metrics["setup_s"] = setup_s
        outcome.metrics["peak_rss_mb"] = process_hwm_mib(server.proc.pid)
    finally:
        for server in servers:
            server.stop()
    return outcome


def probed_bursts(burst, probe) -> List[Tuple]:
    """Run :data:`BURSTS` bursts with a probe before the first and after
    each; ``(burst result, mean of the probes around it)`` per burst."""
    results = []
    before = probe()
    for number in range(BURSTS):
        result = burst(number)
        after = probe()
        results.append((result, (before + after) / 2.0))
        before = after
    return results


def measure(outcome: Outcome, server: Server, echo: Server, index_dir: str,
            active: Dict[int, List[str]], seed: int, seconds: float,
            trace: bool) -> None:
    os.sched_setaffinity(0, CLIENT_CPUS)
    rng = random.Random(seed)
    with ClusterQueryService(index_dir) as expected_service:
        universe = request_universe(expected_service, active, rng)
    cumulative = list(accumulate(
        1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(universe) + 1)))

    def mix(count: int) -> List[Tuple]:
        return rng.choices(universe, cum_weights=cumulative, k=count)

    def record(result: Phase) -> Phase:
        outcome.attempted += result.attempted
        outcome.failed += result.failed
        return result

    probe_requests = [("/", PROBE_BODY)] * PROBE_REQUESTS

    def probe_p50() -> float:
        return open_loop(echo.host, echo.port, probe_requests,
                         REFERENCE_RATE).p(0.5)

    def probe_rate() -> float:
        return closed_loop(echo.host, echo.port, probe_requests,
                           PROBE_SECONDS)[0]

    record(open_loop(server.host, server.port,
                     mix(int(REFERENCE_RATE * WARM_SHARE * seconds)),
                     REFERENCE_RATE))
    per_burst = int(REFERENCE_RATE * REFERENCE_SHARE * seconds / BURSTS)
    reference_requests = mix(per_burst * BURSTS)
    reference = Phase(rate=REFERENCE_RATE)
    for result, probe in probed_bursts(
            lambda n: record(open_loop(
                server.host, server.port,
                reference_requests[n * per_burst:(n + 1) * per_burst],
                REFERENCE_RATE)),
            probe_p50):
        scale = REFERENCE_PROBE_P50_S / probe
        reference.latencies += [latency * scale
                                for latency in result.latencies]
        reference.lateness += result.lateness
        reference.attempted += result.attempted
        reference.failed += result.failed
        reference.final_lateness = max(reference.final_lateness,
                                       result.final_lateness)

    rates = []
    for (rate, attempted, failed), probe in probed_bursts(
            lambda n: closed_loop(server.host, server.port, mix(20000),
                                  CLOSED_SHARE * seconds / BURSTS),
            probe_rate):
        rates.append(rate * REFERENCE_PROBE_RATE / probe)
        outcome.attempted += attempted
        outcome.failed += failed
    throughput = statistics.median(rates)

    sample = universe[:100]
    outcome.check(
        "sampled HTTP bodies equal encode_payload(...) from an "
        "in-process service",
        all(server.get(target) == (200, body)
            for target, body, _ in sample))

    p50_ms = reference.p(0.5) * 1000.0
    outcome.metrics.update(throughput_per_s=throughput,
                           latency_p50_ms=p50_ms)
    outcome.notes += [
        f"http_p50_ms {p50_ms:.3f} ms, http_p99_ms "
        f"{reference.p(0.99) * 1000.0:.3f} ms at {REFERENCE_RATE:.0f} "
        f"req/s ({len(reference.latencies)} requests, generator "
        f"lateness p99 {percentile(reference.lateness, 0.99) * 1e3:.3f} "
        "ms)",
        f"closed-loop throughput {throughput:.0f} req/s over "
        f"{CONNECTIONS} connections, {PIPELINE_DEPTH} requests in flight "
        f"on each; {len(universe)} distinct requests",
    ]
    # The sweep runs after the end-to-end figures are taken: a rate
    # past the server's capacity leaves a backlog behind.  Its figures
    # are as measured.
    sweep = [reference] + [
        record(open_loop(server.host, server.port,
                         mix(int(rate * SWEEP_SHARE * seconds)), rate))
        for rate in SWEEP_RATES]
    passing = [result.rate for result in sweep
               if result.failed == 0 and not result.backlogged
               and result.p(0.99) <= P99_LIMIT_S]
    max_rps = max(passing, default=0.0)
    outcome.notes += [
        "sweep " + ", ".join(
            f"{r.rate:.0f}/s: p50 {r.p(0.5) * 1000:.2f} ms p99 "
            f"{r.p(0.99) * 1000:.2f} ms late "
            f"{r.final_lateness * 1000:.1f} ms failed {r.failed}"
            for r in sweep),
        f"http_max_rps {max_rps:.0f} req/s (p99 limit "
        f"{P99_LIMIT_S * 1000:.0f} ms, no backlog, no failures)",
    ]
    if trace:
        outcome.metrics.update(layer_metrics(
            server, index_dir, reference_requests, reference, max_rps))


def layer_metrics(server: Server, index_dir: str,
                  requests: List[Tuple], reference,
                  max_rps: float) -> Dict[str, float]:
    """The reference mix replayed in-process against a cold service
    (the query cost without HTTP), and the server's own counters."""
    timings = []
    with ClusterQueryService(index_dir) as service:
        for _, _, key in requests:
            started = time.perf_counter()
            encode_payload(answer(service, key))
            timings.append(time.perf_counter() - started)
    status, body = server.get("/stats")
    stats = json.loads(body)
    service_stats = stats["service"]
    server_stats = stats["server"]
    hot_total = service_stats["refiner_hits"] + service_stats["refiner_misses"]
    in_process_p50 = statistics.median(timings)
    return {
        "service.refine_p50_us": in_process_p50 * 1e6,
        "service.refine_tail_us": percentile(timings, 0.99) * 1e6,
        "service.hot_hit_ratio": service_stats["refiner_hits"] / hot_total,
        "serving.transport_p50_us":
            (reference.p(0.5) - in_process_p50) * 1e6,
        "serving.rejected": server_stats["rejected"],
        "serving.errors": server_stats["errors"],
        "serving.index_reads": server_stats["index_reads"],
        "serving.coalesced": server_stats["singleflight"]["coalesced"],
        "http.p99_ms": reference.p(0.99) * 1000.0,
        "http.max_rps": max_rps,
        "loadgen.lateness_p99_ms": percentile(reference.lateness, 0.99)
        * 1000.0,
        "index.segments": service_stats["segments"],
    }
