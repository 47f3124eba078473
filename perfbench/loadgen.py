"""Open-loop HTTP load generator: fixed send schedules, latency timed
from each request's due time.

Request *i* of a phase at rate *r* is due at ``start + i / r``,
whatever happened to earlier requests.  Requests are spread over at
most ``os.cpu_count()`` keep-alive connections, each driven by one
thread; a connection still waiting for a reply sends its next request
late, and that wait counts in the latency (so a stall is charged to
every request it delays) and in the generator's lateness.  Every
response is checked against the expected status and body bytes.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from common import percentile

CONNECTIONS = min(2, os.cpu_count() or 1)
TIMEOUT_S = 5.0
# A phase whose requests are still this late at its end has a growing
# backlog: the server did not keep up with the rate.
BACKLOG_LATENESS_S = 0.02
# Requests kept in flight per connection by the closed loop.
PIPELINE_DEPTH = 8


class HTTPConnection:
    """A minimal keep-alive HTTP/1.1 GET client over one socket."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.sock = socket.create_connection((host, port), TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def get(self, target: str) -> Tuple[int, bytes]:
        """Send one GET; the status code and the body bytes."""
        self.send(target)
        return self.receive()

    def send(self, target: str) -> None:
        """Send one GET without waiting for its answer."""
        self.sock.sendall(f"GET {target} HTTP/1.1\r\nHost: {self.host}"
                          "\r\n\r\n".encode("ascii"))

    def receive(self) -> Tuple[int, bytes]:
        """The next answer: its status code and body bytes."""
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        self.sock.close()


@dataclass
class Phase:
    """The outcome of one fixed-rate phase."""

    rate: float
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    final_lateness: float = 0.0

    def p(self, share: float) -> float:
        """Latency percentile in seconds (failed requests excluded;
        they count as misses of any latency limit instead)."""
        return percentile(self.latencies, share)

    @property
    def backlogged(self) -> bool:
        return self.final_lateness > BACKLOG_LATENESS_S


def open_loop(host: str, port: int, requests: Sequence[Tuple],
              rate: float) -> Phase:
    """Send requests at *rate* per second; each request is a tuple
    starting ``(target, expected_body)``.

    A phase the server cannot keep up with stops sending at twice its
    scheduled length; the requests never sent are not attempted, and
    the phase reads as backlogged."""
    phase = Phase(rate=rate)
    connections = [HTTPConnection(host, port) for _ in range(CONNECTIONS)]
    lock = threading.Lock()
    start = time.perf_counter() + 0.01
    cutoff = start + 2.0 * len(requests) / rate + 0.5
    sent_count = [0] * CONNECTIONS

    def drive(lane: int) -> None:
        conn = connections[lane]
        latencies, lateness = [], []
        failed = 0
        last_late = 0.0
        for index in range(lane, len(requests), CONNECTIONS):
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            if sent > cutoff:
                break
            sent_count[lane] += 1
            target, expected = requests[index][:2]
            try:
                status, body = conn.get(target)
                ok = status == 200 and body == expected
            except OSError:
                # A dropped or timed-out connection fails this request;
                # the next one goes out on a fresh connection.
                ok = False
                conn.close()
                conn = connections[lane] = HTTPConnection(host, port)
            done = time.perf_counter()
            last_late = sent - due
            lateness.append(last_late)
            if ok:
                latencies.append(done - due)
            else:
                failed += 1
        with lock:
            phase.latencies += latencies
            phase.lateness += lateness
            phase.failed += failed
            phase.final_lateness = max(phase.final_lateness, last_late)

    _run_lanes(drive)
    for conn in connections:
        conn.close()
    phase.attempted = sum(sent_count)
    if phase.attempted < len(requests):
        phase.final_lateness = float("inf")
    return phase


def closed_loop(host: str, port: int, requests: Sequence[Tuple],
                seconds: float) -> Tuple[float, int, int]:
    """Keep :data:`PIPELINE_DEPTH` requests outstanding on every
    connection for *seconds*, sending one more as each answer arrives,
    so the server never waits on a client.  Returns (completed
    requests per second, attempted, failed)."""
    connections = [HTTPConnection(host, port) for _ in range(CONNECTIONS)]
    counts = [[0, 0] for _ in range(CONNECTIONS)]
    deadline = time.perf_counter() + seconds

    def drive(lane: int) -> None:
        conn = connections[lane]
        outstanding: List[bytes] = []
        index = lane
        try:
            while outstanding or time.perf_counter() < deadline:
                while (len(outstanding) < PIPELINE_DEPTH
                       and time.perf_counter() < deadline):
                    target, expected = requests[index % len(requests)][:2]
                    index += CONNECTIONS
                    counts[lane][0] += 1
                    conn.send(target)
                    outstanding.append(expected)
                status, body = conn.receive()
                if status != 200 or body != outstanding.pop(0):
                    counts[lane][1] += 1
        except OSError:
            # A dropped or timed-out connection fails everything still
            # in flight on it, and ends this connection's share.
            counts[lane][1] += len(outstanding)

    started = time.perf_counter()
    _run_lanes(drive)
    elapsed = time.perf_counter() - started
    for conn in connections:
        conn.close()
    attempted = sum(count[0] for count in counts)
    failed = sum(count[1] for count in counts)
    return (attempted - failed) / elapsed, attempted, failed


def _run_lanes(drive) -> None:
    """Run ``drive(lane)`` on one thread per connection; re-raise the
    first error a lane hit."""
    errors: List[BaseException] = []

    def guarded(lane: int) -> None:
        try:
            drive(lane)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(lane,))
               for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
