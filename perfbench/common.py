"""Helpers shared by the workloads: timing, percentiles, memory, and
the result every workload returns."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

# Set-up runs this many times per run; its median is ``setup_s``.
SETUP_REPEATS = 3

# Host-speed correction.  The benchmark shares its host, whose speed
# for the same Python work drifts by 15-35% (IQR over median) between
# 10 s windows, and within a window on a scale of a second.  Timed
# work therefore runs in segments, as short as the program's calls
# allow, with a fixed probe between them, and each segment's time is
# scaled by REFERENCE_PROBE_S over the mean of the probes around it:
# the times read as seconds on a host that runs the probe in
# REFERENCE_PROBE_S.  The probe is benchmark code, so no change to the
# program moves it.
REFERENCE_PROBE_S = 0.032


class DegenerateRun(RuntimeError):
    """The generated input produced no structure worth measuring (too
    few cluster-graph nodes, or no stable path): refuse to report."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    # Human-readable lines naming the workload-specific figures.
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, passed: bool) -> None:
        """Count one output check as an attempted operation."""
        self.attempted += 1
        self.failed += 0 if passed else 1
        self.checks.append((name, passed))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed in self.checks)


def probe_seconds() -> float:
    """Time the fixed probe: tuple-keyed dict counting and a sort, the
    kind of work the pipeline's hot loops do."""
    started = time.perf_counter()
    counts: Dict[Tuple[int, int], int] = {}
    for i in range(40000):
        key = (i % 613, (i * 7) % 409)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts)
    return time.perf_counter() - started


class HostClock:
    """Times one operation as segments with a probe between each two,
    scaling every segment to the reference host (see
    :data:`REFERENCE_PROBE_S`)."""

    def __init__(self) -> None:
        self._probe = probe_seconds()
        self._started = time.perf_counter()
        self.seconds = 0.0
        self.scaled = 0.0
        self.factors: List[float] = []

    def run(self, segment: Callable[[], object]) -> object:
        """Time *segment* (which may end segments of its own with
        :meth:`lap`) and end the last segment; returns its result."""
        self._started = time.perf_counter()
        result = segment()
        self.lap()
        return result

    def lap(self) -> None:
        """End the current segment: probe, scale the segment by the
        probes around it, and start the next one after the probe.  The
        segment's factor is appended to :attr:`factors`."""
        elapsed = time.perf_counter() - self._started
        probe = probe_seconds()
        factor = 2.0 * REFERENCE_PROBE_S / (self._probe + probe)
        self._probe = probe
        self.seconds += elapsed
        self.scaled += elapsed * factor
        self.factors.append(factor)
        self._started = time.perf_counter()

    @property
    def factor(self) -> float:
        """Scaled over measured seconds, for the operation as a whole."""
        return self.scaled / self.seconds


def repeat_setup(build: Callable[[], object],
                 teardown: Callable[[], None] = lambda: None
                 ) -> Tuple[object, float]:
    """Run *build* :data:`SETUP_REPEATS` times, with an untimed
    *teardown* between repeats; the last result and the median
    seconds, scaled to the reference host."""
    seconds = []
    result = None
    for repeat in range(SETUP_REPEATS):
        if repeat:
            teardown()
        clock = HostClock()
        result = clock.run(build)
        seconds.append(clock.scaled)
    return result, statistics.median(seconds)


def path_keys(paths) -> List[Tuple]:
    """Stable paths as comparable ``(nodes, weight)`` pairs, in rank
    order."""
    return [(path.nodes, path.weight) for path in paths]


def layer_seconds(tracers, factors: Sequence[float]) -> Dict[str, float]:
    """Self seconds per span name, per pass: the mean over the traced
    passes, each scaled by its host-speed factor."""
    seconds: Dict[str, float] = {}
    for tracer, factor in zip(tracers, factors):
        for name, own in tracer.self_seconds().items():
            seconds[name] = (seconds.get(name, 0.0)
                             + own * factor / len(tracers))
    return seconds


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (*share* in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mib(pid: int) -> float:
    """Another process's peak resident set size (VmHWM) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def run_for(seconds: float, minimum: int, step: Callable[[int], None]) -> int:
    """Call ``step(i)`` until *seconds* have passed and at least
    *minimum* steps ran; returns the number of steps."""
    started = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - started < seconds:
        step(count)
        count += 1
    return count
