"""graph-solve: Section 5.2 synthetic cluster graphs through the solver
engine, as the paper's Section-4 experiments run them.

In the corpus workloads the engine is under 1% of the time, so a
solver change would not show there.  Each operation answers one kl
query with gap 1 and a batch of normalized queries through
``solve_report(..., solver="auto")``; the planner picks the solver.
The answers are checked against the exhaustive ``bruteforce`` solver
on the same graphs.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.engine import StableQuery, solve_report

from common import (
    HostClock,
    Outcome,
    path_keys,
    peak_rss_mib,
    repeat_setup,
    run_for,
)
from gen import KL_GRAPH, NORMALIZED_GRAPH, NORMALIZED_GRAPHS, solve_graphs
from spans import NullTracer, Tracer

KL_QUERY = StableQuery(problem="kl", l=3, k=10, gap=KL_GRAPH[3])
NORMALIZED_QUERY = StableQuery(problem="normalized", lmin=3, k=10,
                               gap=NORMALIZED_GRAPH[3])
MIN_SOLVES = 5
NORMALIZED_PER_SEGMENT = 4
COUNTERS = ("nodes_processed", "paths_generated", "pushes", "prunes")


def solve_all(graphs, tracer, clock: HostClock) -> List:
    """One operation: the kl query on its graph, then the normalized
    query on each of its graphs, all through the planner; timed by
    *clock* in segments of about a quarter of the operation."""

    def solve(graph, query):
        with tracer.span("engine"):
            return solve_report(graph, query, solver="auto")

    kl_graph, normalized_graphs = graphs
    reports = [clock.run(lambda: solve(kl_graph, KL_QUERY))]
    for start in range(0, len(normalized_graphs), NORMALIZED_PER_SEGMENT):
        batch = normalized_graphs[start:start + NORMALIZED_PER_SEGMENT]
        reports += clock.run(
            lambda: [solve(graph, NORMALIZED_QUERY) for graph in batch])
    return reports


def run(seed: int, seconds: float, trace: bool, work: str,
        trace_path: str) -> Outcome:
    outcome = Outcome()
    graphs, setup_s = repeat_setup(lambda: solve_graphs(seed))
    tracer = Tracer() if trace else NullTracer()
    times: List[float] = []
    raw: List[float] = []
    factors: List[float] = []
    reports: List = []

    def step(_: int) -> None:
        clock = HostClock()
        reports[:] = solve_all(graphs, tracer, clock)
        raw.append(clock.seconds)
        times.append(clock.scaled)
        factors.append(clock.factor)
        outcome.attempted += 1

    solves = run_for(seconds, MIN_SOLVES, step)
    peak = peak_rss_mib()

    kl, normalized = reports[0], reports[1:]
    kl_graph, normalized_graphs = graphs
    oracle = solve_report(kl_graph, KL_QUERY, solver="bruteforce")
    outcome.check(f"kl answer of {kl.plan.solver} equals bruteforce",
                  path_keys(kl.paths) == path_keys(oracle.paths))
    # Theorem-1 pruning keeps the normalized optimum exact; lower ranks
    # may hold dominated substitutes, so only the top path must match.
    for number, (graph, report) in enumerate(zip(normalized_graphs,
                                                 normalized)):
        best = solve_report(graph, NORMALIZED_QUERY.with_k(1),
                            solver="bruteforce").paths[0]
        outcome.check(
            f"normalized graph {number}: best path of "
            f"{report.plan.solver} equals bruteforce",
            report.paths[0].nodes == best.nodes
            and abs(report.paths[0].stability - best.stability) <= 1e-12)

    median = statistics.median(times)
    outcome.metrics.update(setup_s=setup_s, peak_rss_mb=peak,
                           throughput_per_s=1.0 / median,
                           latency_p50_ms=median * 1000.0)
    outcome.notes += [
        f"solve_s {median:.6f} s per operation ({solves} operations; "
        f"{statistics.median(raw):.6f} s before host-speed scaling); "
        f"solvers {kl.plan.solver}, {normalized[0].plan.solver}",
        f"kl graph m,n,d,g={KL_GRAPH}: {kl.stats.summary()}",
        f"normalized graphs {NORMALIZED_GRAPHS} x m,n,d,g="
        f"{NORMALIZED_GRAPH}, first: {normalized[0].stats.summary()}",
    ]
    if trace:
        outcome.metrics.update(layer_metrics(
            tracer, reports, solves, statistics.mean(factors)))
        tracer.write_jsonl(trace_path)
    return outcome


def layer_metrics(tracer: Tracer, reports: List, solves: int,
                  factor: float) -> Dict[str, float]:
    """Engine self seconds per operation, scaled to the reference host
    by the mean host-speed *factor*, and the solvers' counters."""
    metrics = {"engine.seconds":
               tracer.self_seconds()["engine"] * factor / solves}
    for name in COUNTERS:
        metrics[f"engine.{name}"] = sum(
            report.stats.counters().get(name, 0) for report in reports)
    return metrics
