"""dblp-stream: DBLP-style XML through the streaming pipeline, with a
tailing query service answering after every interval.

The only workload that runs the adapter's entity repair, the online
window join, and the index's write-beside-read path (append, segment
flush and merge, reader refresh).  Freshness is the time from handing
one interval's documents to the pipeline until the tailing service
has answered a refinement for that interval.

The traced run splits ``add_documents`` into the public calls it is
made of — ``generate_interval_clusters_task``, then the linker's
window join and the index writer's append that ``add_clusters``
performs — and must end at the same top-k.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from typing import Dict, List

from repro.corpus import DBLPAdapter
from repro.index.format import load_manifest
from repro.pipeline.cluster_generation import generate_interval_clusters_task
from repro.pipeline.stable_pipeline import find_stable_clusters
from repro.service import ClusterQueryService
from repro.serving import encode_payload, refine_payload
from repro.streaming import StreamingDocumentPipeline
from repro.text import IntervalCorpus

from common import (
    DegenerateRun,
    HostClock,
    Outcome,
    layer_seconds,
    path_keys,
    peak_rss_mib,
    percentile,
    repeat_setup,
    run_for,
)
from gen import DBLP_YEARS, write_dblp_xml
from spans import NullTracer, Tracer

L, K, GAP = 3, 5, 1
MIN_CLUSTERS = DBLP_YEARS
MIN_PASSES = 3
# Intervals per timed segment: about half a second of work.
PROBE_EVERY = 22


def refine_keywords(active: Dict[int, List[str]], seed: int) -> List[str]:
    """One keyword per interval a user would ask about: an active
    topic's keyword, or a generic title word in quiet years."""
    rng = random.Random(seed)
    return [rng.choice(active[year]) if active[year] else "system"
            for year in range(DBLP_YEARS)]


def stream_pass(corpus_path: str, index_dir: str, keywords: List[str],
                tracer) -> Dict:
    """Adapter start to final top-k; one refinement per interval.

    With a recording *tracer* each interval's ingest is split into its
    public calls, each in a span; with :class:`NullTracer` it is the
    single ``add_documents`` call.  The pass is timed by a
    :class:`HostClock` in segments of :data:`PROBE_EVERY` intervals,
    and each interval's freshness is scaled by its segment's factor."""
    split = isinstance(tracer, Tracer)
    clock = HostClock()
    fresh: List[float] = []
    answers: List[bytes] = []
    state = {"service": None, "join_edges": 0}

    def start():
        with tracer.span("corpus"):
            adapter = DBLPAdapter(corpus_path)
            corpus = IntervalCorpus.from_adapter(adapter)
        return adapter, corpus, StreamingDocumentPipeline(
            l=L, k=K, gap=GAP, index_dir=index_dir, index_append=False)

    def ingest(intervals: range) -> None:
        for interval in intervals:
            documents = corpus.documents(interval)
            handed = time.perf_counter()
            if split:
                state["join_edges"] += _traced_ingest(
                    pipeline, documents, interval, tracer)
            else:
                state["join_edges"] += pipeline.add_documents(
                    documents).num_edges
            with tracer.span("index.refresh"):
                if state["service"] is None:
                    state["service"] = ClusterQueryService(index_dir)
                else:
                    state["service"].refresh()
            with tracer.span("service"):
                answers.append(encode_payload(refine_payload(
                    state["service"], keywords[interval], interval)))
            fresh.append(time.perf_counter() - handed)

    with tracer.span("run"):
        adapter, corpus, pipeline = clock.run(start)
        try:
            for first in range(0, corpus.num_intervals, PROBE_EVERY):
                measured = len(fresh)
                clock.run(lambda: ingest(range(
                    first, min(first + PROBE_EVERY, corpus.num_intervals))))
                fresh[measured:] = [seconds * clock.factors[-1]
                                    for seconds in fresh[measured:]]
            top_k = clock.run(pipeline.top_k)
            tailed = state["service"].num_intervals
        finally:
            if state["service"] is not None:
                state["service"].close()
            pipeline.close()
    return {"corpus": corpus, "report": adapter.report, "top_k": top_k,
            "seconds": clock.seconds, "scaled": clock.scaled,
            "factor": clock.factor, "fresh": fresh, "answers": answers,
            "tailed": tailed, "join_edges": state["join_edges"],
            "pipeline": pipeline}


def _traced_ingest(pipeline, documents, interval: int, tracer) -> int:
    """``add_documents`` as its public calls, each in a span; returns
    the number of cluster-graph edges the window join added."""
    with tracer.span("streaming.cluster"):
        clusters, generation = generate_interval_clusters_task(
            documents, interval)
        pipeline.generation_reports.append(generation)
    with tracer.span("streaming.link"):
        rebound = [cluster.rebind(pipeline.vocab) for cluster in clusters]
        # The linker runs the window join and feeds the incremental
        # engine; from outside the two are one call.
        with tracer.span("affinity"):
            pipeline.linker.add_interval(rebound)
        writer = pipeline.index_writer
        with tracer.span("index.append"):
            writer.append_interval(rebound)
            writer.set_paths(pipeline.top_k())
    return pipeline.linker.last_num_edges


def guard(result: Dict) -> None:
    clusters = sum(report.num_clusters
                   for report in result["pipeline"].generation_reports)
    if clusters < MIN_CLUSTERS or not result["top_k"]:
        raise DegenerateRun(
            f"dblp-stream corpus is degenerate: {clusters} clusters "
            f"(need {MIN_CLUSTERS}), {len(result['top_k'])} stable paths")


def run(seed: int, seconds: float, trace: bool, work: str,
        trace_path: str) -> Outcome:
    outcome = Outcome()
    corpus_path = os.path.join(work, "dblp.xml")
    active, setup_s = repeat_setup(
        lambda: write_dblp_xml(corpus_path, seed))
    keywords = refine_keywords(active, seed)

    rates: List[float] = []
    raw_rates: List[float] = []
    fresh: List[float] = []
    scaled: List[float] = []
    results: List[Dict] = []
    staged: List[Dict] = []
    factors: List[float] = []
    traced_scaled: List[float] = []
    tracers: List[Tracer] = []

    def one_pass(number: int, tracer) -> Dict:
        index_dir = os.path.join(work, f"dblp-index-{number}")
        result = stream_pass(corpus_path, index_dir, keywords, tracer)
        result["segments"] = len(load_manifest(index_dir)["segments"])
        with ClusterQueryService(index_dir) as final:
            result["final_answers"] = [
                encode_payload(refine_payload(final, keyword, interval))
                for interval, keyword in enumerate(keywords)]
        shutil.rmtree(index_dir)
        outcome.attempted += 1 + len(result["fresh"])
        guard(result)
        return result

    def step(number: int) -> None:
        result = one_pass(number, NullTracer())
        docs = result["corpus"].num_documents
        rates.append(docs / result["scaled"])
        raw_rates.append(docs / result["seconds"])
        scaled.append(result["scaled"])
        fresh.extend(result["fresh"])
        results[:] = [result]
        if trace:
            tracer = Tracer()
            staged[:] = [one_pass(number, tracer)]
            tracers.append(tracer)
            factors.append(staged[0]["factor"])
            traced_scaled.append(staged[0]["scaled"])

    passes = run_for(seconds, MIN_PASSES, step)
    peak = peak_rss_mib()

    last = results[0]
    batch = find_stable_clusters(last["corpus"], l=L, k=K, gap=GAP)
    outcome.check("final streaming top-k equals the batch pipeline",
                  path_keys(last["top_k"]) == path_keys(batch.paths))
    if trace:
        outcome.check("traced streaming top-k equals the untraced one",
                      path_keys(staged[0]["top_k"])
                      == path_keys(last["top_k"]))
    outcome.check("tailing service reached every interval",
                  last["tailed"] == last["corpus"].num_intervals)
    outcome.check("each tailed refinement equals the finished index's",
                  last["answers"] == last["final_answers"])

    docs_per_s = statistics.median(rates)
    outcome.metrics.update(
        setup_s=setup_s, peak_rss_mb=peak, throughput_per_s=docs_per_s,
        latency_p50_ms=statistics.median(fresh) * 1000.0)
    report = last["report"]
    found = sum(json.loads(answer)["found"] for answer in last["answers"])
    outcome.notes += [
        f"stream_docs_per_s {docs_per_s:.1f} docs/s "
        f"({last['corpus'].num_documents} docs, "
        f"{last['corpus'].num_intervals} intervals, {passes} passes; "
        f"{statistics.median(raw_rates):.1f} docs/s before host-speed "
        "scaling)",
        f"fresh_p50_ms {statistics.median(fresh) * 1000.0:.3f} ms, "
        f"fresh_p90_ms {percentile(fresh, 0.9) * 1000.0:.3f} ms "
        f"({len(fresh)} intervals)",
        f"ingest: {report.parsed} parsed, {report.repaired} repaired, "
        f"{report.malformed} malformed, {report.skipped} skipped; "
        f"{len(last['top_k'])} paths, {last['segments']} index segments; "
        f"{found} of {len(last['answers'])} tailed refinements found a "
        "cluster",
    ]
    if trace:
        outcome.metrics.update(layer_metrics(
            staged[0], tracers, factors, fresh, scaled, traced_scaled))
        tracers[-1].write_jsonl(trace_path)
    return outcome


def layer_metrics(last: Dict, tracers: List[Tracer], factors: List[float],
                  fresh: List[float], untraced: List[float],
                  traced: List[float]) -> Dict[str, float]:
    """Per-layer self seconds per pass (means over the traced passes),
    per-interval medians for the streaming stages, and counts; times
    scaled to the reference host like the end-to-end ones (*fresh* and
    the untraced and traced pass times already are)."""
    seconds = layer_seconds(tracers, factors)

    def per_interval(name: str) -> float:
        return statistics.median(
            value * factor for tracer, factor in zip(tracers, factors)
            for value in tracer.durations(name))

    pipeline = last["pipeline"]
    generation = pipeline.generation_summary()
    report = last["report"]
    traced_s = statistics.mean(traced)
    untraced_s = statistics.mean(untraced)
    layers = ("corpus", "streaming.cluster", "streaming.link", "affinity",
              "index.append", "index.refresh", "service")
    return {
        "corpus.seconds": seconds["corpus"],
        "corpus.docs": report.parsed,
        "corpus.repaired": report.repaired,
        "corpus.malformed": report.malformed,
        "vocab.size": len(pipeline.vocab),
        "cooccur.pairs": generation.num_edges,
        "cooccur.keywords": generation.num_keywords,
        "prune.after_chi2": generation.edges_after_chi2,
        "prune.after_rho": generation.edges_after_rho,
        "prune.keep_ratio": generation.edges_after_rho
        / generation.num_edges,
        "graph.clusters": generation.num_clusters,
        "affinity.seconds": seconds["affinity"],
        "affinity.nodes": generation.num_clusters,
        "affinity.edges": last["join_edges"],
        "engine.nodes_processed": pipeline.stats.nodes_processed,
        "engine.paths_generated": pipeline.stats.paths_generated,
        "index.segments": last["segments"],
        "index.append_seconds": seconds["index.append"],
        "index.refresh_seconds": seconds["index.refresh"],
        "streaming.cluster_seconds": per_interval("streaming.cluster"),
        "streaming.link_seconds": per_interval("streaming.link"),
        "stream.fresh_p90_ms": percentile(fresh, 0.9) * 1000.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.layer_self_s": sum(seconds[name] for name in layers),
    }
