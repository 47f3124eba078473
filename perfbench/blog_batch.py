"""blog-batch: a JSONL blog corpus through ``find_stable_clusters``.

The paper's main scenario.  The end-to-end run times the same call
``stable --corpus ... --format jsonl`` makes: adapter, Section-3
cluster generation per interval, window join, solve, index write.
The traced run calls the same public functions one stage at a time
and wraps a span around each, so the layers are timed from outside;
its clusters, paths and index bytes must equal the one-call run's.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
from typing import Dict, List, Tuple

from repro.cooccur import KeywordGraph
from repro.cooccur.keyword_graph import RHO_DEFAULT, PruneReport
from repro.corpus import JSONLAdapter
from repro.core.stability import THETA_DEFAULT, build_cluster_graph
from repro.engine import StableQuery, solve_report
from repro.graph.clusters import compact_clusters, extract_clusters
from repro.index import ClusterIndexWriter
from repro.index.format import load_manifest
from repro.parallel import SerialExecutor
from repro.pipeline.stable_pipeline import find_stable_clusters
from repro.text import IntervalCorpus, preprocess
from repro.vocab import Vocabulary

from common import (
    DegenerateRun,
    HostClock,
    Outcome,
    layer_seconds,
    peak_rss_mib,
    repeat_setup,
    run_for,
)
from gen import BLOG_INTERVALS, write_blog_jsonl
from spans import Tracer

L, K, GAP = 3, 5, 1
QUERY = StableQuery(problem="kl", l=L, k=K, gap=GAP)
MIN_NODES = 2 * BLOG_INTERVALS
MIN_PASSES = 3


class _LappingExecutor(SerialExecutor):
    """The serial executor ``find_stable_clusters`` uses by default,
    ending a :class:`HostClock` segment after each interval's stage.
    It reports no worker count, so the query and the plan stay exactly
    those of the default call (the index-bytes check holds it to
    that)."""

    workers = None

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock

    def map_stages(self, fn, items, chunk_size=None) -> List:
        results = []
        for item in items:
            results.append(fn(item))
            self.clock.lap()
        return results


def one_call_pass(corpus_path: str, index_dir: str, clock: HostClock):
    """The end-to-end operation: file in, persisted index out."""
    adapter = JSONLAdapter(corpus_path)
    corpus = IntervalCorpus.from_adapter(adapter)
    result = find_stable_clusters(corpus, l=L, k=K, gap=GAP,
                                  index_dir=index_dir,
                                  workers=_LappingExecutor(clock))
    return corpus.num_documents, result


def staged_pass(corpus_path: str, index_dir: str, tracer,
                clock: HostClock) -> Dict:
    """The same run as :func:`one_call_pass`, one public call per
    layer, each inside a span, and a *clock* segment per interval.
    Returns outputs and layer counts."""
    counts = {"keywords": 0, "pairs": 0, "graph_keywords": 0,
              "candidates": 0, "after_chi2": 0, "after_rho": 0,
              "clusters": 0}
    with tracer.span("run"):
        with tracer.span("corpus"):
            adapter = JSONLAdapter(corpus_path)
            corpus = IntervalCorpus.from_adapter(adapter)
        vocab = Vocabulary()
        interval_clusters = []
        for interval in corpus.interval_indices:
            documents = corpus.documents(interval)
            if not documents:
                interval_clusters.append([])
                continue
            with tracer.span("text"):
                keyword_sets = [preprocess(doc.text) for doc in documents]
            with tracer.span("vocab"):
                local = Vocabulary()
                id_sets = local.intern_sets(keyword_sets)
            with tracer.span("cooccur"):
                graph = KeywordGraph.from_keyword_sets(id_sets)
            with tracer.span("prune"):
                report = PruneReport()
                pruned = graph.prune(rho_threshold=RHO_DEFAULT,
                                     report=report)
            with tracer.span("graph"):
                clusters = compact_clusters(extract_clusters(
                    pruned, interval=interval, min_edges=2, vocab=local))
            with tracer.span("vocab"):
                interval_clusters.append(
                    [cluster.rebind(vocab) for cluster in clusters])
            counts["keywords"] += sum(len(kws) for kws in keyword_sets)
            counts["pairs"] += graph.num_edges
            counts["graph_keywords"] += graph.num_keywords
            counts["candidates"] += report.total_edges
            counts["after_chi2"] += report.after_chi2
            counts["after_rho"] += report.after_rho
            counts["clusters"] += len(clusters)
            clock.lap()
        with tracer.span("affinity"):
            cluster_graph = build_cluster_graph(
                interval_clusters, affinity="jaccard", theta=THETA_DEFAULT,
                gap=GAP)
        with tracer.span("engine"):
            solved = solve_report(cluster_graph, QUERY, solver="auto")
            solved.plan.vocab_size = len(vocab)
        with tracer.span("index"):
            index_bytes = ClusterIndexWriter.write_run(
                index_dir, interval_clusters, solved.paths, vocab=vocab,
                query=QUERY, plan=solved.plan)
    return {"corpus": corpus, "report": adapter.report,
            "interval_clusters": interval_clusters, "paths": solved.paths,
            "cluster_graph": cluster_graph, "solved": solved,
            "vocab_size": len(vocab), "index_bytes": index_bytes,
            "counts": counts}


def encode_run(interval_clusters, paths) -> bytes:
    """Canonical bytes of a run's clusters and paths."""
    return json.dumps({
        "clusters": [[[sorted(cluster.keywords),
                       [list(edge) for edge in cluster.edges]]
                      for cluster in clusters]
                     for clusters in interval_clusters],
        "paths": [[[list(node) for node in path.nodes], path.weight]
                  for path in paths],
    }, sort_keys=True).encode("utf-8")


def index_files(directory: str) -> Dict[str, bytes]:
    """Every file of an index directory, by relative name."""
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


def guard(result) -> None:
    """Refuse a corpus that yields no structure worth timing."""
    nodes = result.cluster_graph.num_nodes
    if nodes < MIN_NODES or not result.paths:
        raise DegenerateRun(
            f"blog-batch corpus is degenerate: {nodes} cluster-graph "
            f"nodes (need {MIN_NODES}), {len(result.paths)} stable paths")


def run(seed: int, seconds: float, trace: bool, work: str,
        trace_path: str) -> Outcome:
    outcome = Outcome()
    corpus_path = os.path.join(work, "blog.jsonl")
    _, setup_s = repeat_setup(lambda: write_blog_jsonl(corpus_path, seed))

    untraced: List[float] = []
    scaled: List[float] = []
    rates: List[float] = []
    tracers: List[Tracer] = []
    factors: List[float] = []
    traced: List[float] = []
    # The latest pass of each kind: (index directory, its output).
    latest: Dict[str, Tuple[str, object]] = {}

    def keep(kind: str, directory: str, output) -> None:
        if kind in latest:
            shutil.rmtree(latest[kind][0])
        latest[kind] = (directory, output)

    def traced_pass(number: int) -> None:
        tracer = Tracer()
        directory = os.path.join(work, f"blog-staged-{number}")
        clock = HostClock()
        output = clock.run(
            lambda: staged_pass(corpus_path, directory, tracer, clock))
        keep("staged", directory, output)
        tracers.append(tracer)
        factors.append(clock.factor)
        traced.append(clock.scaled)

    def step(number: int) -> None:
        directory = os.path.join(work, f"blog-index-{number}")
        clock = HostClock()
        docs, result = clock.run(
            lambda: one_call_pass(corpus_path, directory, clock))
        outcome.attempted += 1
        guard(result)
        untraced.append(clock.seconds)
        scaled.append(clock.scaled)
        rates.append(docs / clock.scaled)
        keep("one-call", directory, result)
        if trace:
            traced_pass(number)

    passes = run_for(seconds, MIN_PASSES, step)
    peak = peak_rss_mib()
    if not trace:
        traced_pass(passes)
    one_call_dir, result = latest["one-call"]
    staged_dir, check = latest["staged"]
    outcome.check("staged clusters and paths equal find_stable_clusters",
                  encode_run(check["interval_clusters"], check["paths"])
                  == encode_run(result.interval_clusters, result.paths))
    outcome.check("staged index files equal find_stable_clusters",
                  index_files(staged_dir) == index_files(one_call_dir))

    docs_per_s = statistics.median(rates)
    outcome.metrics.update(
        setup_s=setup_s, peak_rss_mb=peak, throughput_per_s=docs_per_s,
        latency_p50_ms=statistics.median(scaled) * 1000.0)
    outcome.notes += [
        f"batch_docs_per_s {docs_per_s:.1f} docs/s "
        f"({check['corpus'].num_documents} docs, "
        f"{len(check['corpus'].interval_indices)} intervals, "
        f"{passes} passes; {statistics.median(untraced):.3f} s per pass "
        "before host-speed scaling)",
        f"cluster graph {result.cluster_graph.num_nodes} nodes, "
        f"{result.cluster_graph.num_edges} edges, "
        f"{len(result.paths)} paths, solver {result.plan.solver}",
    ]
    if trace:
        outcome.metrics.update(layer_metrics(check, tracers, factors,
                                             scaled, traced, staged_dir))
        tracers[-1].write_jsonl(trace_path)
    return outcome


def layer_metrics(last: Dict, tracers: List[Tracer], factors: List[float],
                  untraced: List[float], traced: List[float],
                  index_dir: str) -> Dict[str, float]:
    """Per-layer figures: self seconds per pass and the counts each
    layer reported.  Times are means over the passes, scaled to the
    reference host like the end-to-end ones, so the layers' self times
    add up to the mean traced pass; *untraced* and *traced* hold the
    scaled one-call and staged pass times."""
    seconds = layer_seconds(tracers, factors)
    counts = last["counts"]
    docs = last["corpus"].num_documents
    report = last["report"]
    stats = last["solved"].stats.counters()
    traced_s = statistics.mean(traced)
    untraced_s = statistics.mean(untraced)
    layers = ("corpus", "text", "vocab", "cooccur", "prune", "graph",
              "affinity", "engine", "index")
    return {
        "corpus.seconds": seconds["corpus"],
        "corpus.docs": report.parsed,
        "corpus.repaired": report.repaired,
        "corpus.malformed": report.malformed,
        "text.seconds": seconds["text"],
        "text.keywords_per_doc": counts["keywords"] / docs,
        "vocab.seconds": seconds["vocab"],
        "vocab.size": last["vocab_size"],
        "cooccur.seconds": seconds["cooccur"],
        "cooccur.pairs": counts["pairs"],
        "cooccur.keywords": counts["graph_keywords"],
        "prune.seconds": seconds["prune"],
        "prune.after_chi2": counts["after_chi2"],
        "prune.after_rho": counts["after_rho"],
        "prune.keep_ratio": counts["after_rho"] / counts["candidates"],
        "graph.seconds": seconds["graph"],
        "graph.clusters": counts["clusters"],
        "affinity.seconds": seconds["affinity"],
        "affinity.nodes": last["cluster_graph"].num_nodes,
        "affinity.edges": last["cluster_graph"].num_edges,
        "engine.seconds": seconds["engine"],
        "engine.nodes_processed": stats.get("nodes_processed", 0),
        "engine.paths_generated": stats.get("paths_generated", 0),
        "engine.pushes": stats.get("pushes", 0),
        "engine.prunes": stats.get("prunes", 0),
        "index.write_seconds": seconds["index"],
        "index.bytes": last["index_bytes"],
        "index.bytes_per_doc": last["index_bytes"] / docs,
        "index.segments": len(load_manifest(index_dir)["segments"]),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.layer_self_s": sum(seconds[name] for name in layers),
    }
