"""Full pipeline: interval corpus -> stable keyword clusters.

Combines Section 3 (per-interval cluster generation) and Section 4
(cluster graph + kl-stable / normalized search) behind one call, the
way the paper's qualitative study runs a week of BlogScope data:
clusters per day with ρ = 0.2, Jaccard affinity, θ = 0.1, then stable
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple, Union

from repro.cooccur.keyword_graph import RHO_DEFAULT
from repro.core.cluster_graph import ClusterGraph
from repro.core.paths import Path
from repro.core.solver_stats import SolverStats
from repro.core.stability import THETA_DEFAULT, build_cluster_graph
from repro.engine import ExecutionPlan, StableQuery, solve_report
from repro.graph.clusters import KeywordCluster
from repro.index.format import load_manifest
from repro.index.writer import ClusterIndexWriter
from repro.parallel import Executor, open_executor, resolve_workers
from repro.pipeline.cluster_generation import (
    ClusterGenerationReport,
    generate_interval_clusters_task,
)
from repro.text.documents import Document, IntervalCorpus
from repro.vocab import Vocabulary


@dataclass
class StableClusterResult:
    """Everything the full pipeline produced."""

    interval_clusters: List[List[KeywordCluster]]
    cluster_graph: ClusterGraph
    paths: List[Path]
    generation_reports: List[ClusterGenerationReport] = \
        field(default_factory=list)
    plan: Optional[ExecutionPlan] = None
    solver_stats: Optional[SolverStats] = None
    vocabulary: Optional[Vocabulary] = None
    # Directory of the persistent index the run wrote (None when the
    # caller did not ask for one).
    index_dir: Optional[str] = None

    def path_keywords(self, path: Path) -> List[frozenset]:
        """The keyword sets along one stable path."""
        return [self.cluster_graph.payload(node).keywords
                for node in path.nodes]

    def generation_summary(self) -> ClusterGenerationReport:
        """All per-interval (per-worker) generation reports merged
        into one Figure-6 row."""
        return ClusterGenerationReport.merge(self.generation_reports)


def _generation_stage(item: Tuple[int, List[Document]],
                      **options) -> Tuple[List[KeywordCluster],
                                          ClusterGenerationReport]:
    """One executor work item: ``(interval, documents)`` in, clusters
    and report out.  Module-level (plus :func:`functools.partial` for
    the options) so it ships to worker processes."""
    interval, documents = item
    return generate_interval_clusters_task(documents, interval,
                                           **options)


def generate_corpus_clusters(corpus: IntervalCorpus,
                             rho_threshold: float = RHO_DEFAULT,
                             min_edges: int = 2,
                             executor: Union[int, Executor, None] = None,
                             vocab: Optional[Vocabulary] = None
                             ) -> Tuple[List[List[KeywordCluster]],
                                        List[ClusterGenerationReport]]:
    """Section 3 over every populated interval, fanned out on
    *executor* — an :class:`~repro.parallel.Executor` (used as-is), a
    worker count (a process pool is opened and closed around the
    call), or ``None`` for serial.

    Intervals are independent units of work — each one's co-occurrence
    counts, pruning, and biconnected components read only its own
    documents — so results are identical whatever the executor; only
    wall-clock changes.  Each task returns clusters interned against
    its own interval-local snapshot; they are rebound here, in
    interval order, into one corpus vocabulary (*vocab*, created when
    not supplied) — id assignment therefore depends only on corpus
    content, never on the executor.  Returns the per-interval cluster
    lists and reports, both in ``corpus.interval_indices`` order.
    """
    intervals = corpus.interval_indices
    items = [(interval, corpus.documents(interval))
             for interval in intervals]
    stage = partial(_generation_stage, rho_threshold=rho_threshold,
                    min_edges=min_edges)
    with open_executor(executor) as pool:
        outputs = pool.map_stages(stage, items)
    if vocab is None:
        vocab = Vocabulary()
    interval_clusters = [[cluster.rebind(vocab) for cluster in clusters]
                         for clusters, _ in outputs]
    reports = [report for _, report in outputs]
    return interval_clusters, reports


def find_stable_clusters(corpus: IntervalCorpus,
                         l: int, k: int, gap: int = 0,
                         problem: str = "kl",
                         rho_threshold: float = RHO_DEFAULT,
                         affinity: Union[str, Callable] = "jaccard",
                         theta: float = THETA_DEFAULT,
                         min_edges: int = 2,
                         diverse: bool = False,
                         diverse_policy: str = "prefix-suffix",
                         solver: str = "auto",
                         memory_budget: Optional[int] = None,
                         workers: Union[int, Executor, None] = None,
                         index_dir: Optional[str] = None,
                         index_append: bool = False
                         ) -> StableClusterResult:
    """Run the complete two-stage pipeline over *corpus*.

    ``problem='kl'`` searches paths of length exactly *l* (Problem 1);
    ``problem='normalized'`` searches paths of length >= *l* scored by
    weight/length (Problem 2).  With ``diverse=True`` (Problem 1 only)
    the reported paths are filtered so no two share a prefix/suffix
    per *diverse_policy* — the variant Section 4 sketches for
    information-discovery use.

    The search stage routes through :mod:`repro.engine`: ``solver``
    names an algorithm (``bfs``/``dfs``/``ta``/``normalized``/
    ``bruteforce``) or ``'auto'`` to let the cost-based planner pick
    from the graph's shape and *memory_budget* (bytes); the chosen
    :class:`~repro.engine.ExecutionPlan` and the solver's unified
    work counters are returned on the result.

    ``workers`` parallelizes the per-interval generation stage: an
    int fans it out on a process pool of that size (``0`` = all
    cores), an :class:`~repro.parallel.Executor` instance is used
    as-is (and left open).  Results are executor-invariant.

    ``index_dir`` persists the completed run — every interval's
    clusters, the vocabulary, the top-k paths, and the plan's
    provenance — as a :mod:`repro.index` cluster index at that
    directory (overwriting a previous index there, unless
    ``index_append=True`` continues an existing index's timeline as
    a new segment), so refinement and lookup queries can later be
    served without recomputing; the written size and segment count
    are reported on ``result.plan`` (``explain()``'s ``index:`` and
    ``segments:`` lines).
    """
    worker_count = workers.workers if isinstance(workers, Executor) \
        else workers
    query = StableQuery(problem=problem, l=l, k=k, gap=gap,
                        diverse=diverse,
                        diverse_policy=diverse_policy,
                        memory_budget=memory_budget,
                        workers=worker_count)

    if not corpus.interval_indices:
        raise ValueError("corpus has no populated intervals")

    # Execute what the plan will report: a worker-count request is
    # clamped to the m per-interval generation tasks (the planner
    # applies the same rule to the same m, so ExecutionPlan.workers
    # matches the pool that actually ran).  An explicit Executor
    # instance is the caller's to size.
    executor = workers
    if workers is not None and not isinstance(workers, Executor):
        executor = max(1, min(resolve_workers(workers),
                              len(corpus.interval_indices)))

    vocab = Vocabulary()
    interval_clusters, reports = generate_corpus_clusters(
        corpus, rho_threshold=rho_threshold, min_edges=min_edges,
        executor=executor, vocab=vocab)

    graph = build_cluster_graph(interval_clusters, affinity=affinity,
                                theta=theta, gap=gap)
    report = solve_report(graph, query, solver=solver)
    report.plan.vocab_size = len(vocab)
    if index_dir is not None:
        # The plan's index fields are set only after the write: the
        # provenance the manifest captures is the plan as it ran, and
        # the measured size cannot be part of its own recording.
        index_bytes = ClusterIndexWriter.write_run(
            index_dir, interval_clusters, report.paths,
            vocab=vocab, query=query, plan=report.plan,
            append=index_append)
        report.plan.index_dir = index_dir
        report.plan.index_bytes = index_bytes
        report.plan.index_segments = len(
            load_manifest(index_dir)["segments"])
    return StableClusterResult(interval_clusters=interval_clusters,
                               cluster_graph=graph,
                               paths=report.paths,
                               generation_reports=reports,
                               plan=report.plan,
                               solver_stats=report.stats,
                               vocabulary=vocab,
                               index_dir=index_dir)


def render_path_clusters(path: Path, cluster_lookup,
                         max_keywords: int = 8,
                         missing: str = "(cluster unavailable)") -> str:
    """Human-readable rendering of one stable path: a header line and
    one line per cluster with its interval and keywords.

    ``cluster_lookup(node)`` returns the cluster behind a node or
    ``None`` (a streaming window may have evicted it, rendered as
    *missing*).  Batch and streaming front ends share this renderer so
    their outputs stay byte-comparable.
    """
    lines = [f"stable path: weight={path.weight:.3f} "
             f"length={path.length} stability={path.stability:.3f}"]
    for node in path.nodes:
        cluster = cluster_lookup(node)
        if cluster is None:
            lines.append(f"  t{node[0]}: {missing}")
            continue
        keywords = sorted(cluster.keywords)[:max_keywords]
        suffix = " ..." if len(cluster.keywords) > max_keywords else ""
        lines.append(f"  t{node[0]}: {' '.join(keywords)}{suffix}")
    return "\n".join(lines)


def render_stable_path(result: StableClusterResult, path: Path,
                       max_keywords: int = 8) -> str:
    """Human-readable rendering of one stable path (for the CLI and
    examples): one line per cluster with its interval and keywords."""
    return render_path_clusters(path, result.cluster_graph.payload,
                                max_keywords=max_keywords)
