"""The per-interval keyword graph G and its pruned form G'.

``KeywordGraph`` stores the unary counts ``A(u)``, the pairwise counts
``A(u, v)`` and the collection size ``n``, and applies the two pruning
stages of Section 3 (chi-square at 95%, then ρ > 0.2) to produce the
correlation-weighted graph ``G'`` on which biconnected components are
computed.  Keywords are generic tokens: the production pipeline
builds the graph over interned integer ids (see :mod:`repro.vocab`);
raw string sets work identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.cooccur.aggregate import Token, Triplet, count_pairs_in_memory
from repro.graph.adjacency import Graph
from repro.stats import (
    CHI2_CRITICAL_95,
    chi_square,
    correlation_coefficient,
)

RHO_DEFAULT = 0.2
# Pairs where either keyword appears in fewer documents are dropped
# before the chi-square test (see KeywordGraph.prune).
MIN_SUPPORT = 5


@dataclass
class PruneReport:
    """Edge survival counts for each pruning stage (Fig. 6 ablation)."""

    total_edges: int = 0
    after_chi2: int = 0
    after_rho: int = 0


class KeywordGraph:
    """Keyword co-occurrence graph for one temporal interval."""

    def __init__(self, num_documents: int) -> None:
        if num_documents <= 0:
            raise ValueError(
                f"num_documents must be positive, got {num_documents}")
        self.num_documents = num_documents
        self._node_counts: Dict[Token, int] = {}
        self._edge_counts: Dict[Tuple[Token, Token], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_triplets(cls, triplets: Iterable[Triplet],
                      num_documents: int) -> "KeywordGraph":
        """Build from a ``(u, v, A(u,v))`` stream; ``(u, u)`` triplets
        carry the unary counts ``A(u)``."""
        graph = cls(num_documents)
        for u, v, count in triplets:
            if count <= 0:
                raise ValueError(
                    f"triplet ({u!r}, {v!r}) has non-positive count {count}")
            if u == v:
                graph._node_counts[u] = graph._node_counts.get(u, 0) + count
            else:
                key = (u, v) if u < v else (v, u)
                graph._edge_counts[key] = (
                    graph._edge_counts.get(key, 0) + count)
        return graph

    @classmethod
    def from_keyword_sets(cls, keyword_sets: Iterable[FrozenSet[Token]]
                          ) -> "KeywordGraph":
        """Build from per-document keyword sets (hash-aggregated in
        memory)."""
        materialized = list(keyword_sets)
        n = len(materialized)
        if n == 0:
            raise ValueError("cannot build a keyword graph from an "
                             "empty document collection")
        counts = count_pairs_in_memory(materialized)
        return cls.from_triplets(
            ((u, v, c) for (u, v), c in counts.items()), num_documents=n)

    # ------------------------------------------------------------------
    # Counts and statistics
    # ------------------------------------------------------------------

    @property
    def num_keywords(self) -> int:
        """Distinct keywords (vertices of G)."""
        return len(self._node_counts)

    @property
    def num_edges(self) -> int:
        """Distinct co-occurring pairs (edges of G)."""
        return len(self._edge_counts)

    def keywords(self) -> Iterator[Token]:
        """Iterate over the vertex set."""
        return iter(self._node_counts)

    def count(self, u: Token) -> int:
        """A(u): documents containing keyword *u*."""
        return self._node_counts.get(u, 0)

    def pair_count(self, u: Token, v: Token) -> int:
        """A(u, v): documents containing both keywords."""
        if u == v:
            return self.count(u)
        key = (u, v) if u < v else (v, u)
        return self._edge_counts.get(key, 0)

    def edges(self) -> Iterator[Triplet]:
        """Iterate over ``(u, v, A(u,v))`` for all co-occurring pairs."""
        for (u, v), count in self._edge_counts.items():
            yield (u, v, count)

    def chi_square(self, u: Token, v: Token) -> float:
        """Formula 1 statistic for the pair ``(u, v)``."""
        return chi_square(self.count(u), self.count(v),
                          self.pair_count(u, v), self.num_documents)

    def correlation(self, u: Token, v: Token) -> float:
        """Formula 3 correlation coefficient for the pair ``(u, v)``."""
        return correlation_coefficient(self.count(u), self.count(v),
                                       self.pair_count(u, v),
                                       self.num_documents)

    # ------------------------------------------------------------------
    # Pruning (Section 3): chi-square filter then rho threshold
    # ------------------------------------------------------------------

    def prune(self, rho_threshold: float = RHO_DEFAULT,
              report: Optional[PruneReport] = None) -> Graph:
        """Return G': the ρ-weighted graph of strongly correlated pairs.

        An edge survives when χ² > :data:`~repro.stats.CHI2_CRITICAL_95`
        **and** ρ > *rho_threshold*; the surviving edge's weight is ρ.
        Both tests are computed in the single pass over the edges that
        the paper prescribes.

        Pairs where either keyword appears in fewer than
        :data:`MIN_SUPPORT` documents are dropped first.  The
        chi-square 2x2 approximation is invalid for tiny expected
        counts (the classic rule of thumb is >= 5; see Manning &
        Schütze, the paper's reference [12]): without this filter,
        every pair of words that co-occur in a single document scores
        ρ = 1.0 and χ² = n, and each document's unique rare words form
        a spurious clique.
        """
        pruned = Graph()
        n = self.num_documents
        total = after_chi2 = after_rho = 0
        for u, v, a_uv in self.edges():
            total += 1
            a_u, a_v = self.count(u), self.count(v)
            if min(a_u, a_v) < MIN_SUPPORT:
                continue
            if chi_square(a_u, a_v, a_uv, n) <= CHI2_CRITICAL_95:
                continue
            after_chi2 += 1
            rho = correlation_coefficient(a_u, a_v, a_uv, n)
            if rho <= rho_threshold:
                continue
            after_rho += 1
            pruned.add_edge(u, v, weight=rho)
        if report is not None:
            report.total_edges = total
            report.after_chi2 = after_chi2
            report.after_rho = after_rho
        return pruned

    def __repr__(self) -> str:
        return (f"KeywordGraph(n={self.num_documents}, "
                f"keywords={self.num_keywords}, edges={self.num_edges})")
