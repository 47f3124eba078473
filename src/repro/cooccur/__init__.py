"""Keyword co-occurrence graph generation (Section 3).

The paper's methodology, counted in memory per interval:

1. one pass over the documents of the interval, emitting every keyword
   pair per document (including the self pair ``(u, u)``, which yields
   the unary count ``A(u)``) — :mod:`repro.cooccur.pairs`;
2. a hash aggregation of that pair stream into the counts
   ``A(u, v)`` — :mod:`repro.cooccur.aggregate` (the paper sorts a
   pair file externally instead; see docs/architecture.md);
3. a :class:`~repro.cooccur.keyword_graph.KeywordGraph` over those
   counts, supporting the chi-square and correlation-coefficient
   pruning that yields the graph ``G'`` whose biconnected components
   are the keyword clusters.
"""

from repro.cooccur.aggregate import count_pairs_in_memory
from repro.cooccur.keyword_graph import KeywordGraph
from repro.cooccur.pairs import emit_pairs, write_pair_file

__all__ = [
    "KeywordGraph",
    "count_pairs_in_memory",
    "emit_pairs",
    "write_pair_file",
]
