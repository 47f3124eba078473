"""Aggregation of emitted keyword pairs into co-occurrence counts.

Tokens are generic (interned integer ids on the production path,
strings wherever callers pass raw keyword sets); both aggregate
identically.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.cooccur.pairs import Pair, Token, emit_pairs

Triplet = Tuple[Token, Token, int]


def count_pairs_in_memory(keyword_sets: Iterable[FrozenSet[Token]]
                          ) -> Dict[Pair, int]:
    """Hash-aggregate the pair stream entirely in memory.

    The multiplicity of ``(u, v)`` is ``A(u, v)`` and that of
    ``(u, u)`` is ``A(u)``: the counts the paper obtains by sorting
    its pair file and scanning it once.
    """
    counts: Dict[Pair, int] = {}
    for pair in emit_pairs(keyword_sets):
        counts[pair] = counts.get(pair, 0) + 1
    return counts
