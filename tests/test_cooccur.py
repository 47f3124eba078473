"""Unit, integration and property tests for co-occurrence counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cooccur import (
    KeywordGraph,
    emit_pairs,
    write_pair_file,
)
from repro.cooccur.pairs import read_pair_file
from repro.cooccur.keyword_graph import PruneReport
from repro.vocab import Vocabulary

DOCS = [
    frozenset({"saddam", "hussein", "trial"}),
    frozenset({"saddam", "hussein"}),
    frozenset({"soccer", "beckham"}),
    frozenset({"saddam", "trial"}),
]


class TestEmitPairs:
    def test_self_pairs_count_unary(self):
        pairs = list(emit_pairs([frozenset({"b", "a"})]))
        assert ("a", "a") in pairs
        assert ("b", "b") in pairs

    def test_cross_pairs_canonical_order(self):
        pairs = list(emit_pairs([frozenset({"b", "a"})]))
        assert ("a", "b") in pairs
        assert ("b", "a") not in pairs

    def test_pair_multiplicity_equals_document_count(self):
        pairs = list(emit_pairs(DOCS))
        assert pairs.count(("hussein", "saddam")) == 2
        assert pairs.count(("saddam", "saddam")) == 3

    def test_empty_document_emits_nothing(self):
        assert list(emit_pairs([frozenset()])) == []

    def test_singleton_document_emits_only_self_pair(self):
        assert list(emit_pairs([frozenset({"x"})])) == [("x", "x")]


class TestPairFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "pairs.tsv")
        count = write_pair_file(DOCS, path)
        pairs = list(read_pair_file(path))
        assert len(pairs) == count
        assert sorted(pairs) == sorted(emit_pairs(DOCS))

    def test_roundtrip_across_write_buffer_boundary(self, tmp_path):
        # One 140-keyword document emits 140 + C(140, 2) = 9870 pairs,
        # past the writelines chunk size, so both the flushed chunks
        # and the final partial chunk are exercised.
        big = [frozenset(f"kw{i:03d}" for i in range(140))]
        path = str(tmp_path / "big-pairs.tsv")
        count = write_pair_file(big, path)
        assert count == 140 + (140 * 139) // 2
        assert list(read_pair_file(path)) == list(emit_pairs(big))


class TestCountingOracle:
    """``from_keyword_sets`` against counts taken straight from the
    documents, for string tokens and interned ids alike."""

    @staticmethod
    def _assert_counts_match(docs):
        graph = KeywordGraph.from_keyword_sets(docs)
        keywords = set().union(*docs)
        for u in keywords:
            assert graph.count(u) == sum(u in d for d in docs)
        for u in keywords:
            for v in keywords:
                assert graph.pair_count(u, v) == \
                    sum(u in d and v in d for d in docs)
        distinct_pairs = {(u, v) for d in docs for u in d for v in d
                          if u < v}
        assert graph.num_edges == len(distinct_pairs)
        assert graph.num_keywords == len(keywords)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.frozensets(st.sampled_from("abcdefgh"), max_size=6),
        min_size=1, max_size=12))
    def test_counts_match_documents(self, docs):
        self._assert_counts_match(docs)
        self._assert_counts_match(Vocabulary().intern_sets(docs))


class TestKeywordGraph:
    def test_from_keyword_sets_counts(self):
        graph = KeywordGraph.from_keyword_sets(DOCS)
        assert graph.num_documents == 4
        assert graph.count("saddam") == 3
        assert graph.count("beckham") == 1
        assert graph.pair_count("saddam", "hussein") == 2
        assert graph.pair_count("hussein", "saddam") == 2
        assert graph.pair_count("saddam", "saddam") == 3
        assert graph.pair_count("saddam", "beckham") == 0

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            KeywordGraph.from_keyword_sets([])

    def test_bad_triplet_count_rejected(self):
        with pytest.raises(ValueError):
            KeywordGraph.from_triplets([("a", "b", 0)], num_documents=5)

    def test_num_keywords_and_edges(self):
        graph = KeywordGraph.from_keyword_sets(DOCS)
        assert graph.num_keywords == 5
        # Edges: saddam-hussein, saddam-trial, hussein-trial,
        # soccer-beckham.
        assert graph.num_edges == 4

    def test_statistics_accessible_per_edge(self):
        graph = KeywordGraph.from_keyword_sets(DOCS)
        assert graph.chi_square("saddam", "hussein") > 0
        assert graph.correlation("saddam", "hussein") > 0
        assert graph.correlation("saddam", "beckham") < 0


class TestPrune:
    def test_correlated_edges_survive(self):
        # 10 documents where {a, b} always co-occur and c floats alone.
        docs = [frozenset({"a", "b"}) for _ in range(5)]
        docs += [frozenset({"c"}) for _ in range(5)]
        graph = KeywordGraph.from_keyword_sets(docs)
        pruned = graph.prune()
        assert pruned.has_edge("a", "b")
        assert pruned.weight("a", "b") == pytest.approx(1.0)

    def test_incidental_cooccurrence_pruned(self):
        # a and b appear in half the docs each, together only ~expected.
        docs = []
        for i in range(40):
            kws = set()
            if i % 2 == 0:
                kws.add("a")
            if i % 4 < 2:
                kws.add("b")
            kws.add(f"filler{i}")
            docs.append(frozenset(kws))
        graph = KeywordGraph.from_keyword_sets(docs)
        pruned = graph.prune()
        assert not pruned.has_edge("a", "b")

    def test_report_stages_monotone(self):
        docs = [frozenset({"a", "b", "c"}) for _ in range(3)]
        docs += [frozenset({"a", "x"}), frozenset({"b", "y"}),
                 frozenset({"c"}), frozenset({"x", "y"})]
        graph = KeywordGraph.from_keyword_sets(docs)
        report = PruneReport()
        graph.prune(report=report)
        assert report.total_edges >= report.after_chi2 >= report.after_rho

    def test_higher_rho_prunes_more(self):
        docs = []
        for i in range(60):
            kws = {f"bg{i % 7}"}
            if i % 3 == 0:
                kws |= {"u", "v"}
            if i % 3 == 1:
                kws.add("u")
            docs.append(frozenset(kws))
        graph = KeywordGraph.from_keyword_sets(docs)
        loose = graph.prune(rho_threshold=0.1)
        tight = graph.prune(rho_threshold=0.9)
        assert tight.num_edges <= loose.num_edges

    def test_pruned_weights_are_rho(self):
        docs = [frozenset({"a", "b"})] * 4 + [frozenset({"a"})] * 2 \
            + [frozenset({"z"})] * 4
        graph = KeywordGraph.from_keyword_sets(docs)
        pruned = graph.prune(rho_threshold=0.2)
        if pruned.has_edge("a", "b"):
            assert pruned.weight("a", "b") == pytest.approx(
                graph.correlation("a", "b"))
