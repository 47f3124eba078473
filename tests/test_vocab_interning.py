"""Interned-id pipeline == string-era pipeline, end to end.

The vocabulary refactor changes the *representation* every stage
computes on (sorted int-id tuples instead of keyword strings) while
promising byte-identical user-visible outputs.  This suite pins that
promise against a string-era oracle rebuilt from the representation-
agnostic building blocks (``KeywordGraph``/``extract_clusters``/
``build_cluster_graph`` all still accept raw string keyword sets):
clusters, stable paths, scores and rendered output must match across
both problems x gaps 0-2 x every registered solver x the
memory/disk/sharded backends, in batch, streaming and parallel
(workers=2) modes.  Plus unit coverage for the vocabulary itself, the
versioned pair files, and the compact node-state codec.
"""

import os
import pickle

import pytest

from repro.cooccur.keyword_graph import KeywordGraph
from repro.cooccur.pairs import (
    PAIR_FILE_MAGIC,
    emit_pairs,
    read_pair_file,
    write_pair_file,
)
from repro.core.paths import Path
from repro.core.stability import build_cluster_graph
from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
)
from repro.engine import StableQuery, get_solver, solve_report, \
    solver_names
from repro.graph.clusters import (
    KeywordCluster,
    compact_clusters,
    extract_clusters,
)
from repro.affinity import jaccard
from repro.pipeline import find_stable_clusters, render_path_clusters
from repro.storage import open_store
from repro.storage.codec import (
    decode_record,
    encode_compact,
    encode_pickle,
)
from repro.storage.diskdict import DiskDict
from repro.streaming import StreamingDocumentPipeline
from repro.vocab import FrozenVocabulary, Vocabulary

RHO = 0.2
THETA = 0.1
BACKENDS = ("memory", "disk", "sharded")


class OddValue:
    """A module-level (so picklable) type the compact codec cannot
    structurally encode — exercises the whole-record pickle fallback."""

    def __eq__(self, other):
        return isinstance(other, OddValue)

    def __hash__(self):
        return 7


# ----------------------------------------------------------------------
# Shared corpus (small enough to sweep the whole matrix)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    schedule = (EventSchedule()
                .add(Event.persistent(
                    "somalia",
                    ["somalia", "mogadishu", "ethiopian", "islamist"],
                    0, 4, 45))
                .add(Event.with_gaps(
                    "facup",
                    ["liverpool", "arsenal", "anfield", "rosicky"],
                    [0, 2, 3], 40)))
    vocab = ZipfVocabulary(900, seed=41)
    generator = BlogosphereGenerator(vocab, schedule,
                                     background_posts=160, seed=42)
    return generator.generate_corpus(4)


def string_era_clusters(corpus, rho=RHO, min_edges=2):
    """The pre-interning generation stage: string keyword sets all the
    way through counting, pruning and biconnected components."""
    interval_clusters = []
    for interval in corpus.interval_indices:
        keyword_sets = [doc.keywords()
                        for doc in corpus.documents(interval)]
        graph = KeywordGraph.from_keyword_sets(keyword_sets)
        pruned = graph.prune(rho_threshold=rho)
        interval_clusters.append(
            extract_clusters(pruned, interval=interval,
                             min_edges=min_edges))
    return interval_clusters


@pytest.fixture(scope="module")
def oracle_clusters(corpus):
    return string_era_clusters(corpus)


# ----------------------------------------------------------------------
# Generation equivalence
# ----------------------------------------------------------------------

class TestGenerationEquivalence:
    def test_interned_clusters_decode_to_string_era(self, corpus,
                                                    oracle_clusters):
        result = find_stable_clusters(corpus, l=3, k=3, gap=1)
        assert result.interval_clusters == oracle_clusters

    def test_cluster_order_and_edges_identical(self, corpus,
                                               oracle_clusters):
        """Not just set-equal: positionally identical, with identical
        decoded correlation edges (node ids downstream depend on it)."""
        result = find_stable_clusters(corpus, l=3, k=3, gap=1)
        for mine, theirs in zip(result.interval_clusters,
                                oracle_clusters):
            assert [c.keywords for c in mine] == \
                   [c.keywords for c in theirs]
            assert [c.edges for c in mine] == \
                   [c.edges for c in theirs]

    def test_clusters_are_interned(self, corpus):
        result = find_stable_clusters(corpus, l=3, k=3, gap=1)
        for clusters in result.interval_clusters:
            for cluster in clusters:
                assert cluster.vocab is result.vocabulary
                assert all(isinstance(t, int) for t in cluster.tokens)
                assert cluster.tokens == tuple(sorted(cluster.tokens))


# ----------------------------------------------------------------------
# Batch search equivalence: every solver, both problems, gaps 0-2
# ----------------------------------------------------------------------

def _query_for(solver, problem, gap, num_intervals):
    if problem == "normalized":
        return StableQuery(problem="normalized", l=2, k=4, gap=gap)
    if get_solver(solver).full_paths_only:
        return StableQuery(problem="kl", l=None, k=4, gap=gap)
    return StableQuery(problem="kl", l=2, k=4, gap=gap)


class TestSolverEquivalence:
    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("solver", solver_names())
    def test_paths_match_string_era(self, corpus, oracle_clusters,
                                    solver, gap):
        problems = [p for p in ("kl", "normalized")
                    if p in get_solver(solver).problems]
        result = find_stable_clusters(corpus, l=3, k=3, gap=gap)
        interned_graph = build_cluster_graph(
            result.interval_clusters, affinity="jaccard",
            theta=THETA, gap=gap)
        oracle_graph = build_cluster_graph(
            oracle_clusters, affinity="jaccard", theta=THETA, gap=gap)
        for problem in problems:
            query = _query_for(solver, problem, gap,
                               interned_graph.num_intervals)
            mine = solve_report(interned_graph, query,
                                solver=solver).paths
            theirs = solve_report(oracle_graph, query,
                                  solver=solver).paths
            assert mine == theirs  # weights, node ids, order

    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    def test_rendered_output_identical(self, corpus, oracle_clusters,
                                       problem, gap):
        result = find_stable_clusters(corpus, l=2, k=4, gap=gap,
                                      problem=problem)
        oracle_graph = build_cluster_graph(
            oracle_clusters, affinity="jaccard", theta=THETA, gap=gap)
        oracle = solve_report(
            oracle_graph,
            StableQuery(problem=problem, l=2, k=4, gap=gap)).paths
        assert result.paths == oracle
        for path in result.paths:
            assert (render_path_clusters(
                        path, result.cluster_graph.payload)
                    == render_path_clusters(
                        path, oracle_graph.payload))


# ----------------------------------------------------------------------
# Streaming and parallel equivalence
# ----------------------------------------------------------------------

class TestModeEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    def test_streaming_matches_string_era_batch(
            self, corpus, oracle_clusters, problem, gap, backend,
            tmp_path):
        oracle_graph = build_cluster_graph(
            oracle_clusters, affinity="jaccard", theta=THETA, gap=gap)
        oracle = solve_report(
            oracle_graph,
            StableQuery(problem=problem, l=2, k=4, gap=gap)).paths
        store = None if backend == "memory" else open_store(
            backend, directory=str(tmp_path / f"{problem}-{gap}"))
        try:
            with StreamingDocumentPipeline(
                    l=2, k=4, gap=gap, problem=problem,
                    rho_threshold=RHO, theta=THETA,
                    store=store) as pipeline:
                for interval in corpus.interval_indices:
                    pipeline.add_documents(
                        corpus.documents(interval))
                assert pipeline.top_k() == oracle
                assert len(pipeline.vocab) > 0
        finally:
            if store is not None:
                store.close()

    def test_parallel_workers_match_string_era(self, corpus,
                                               oracle_clusters):
        result = find_stable_clusters(corpus, l=2, k=4, gap=1,
                                      workers=2)
        assert result.interval_clusters == oracle_clusters
        oracle_graph = build_cluster_graph(
            oracle_clusters, affinity="jaccard", theta=THETA, gap=1)
        oracle = solve_report(
            oracle_graph, StableQuery(problem="kl", l=2, k=4,
                                      gap=1)).paths
        assert result.paths == oracle

    def test_streaming_vocab_grows_incrementally(self, corpus):
        with StreamingDocumentPipeline(l=2, k=3, gap=1,
                                       rho_threshold=RHO) as pipeline:
            sizes = []
            for interval in corpus.interval_indices:
                report = pipeline.add_documents(
                    corpus.documents(interval))
                sizes.append(report.vocab_size)
            assert sizes == sorted(sizes)
            assert sizes[0] > 0
            assert "vocab" in report.describe()


# ----------------------------------------------------------------------
# Vocabulary unit behaviour
# ----------------------------------------------------------------------

class TestVocabulary:
    def test_intern_is_idempotent_and_bijective(self):
        vocab = Vocabulary()
        a = vocab.intern("alpha")
        b = vocab.intern("beta")
        assert vocab.intern("alpha") == a
        assert vocab.id_of("beta") == b
        assert vocab.decode(a) == "alpha"
        assert vocab.decode_all([a, b]) == {"alpha", "beta"}
        assert len(vocab) == 2 and "alpha" in vocab

    def test_intern_sets_is_order_insensitive(self):
        sets = [frozenset({"c", "a"}), frozenset({"b", "a"})]
        v1, v2 = Vocabulary(), Vocabulary()
        ids1 = v1.intern_sets(sets)
        ids2 = v2.intern_sets(list(reversed(sets)))
        assert v1.tokens == v2.tokens == ("a", "b", "c")
        assert ids1 == list(reversed(ids2))

    def test_fresh_vocab_ids_are_lexicographic(self):
        vocab = Vocabulary()
        vocab.intern_sets([frozenset({"zeta", "beta", "mu"})])
        assert vocab.tokens == ("beta", "mu", "zeta")

    def test_frozen_snapshot_is_immutable_and_picklable(self):
        vocab = Vocabulary(["x", "y"])
        snap = vocab.freeze()
        with pytest.raises(TypeError):
            snap.intern("z")
        revived = pickle.loads(pickle.dumps(snap))
        assert revived.tokens == snap.tokens
        assert revived.id_of("y") == 1
        # thawing continues growth
        thawed = Vocabulary(snap.tokens)
        assert thawed.intern("z") == 2

    def test_vocabulary_pickles(self):
        vocab = Vocabulary(["x", "y"])
        revived = pickle.loads(pickle.dumps(vocab))
        assert revived.tokens == vocab.tokens
        assert revived.intern("z") == 2


class TestDocumentInterning:
    def test_document_keyword_ids(self):
        from repro.text.documents import Document
        vocab = Vocabulary()
        doc = Document(doc_id="d", interval=0,
                       text="Beckham joins galaxy, Beckham scores")
        ids = doc.keyword_ids(vocab)
        assert ids == frozenset(vocab.id_of(k)
                                for k in doc.keywords())
        assert vocab.decode_all(ids) == doc.keywords()

    def test_corpus_keyword_id_sets_match_intern_sets(self, corpus):
        from repro.text.documents import IntervalCorpus
        assert isinstance(corpus, IntervalCorpus)
        v1, v2 = Vocabulary(), Vocabulary()
        interval = corpus.interval_indices[0]
        via_corpus = corpus.keyword_id_sets(interval, v1)
        via_sets = v2.intern_sets(
            [doc.keywords() for doc in corpus.documents(interval)])
        assert via_corpus == via_sets
        assert v1.tokens == v2.tokens

    def test_keyword_ids_usable_against_pipeline_clusters(self,
                                                          corpus):
        """A document's id set intersects pipeline clusters directly
        once interned into the same vocabulary."""
        result = find_stable_clusters(corpus, l=2, k=3, gap=0)
        cluster = result.interval_clusters[0][0]
        doc = corpus.documents(0)[0]
        ids = doc.keyword_ids(result.vocabulary)
        assert jaccard(ids, cluster) == pytest.approx(
            jaccard(doc.keywords(), frozenset(cluster.keywords)))


class TestClusterInterning:
    def _interned(self):
        vocab = Vocabulary()
        vocab.intern_sets([frozenset({"soccer", "beckham", "madrid"})])
        ids = {t: vocab.id_of(t) for t in vocab}
        cluster = KeywordCluster(
            tokens=tuple(sorted(ids.values())),
            token_edges=((ids["beckham"], ids["soccer"], 0.5),),
            interval=2, vocab=vocab)
        return cluster, vocab

    def test_decode_at_the_edge(self):
        cluster, _ = self._interned()
        assert cluster.keywords == {"soccer", "beckham", "madrid"}
        assert cluster.edges == (("beckham", "soccer", 0.5),)

    def test_equality_across_representations(self):
        cluster, _ = self._interned()
        string_twin = KeywordCluster(
            keywords=frozenset({"soccer", "beckham", "madrid"}),
            edges=(("beckham", "soccer", 0.5),), interval=2)
        assert cluster == string_twin
        assert hash(cluster) == hash(string_twin)

    def test_pickle_roundtrip(self):
        cluster, _ = self._interned()
        revived = pickle.loads(pickle.dumps(cluster))
        assert revived == cluster
        assert revived.tokens == cluster.tokens

    def test_rebind_into_corpus_vocabulary(self):
        cluster, _ = self._interned()
        corpus_vocab = Vocabulary(["zebra"])  # pre-existing content
        rebound = cluster.rebind(corpus_vocab)
        assert rebound.vocab is corpus_vocab
        assert rebound.keywords == cluster.keywords
        assert rebound.edges == cluster.edges
        assert rebound.rebind(corpus_vocab) is rebound

    def test_compact_clusters_ship_minimal_snapshot(self):
        cluster, vocab = self._interned()
        vocab.intern("unused-background-token")
        [compacted] = compact_clusters([cluster])
        assert isinstance(compacted.vocab, FrozenVocabulary)
        assert set(compacted.vocab.tokens) == cluster.keywords
        assert compacted == cluster

    def test_same_vocab_measures_use_ids(self):
        cluster, vocab = self._interned()
        other = KeywordCluster(
            tokens=(vocab.id_of("soccer"), vocab.id_of("madrid")),
            interval=3, vocab=vocab)
        assert cluster.intersection_size(other) == 2
        assert jaccard(cluster, other) == pytest.approx(2 / 3)

    def test_mixed_vocab_measures_decode(self):
        cluster, _ = self._interned()
        foreign_vocab = Vocabulary()
        foreign_vocab.intern_sets([frozenset({"soccer", "goal"})])
        foreign = KeywordCluster(
            tokens=tuple(range(len(foreign_vocab))),
            interval=0, vocab=foreign_vocab)
        # Ids are incompatible; the measures must compare strings.
        assert cluster.intersection_size(foreign) == 1
        assert jaccard(cluster, frozenset({"soccer"})) == \
            pytest.approx(1 / 3)

    def test_plain_id_set_compares_in_cluster_namespace(self):
        cluster, vocab = self._interned()
        id_set = frozenset({vocab.id_of("soccer"),
                            vocab.id_of("beckham")})
        # A set of ints against an interned cluster reads as ids in
        # that cluster's vocabulary, not as literal tokens.
        assert jaccard(id_set, cluster) == pytest.approx(2 / 3)
        assert jaccard(cluster, id_set) == pytest.approx(2 / 3)

    def test_id_set_against_uninterned_cluster_raises(self):
        string_cluster = KeywordCluster(
            keywords=frozenset({"alpha", "beta"}))
        with pytest.raises(ValueError, match="no vocabulary"):
            jaccard(frozenset({0, 1}), string_cluster)
        # generic sets of ints against each other stay well-defined
        assert jaccard(frozenset({0, 1}), frozenset({1, 2})) == \
            pytest.approx(1 / 3)

    def test_reversed_legacy_edges_canonicalized(self):
        cluster = KeywordCluster(keywords=frozenset({"a", "z"}),
                                 edges=(("z", "a", 0.1),))
        assert cluster.edges == (("a", "z", 0.1),)
        assert cluster == cluster.rebind(Vocabulary())

    def test_rebind_interns_foreign_edge_endpoints(self):
        # Externally built clusters may reference edge endpoints that
        # are not members of the keyword set; rebinding must intern
        # them rather than crash.
        cluster = KeywordCluster(keywords=frozenset({"a"}),
                                 edges=(("a", "b", 0.5),))
        rebound = cluster.rebind(Vocabulary())
        assert rebound.keywords == {"a"}
        assert rebound.edges == (("a", "b", 0.5),)

    def test_conflicting_constructor_arguments_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(ValueError, match="tokens="):
            KeywordCluster(keywords=frozenset({"a"}), vocab=vocab)
        with pytest.raises(ValueError, match="tokens="):
            KeywordCluster(keywords=frozenset({"a"}),
                           token_edges=((0, 0, 1.0),))

    def test_missing_keywords_and_tokens_rejected(self):
        with pytest.raises(TypeError, match="keywords"):
            KeywordCluster()
        # the empty *set* stays a valid (empty) cluster, as before
        assert len(KeywordCluster(frozenset())) == 0

    def test_keywords_alongside_tokens_rejected(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="cannot be combined"):
            KeywordCluster(keywords=frozenset({"a"}), tokens=(0,),
                           vocab=vocab)
        with pytest.raises(ValueError, match="cannot be combined"):
            KeywordCluster(edges=(("a", "b", 0.5),), tokens=(0, 1),
                           vocab=vocab)

    def test_aborted_pair_write_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "aborted.tsv")
        big = [frozenset(range(140)), frozenset({"alpha", "beta"})]
        with pytest.raises(ValueError, match="mix"):
            write_pair_file(big, path)
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Versioned pair files
# ----------------------------------------------------------------------

class TestPairFileVersioning:
    STR_DOCS = [frozenset({"saddam", "hussein"}),
                frozenset({"saddam", "trial"})]
    ID_DOCS = [frozenset({0, 3}), frozenset({0, 7})]

    def test_header_stamped(self, tmp_path):
        path = str(tmp_path / "pairs.tsv")
        write_pair_file(self.STR_DOCS, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline() == f"{PAIR_FILE_MAGIC}\t1\tstr\n"

    def test_id_records_roundtrip_as_ints(self, tmp_path):
        path = str(tmp_path / "pairs-id.tsv")
        count = write_pair_file(self.ID_DOCS, path)
        pairs = list(read_pair_file(path))
        assert len(pairs) == count
        assert pairs == list(emit_pairs(self.ID_DOCS))
        assert all(isinstance(u, int) and isinstance(v, int)
                   for u, v in pairs)

    def test_legacy_headerless_file_rejected(self, tmp_path):
        path = str(tmp_path / "legacy.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("saddam\thussein\n")
        with pytest.raises(ValueError, match="legacy"):
            list(read_pair_file(path))

    def test_unknown_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{PAIR_FILE_MAGIC}\t99\tstr\na\tb\n")
        with pytest.raises(ValueError, match="version 99"):
            list(read_pair_file(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = str(tmp_path / "weird.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{PAIR_FILE_MAGIC}\t1\tutf32\na\tb\n")
        with pytest.raises(ValueError, match="record kind"):
            list(read_pair_file(path))

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.tsv")
        open(path, "w").close()
        with pytest.raises(ValueError, match="empty"):
            list(read_pair_file(path))

    def test_empty_stream_still_versioned(self, tmp_path):
        path = str(tmp_path / "none.tsv")
        assert write_pair_file([], path) == 0
        assert list(read_pair_file(path)) == []

    def test_mixed_kind_stream_rejected(self, tmp_path):
        path = str(tmp_path / "mixed.tsv")
        with pytest.raises(ValueError, match="mix"):
            write_pair_file([frozenset({"a", "b"}), frozenset({1, 2})],
                            path)
        with pytest.raises(ValueError, match="mix"):
            write_pair_file([frozenset({1, 2}), frozenset({"a", "b"})],
                            str(tmp_path / "mixed2.tsv"))

    def test_id_file_smaller_than_string_file(self, tmp_path):
        vocab = Vocabulary()
        docs = [frozenset({"mogadishu", "ethiopian", "islamist",
                           "somalia", "kamboni"})] * 50
        id_docs = vocab.intern_sets(docs)
        sp = str(tmp_path / "s.tsv")
        ip = str(tmp_path / "i.tsv")
        write_pair_file(docs, sp)
        write_pair_file(id_docs, ip)
        assert os.path.getsize(ip) < os.path.getsize(sp)


# ----------------------------------------------------------------------
# Compact node-state codec
# ----------------------------------------------------------------------

class TestCompactCodec:
    PAYLOADS = [
        None, True, False, 0, -1, 127, 128, -300, 10 ** 12, 2.5,
        float("inf"), "", "keyword", b"\x00raw", (), (1, (2, 3)),
        [1, "two", None], {"small": {1: [2.0]}, "best": []},
        {(0, 1): 0.5}, frozenset({3, 1}), {("a", 2)},
        Path(weight=0.75, nodes=((0, 3), (1, 0), (3, 2))),
        {1: [Path(weight=0.5, nodes=((0, 0), (1, 1)))]},
    ]

    @pytest.mark.parametrize("payload", PAYLOADS,
                             ids=[repr(p)[:40] for p in PAYLOADS])
    def test_roundtrip(self, payload):
        assert decode_record(encode_compact(payload)) == payload
        assert decode_record(encode_pickle(payload)) == payload

    def test_unsupported_type_falls_back_to_pickle(self):
        blob = encode_compact({"x": OddValue()})
        assert blob[:1] == b"P"
        assert decode_record(blob) == {"x": OddValue()}

    def test_unorderable_set_falls_back(self):
        blob = encode_compact({1, "mixed"})
        assert decode_record(blob) == {1, "mixed"}

    def test_surrogate_string_falls_back_to_pickle(self):
        value = {"k": "\ud800"}  # UTF-8 cannot encode a lone surrogate
        blob = encode_compact(value)
        assert blob[:1] == b"P"
        assert decode_record(blob) == value

    def test_unknown_prefix_rejected(self):
        with pytest.raises(ValueError, match="record prefix"):
            decode_record(b"Zjunk")

    def test_compact_is_smaller_for_engine_state(self):
        payload = {x: [Path(weight=0.5 + 0.01 * i,
                            nodes=tuple((t, i) for t in range(4)))
                       for i in range(5)]
                   for x in range(1, 4)}
        assert len(encode_compact(payload)) < \
            0.6 * len(encode_pickle(payload))

    def test_diskdict_codecs_interoperate(self, tmp_path):
        compact = DiskDict(str(tmp_path / "c.bin"), codec="compact")
        legacy = DiskDict(str(tmp_path / "p.bin"), codec="pickle")
        value = {1: [Path(weight=0.5, nodes=((0, 0), (1, 1)))]}
        compact[0] = value
        legacy[0] = value
        assert compact[0] == legacy[0] == value
        assert compact.file_bytes < legacy.file_bytes
        with pytest.raises(ValueError):
            DiskDict(str(tmp_path / "x.bin"), codec="msgpack")
