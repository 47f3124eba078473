"""Integration tests: planted events must be recovered end to end."""

import pytest

from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
)
from repro.datagen.events import drifting_event
from repro.pipeline import (
    ClusterGenerationReport,
    find_stable_clusters,
    generate_interval_clusters,
    render_stable_path,
)
from repro.text import stem


BECKHAM = ["beckham", "galaxy", "madrid", "soccer"]
SOMALIA = ["somalia", "mogadishu", "ethiopian", "islamist"]
BECKHAM_STEMS = frozenset(stem(w) for w in BECKHAM)
SOMALIA_STEMS = frozenset(stem(w) for w in SOMALIA)


def make_corpus(schedule, days, seed=5, background=600, vocab_size=3000):
    vocab = ZipfVocabulary(vocab_size, seed=seed)
    generator = BlogosphereGenerator(vocab, schedule,
                                     background_posts=background,
                                     seed=seed + 1)
    return generator.generate_corpus(days)


class TestClusterGeneration:
    def test_burst_event_recovered_exactly(self):
        schedule = EventSchedule().add(
            Event.burst("beckham", BECKHAM, 0, 80))
        corpus = make_corpus(schedule, 1)
        clusters = generate_interval_clusters(corpus, 0)
        keyword_sets = [c.keywords for c in clusters]
        assert BECKHAM_STEMS in keyword_sets

    def test_no_events_no_large_clusters(self):
        corpus = make_corpus(EventSchedule(), 1)
        clusters = generate_interval_clusters(corpus, 0)
        assert all(len(c) <= 4 for c in clusters)

    def test_two_events_separate_clusters(self):
        schedule = (EventSchedule()
                    .add(Event.burst("beckham", BECKHAM, 0, 80))
                    .add(Event.burst("somalia", SOMALIA, 0, 80)))
        corpus = make_corpus(schedule, 1)
        keyword_sets = [c.keywords
                        for c in generate_interval_clusters(corpus, 0)]
        assert BECKHAM_STEMS in keyword_sets
        assert SOMALIA_STEMS in keyword_sets

    def test_report_is_populated(self):
        schedule = EventSchedule().add(
            Event.burst("beckham", BECKHAM, 0, 80))
        corpus = make_corpus(schedule, 1)
        report = ClusterGenerationReport()
        generate_interval_clusters(corpus, 0, report=report)
        assert report.num_documents == 680
        assert report.num_keywords > 1000
        assert report.num_edges > report.edges_after_chi2 \
            >= report.edges_after_rho
        assert report.seconds_total > 0

    def test_empty_interval_returns_no_clusters(self):
        corpus = make_corpus(EventSchedule(), 1, background=50,
                             vocab_size=500)
        assert generate_interval_clusters(corpus, 7) == []


class TestStablePipeline:
    def _week_result(self, problem="kl", gap=1):
        schedule = (EventSchedule()
                    .add(Event.persistent("somalia", SOMALIA, 0, 5, 70))
                    .add(Event.with_gaps("facup",
                                         ["liverpool", "arsenal",
                                          "anfield", "rosicky"],
                                         [0, 3], 70)))
        corpus = make_corpus(schedule, 5)
        return find_stable_clusters(corpus, l=3, k=6, gap=gap,
                                    problem=problem)

    def test_persistent_event_yields_stable_path(self):
        result = self._week_result()
        assert result.paths, "expected at least one stable path"
        top = result.paths[0]
        keyword_sets = result.path_keywords(top)
        assert all(SOMALIA_STEMS <= kws for kws in keyword_sets)

    def test_gapped_event_found_with_gap_allowance(self):
        """Figure 4's shape: a story active on days 0, 3 and 4 only is
        visible as a stable path that jumps the dormant days — which
        needs the paper's g=2 edge policy (edge length up to g+1=3)."""
        facup_words = ["liverpool", "arsenal", "anfield", "rosicky"]
        schedule = EventSchedule().add(
            Event.with_gaps("facup", facup_words, [0, 3, 4], 70))
        corpus = make_corpus(schedule, 5)
        result = find_stable_clusters(corpus, l=4, k=3, gap=2)
        facup = frozenset(stem(w) for w in facup_words)
        gap_paths = [
            path for path in result.paths
            if any(facup <= kws for kws in result.path_keywords(path))]
        assert gap_paths, "expected the gapped story as a stable path"
        assert any(
            path.num_edges < path.length for path in gap_paths), \
            "expected a path that jumps the dormant days"

    def test_normalized_problem_runs(self):
        result = self._week_result(problem="normalized")
        assert result.paths
        stabilities = [p.stability for p in result.paths]
        assert stabilities == sorted(stabilities, reverse=True)

    def test_render_stable_path(self):
        result = self._week_result()
        text = render_stable_path(result, result.paths[0])
        assert "stable path" in text
        assert "t0" in text or "t1" in text

    def test_invalid_problem_rejected(self):
        corpus = make_corpus(EventSchedule(), 1, background=50,
                             vocab_size=500)
        with pytest.raises(ValueError):
            find_stable_clusters(corpus, l=1, k=1, problem="nope")

    def test_generation_reports_one_per_interval(self):
        result = self._week_result()
        assert len(result.generation_reports) == 5
        assert all(r.num_documents > 0
                   for r in result.generation_reports)


class TestTopicDrift:
    def test_drifting_event_chains_through_shared_keywords(self):
        """Figure 15's shape: clusters shift phase but chain via the
        shared keywords, and the pipeline reports one stable path."""
        schedule = EventSchedule().extend(drifting_event(
            "iphone", shared=["apple", "iphone"],
            first_phase=["touchscreen", "keynote"],
            second_phase=["cisco", "lawsuit"],
            start=0, phase1_len=2, phase2_len=2, posts=70))
        corpus = make_corpus(schedule, 4)
        result = find_stable_clusters(corpus, l=3, k=3, gap=0)
        assert result.paths
        keyword_sets = result.path_keywords(result.paths[0])
        shared = frozenset(stem(w) for w in ["apple", "iphone"])
        assert all(shared <= kws for kws in keyword_sets)
        assert stem("touchscreen") in keyword_sets[0]
        assert stem("lawsuit") in keyword_sets[-1]
