"""Seeded input generators for the end-to-end benchmark.

Every workload input is a pure function of the benchmark's ``--seed``;
the program under test only ever sees the files (or the graph) built
here.

* :func:`write_blog_jsonl` — a blogosphere corpus from
  :mod:`repro.datagen` (Zipf background chatter plus persistent,
  gapped and drifting events), written as JSONL for ``JSONLAdapter``.
* :func:`write_dblp_xml` — a DBLP-style publication file shaped after
  the real dump: one shared Zipf title vocabulary across all years,
  research topics that persist, pause and drift over year ranges,
  author names carrying DTD entities (``&uuml;``...) the stdlib parser
  cannot resolve, and a few records the adapter must reject.
* :func:`solve_graphs` — the Section 5.2 synthetic cluster graphs.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.corpus import dump_jsonl
from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
    synthetic_cluster_graph,
)
from repro.datagen.events import drifting_event

# ----------------------------------------------------------------------
# Blogosphere (blog-batch)
# ----------------------------------------------------------------------

BLOG_INTERVALS = 10
BLOG_BACKGROUND_POSTS = 200
BLOG_VOCABULARY = 5000
BLOG_EVENT_POSTS = 25
# Events of each shape.  Every interval hosts the same number of
# event posts, whatever the seed: persistent events span the whole
# run, gapped events come in pairs active on complementary intervals,
# and a drifting event's second phase starts where its first ends.
BLOG_PERSISTENT, BLOG_GAPPED_PAIRS, BLOG_DRIFTING = 4, 1, 2
# Event keywords are drawn from below the head of the Zipf ranking, so
# background chatter alone rarely makes them co-occur.
EVENT_RANK_FLOOR = 300


class _FastZipfVocabulary(ZipfVocabulary):
    """``ZipfVocabulary`` drawing through precomputed cumulative
    weights: ``random.choices`` then skips rebuilding them on every
    call, and returns the same words for the same seed."""

    def __init__(self, size: int, seed: int) -> None:
        super().__init__(size, seed=seed)
        self._cumulative = list(accumulate(self._weights))

    def sample(self, count: int) -> List[str]:
        return self._rng.choices(self.words, cum_weights=self._cumulative,
                                 k=count)


def blog_schedule(rng: random.Random, intervals: int,
                  pool: List[str]) -> EventSchedule:
    """Persistent, gapped and drifting events with a constant number
    of event posts per interval."""
    words = list(pool)
    rng.shuffle(words)

    def take(count: int) -> List[str]:
        return [words.pop() for _ in range(count)]

    schedule = EventSchedule()
    for number in range(BLOG_PERSISTENT):
        schedule.add(Event.persistent(f"persistent{number}", take(6), 0,
                                      intervals, BLOG_EVENT_POSTS))
    for number in range(BLOG_GAPPED_PAIRS):
        on = set(rng.sample(range(intervals), intervals // 2))
        off = set(range(intervals)) - on
        for half, active in (("a", on), ("b", off)):
            schedule.add(Event.with_gaps(f"gapped{number}{half}", take(6),
                                         sorted(active), BLOG_EVENT_POSTS))
    for number in range(BLOG_DRIFTING):
        switch = rng.randint(3, intervals - 3)
        schedule.extend(drifting_event(
            f"drifting{number}", take(3), take(3), take(3), 0, switch,
            intervals - switch, BLOG_EVENT_POSTS))
    return schedule


def write_blog_jsonl(path: str, seed: int) -> int:
    """Write the blog-batch corpus; returns the number of posts."""
    rng = random.Random(seed)
    vocabulary = _FastZipfVocabulary(BLOG_VOCABULARY, seed=seed)
    schedule = blog_schedule(rng, BLOG_INTERVALS,
                             vocabulary.words[EVENT_RANK_FLOOR:])
    generator = BlogosphereGenerator(
        vocabulary, schedule, background_posts=BLOG_BACKGROUND_POSTS,
        seed=rng.randrange(2 ** 32))
    return dump_jsonl(generator.generate_corpus(BLOG_INTERVALS), path)


# ----------------------------------------------------------------------
# DBLP-style XML (dblp-stream, serve-http)
# ----------------------------------------------------------------------

DBLP_FIRST_YEAR = 1900
DBLP_YEARS = 110
DBLP_TITLES_PER_YEAR = 160
DBLP_VOCABULARY = 3000
# Topics run in lanes: each lane hosts one topic at a time, back to
# back over the whole timeline, so every year has about the same number
# of active topics whatever the seed.
DBLP_LANES = 8
DBLP_TOPIC_KEYWORDS = 5
DBLP_PAUSE = 0.15
# Share of titles written about an active topic (the rest are pure
# background words).
DBLP_TOPIC_SHARE = 0.5
# One record in this many lacks a <year> (counted malformed), and one
# in this many is a <www> homepage record (counted skipped).
DBLP_MALFORMED_EVERY = 997
DBLP_WWW_EVERY = 499

_ENTITIES = ("&uuml;", "&ouml;", "&auml;", "&szlig;", "&eacute;",
             "&Uuml;", "&aacute;")
_SURNAMES = ("M{}ller", "Sch{}fer", "Kr{}ger", "G{}nther", "Hei{}e",
             "Ren{}", "J{}rgens")


class Topic:
    """A research topic: keywords active over a range of years, with
    pauses, and optionally drifting (one keyword replaced) midway."""

    def __init__(self, keywords: List[str], years: List[int],
                 drift_year: int, drift_keyword: str) -> None:
        self.keywords = keywords
        self.years = frozenset(years)
        self.drift_year = drift_year
        self.drift_keyword = drift_keyword

    def keywords_in(self, year: int) -> List[str]:
        """The topic's keywords as written in *year*."""
        if self.drift_keyword and year >= self.drift_year:
            return [self.drift_keyword] + self.keywords[1:]
        return self.keywords


def dblp_topics(rng: random.Random, pool: List[str]) -> List[Topic]:
    """Topics that persist over year ranges, pause, and drift."""
    words = list(pool)
    rng.shuffle(words)
    topics = []
    for _ in range(DBLP_LANES):
        start = -rng.randrange(20)
        while start < DBLP_YEARS:
            duration = rng.randint(8, 30)
            keywords = [words.pop() for _ in range(DBLP_TOPIC_KEYWORDS)]
            years = [year for year in range(max(0, start),
                                            min(DBLP_YEARS, start + duration))
                     if rng.random() >= DBLP_PAUSE]
            drifts = rng.random() < 0.4
            topics.append(Topic(keywords, years, start + duration // 2,
                                words.pop() if drifts else ""))
            start += duration
    return topics


def write_dblp_xml(path: str, seed: int) -> Dict[int, List[str]]:
    """Write the DBLP-style corpus.

    Returns, per dense interval index (year offset), the keywords of
    the topics active that year — the keywords a user would refine.
    """
    rng = random.Random(seed)
    vocabulary = _FastZipfVocabulary(DBLP_VOCABULARY, seed=seed)
    topics = dblp_topics(rng, vocabulary.words[EVENT_RANK_FLOOR:])
    active_keywords: Dict[int, List[str]] = {}
    serial = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                     '<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n')
        for year in range(DBLP_YEARS):
            active = [topic for topic in topics if year in topic.years]
            active_keywords[year] = sorted(
                {kw for topic in active for kw in topic.keywords_in(year)})
            for _ in range(DBLP_TITLES_PER_YEAR):
                serial += 1
                handle.write(_dblp_record(rng, vocabulary, active, year,
                                          serial))
                if serial % DBLP_WWW_EVERY == 0:
                    handle.write(f'<www key="homepages/{serial}">'
                                 f'<author>A. Person</author>'
                                 f'<title>Home Page</title></www>\n')
        handle.write("</dblp>\n")
    return active_keywords


def _dblp_record(rng: random.Random, vocabulary: _FastZipfVocabulary,
                 active: List[Topic], year: int, serial: int) -> str:
    words = vocabulary.sample(rng.randint(4, 6))
    if active and rng.random() < DBLP_TOPIC_SHARE:
        topic = rng.choice(active)
        words += rng.sample(topic.keywords_in(year), 3)
    rng.shuffle(words)
    title = " ".join(words).capitalize() + "."
    surname = rng.choice(_SURNAMES).format(rng.choice(_ENTITIES))
    authors = (f"<author>Author{serial % 997} {surname}</author>"
               f"<author>Coauthor{serial % 389}</author>")
    year_element = ("" if serial % DBLP_MALFORMED_EVERY == 0
                    else f"<year>{DBLP_FIRST_YEAR + year}</year>")
    return (f'<article key="journals/synth/r{serial}">{authors}'
            f"<title>{title}</title>{year_element}"
            f"<journal>Synth</journal></article>\n")


# ----------------------------------------------------------------------
# Synthetic cluster graphs (graph-solve)
# ----------------------------------------------------------------------

# (m, n, d, g).  The kl query runs on one large graph, whose work
# varies little from seed to seed; the normalized query, whose work
# varies far more per graph, runs on a batch of small graphs.
KL_GRAPH = (6, 400, 3, 1)
NORMALIZED_GRAPH = (6, 30, 1, 1)
NORMALIZED_GRAPHS = 8


def solve_graphs(seed: int) -> Tuple:
    """The kl query's graph and the normalized query's graphs."""
    rng = random.Random(seed)
    kl = synthetic_cluster_graph(*KL_GRAPH, seed=rng.randrange(2 ** 32))
    normalized = [synthetic_cluster_graph(*NORMALIZED_GRAPH,
                                          seed=rng.randrange(2 ** 32))
                  for _ in range(NORMALIZED_GRAPHS)]
    return kl, normalized
