"""Absolute pin of Section 3's output (cluster generation).

Every other cluster-equality test compares two runs of the same
biconnected-component code, so a change to its edge-stack pop order
or to the emitted cluster order would pass them all.  This test pins
the output itself: two fixed corpora (the bundled mini DBLP fixture
and a seeded three-interval :mod:`repro.datagen` corpus) run through
:func:`~repro.pipeline.generate_interval_clusters`, and the rendering
of every interval's clusters — in emitted order, each cluster's
sorted keywords followed by its ``(u, v, repr(weight))`` edges — must
hash to the recorded sha256.

The digests and per-interval cluster counts were recorded on the code
that still carried the out-of-core Section-3 path (external pair sort
and spillable edge stack), before that path was deleted; the
in-memory path must keep producing them byte for byte.
"""

import hashlib
import os

from repro.corpus import IntervalBucketing, JSONLAdapter
from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
)
from repro.pipeline import generate_interval_clusters
from repro.text.documents import IntervalCorpus

DBLP_MINI_JSONL = os.path.join(os.path.dirname(__file__), os.pardir,
                               "examples", "data", "dblp_mini.jsonl")

DBLP_COUNTS = [1, 1, 2, 2, 2, 2]
DBLP_DIGEST = ("f89ba243a3e9ecd7021955ce3f69adac"
               "b2b8842f972f04ce9bc1eef798f423c3")
DATAGEN_COUNTS = [5, 5, 5]
DATAGEN_DIGEST = ("095ea001cc221555f65f91e07100b79c"
                  "24f0262e05dd82ea5681c54900d3f379")


def dblp_mini_corpus():
    adapter = JSONLAdapter(DBLP_MINI_JSONL,
                           bucketing=IntervalBucketing(mode="year"),
                           time_field="year")
    return IntervalCorpus.from_adapter(adapter)


def datagen_corpus():
    schedule = (EventSchedule()
                .add(Event.persistent(
                    "beckham", ["beckham", "galaxy", "madrid", "soccer"],
                    0, 3, 60))
                .add(Event.burst(
                    "somalia",
                    ["somalia", "mogadishu", "ethiopian", "islamist"],
                    1, 70)))
    generator = BlogosphereGenerator(ZipfVocabulary(1500, seed=11),
                                     schedule, background_posts=250,
                                     seed=12)
    return generator.generate_corpus(3)


def render(corpus):
    """(sha256 of the rendered clusters, per-interval cluster counts)."""
    lines = []
    counts = []
    for interval in corpus.interval_indices:
        clusters = generate_interval_clusters(corpus, interval)
        counts.append(len(clusters))
        lines.append(f"interval {interval}")
        for cluster in clusters:
            lines.append("  " + " ".join(sorted(cluster.keywords)))
            for u, v, weight in cluster.edges:
                lines.append(f"    {u} {v} {weight!r}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest(), counts


def test_dblp_mini_clusters_pinned():
    digest, counts = render(dblp_mini_corpus())
    assert counts == DBLP_COUNTS
    assert digest == DBLP_DIGEST


def test_datagen_clusters_pinned():
    digest, counts = render(datagen_corpus())
    assert counts == DATAGEN_COUNTS
    assert digest == DATAGEN_DIGEST
