PYTHON ?= python
RUN := PYTHONPATH=src $(PYTHON)

.PHONY: test bench bench-smoke bench-json perf-smoke stream-demo \
        parallel-demo service-demo serving-demo distributed-demo \
        corpus-demo docs-check lint docstyle

test:
	$(RUN) -m pytest -q

bench:
	$(RUN) -m pytest -q benchmarks

# Tiny end-to-end smoke of the solver engine through the CLI: time
# every applicable solver on a small synthetic graph and show the
# planner's decision for a larger hypothetical one.  The streaming
# ingest benchmark runs standalone (no pytest) at smoke scale.
bench-smoke:
	$(RUN) -m repro.cli bench-graph -m 4 -n 30 -d 2 -k 3 --solvers bfs,dfs,ta
	$(RUN) -m repro.cli bench-graph -m 5 -n 50 -d 2 -k 3 --gap 1 --length 3 --solvers bfs,dfs
	$(RUN) -m repro.cli explain -m 12 -n 2000 -d 5 --gap 1 --length 6 --memory-budget 2 --workers 2
	$(RUN) benchmarks/bench_streaming_ingest.py --smoke
	$(RUN) benchmarks/bench_parallel_scaling.py --smoke --workers 2
	$(RUN) benchmarks/bench_vocab_interning.py --smoke
	$(RUN) benchmarks/bench_simjoin_signatures.py --smoke
	$(RUN) benchmarks/bench_index_lifecycle.py --smoke
	$(RUN) benchmarks/bench_serving_load.py --smoke
	$(RUN) benchmarks/bench_distributed.py --smoke
	$(RUN) benchmarks/bench_corpus_ingest.py --smoke

# One-second run of every perfbench workload.  run.py exits 0 even
# when a workload's output checks fail, so the last stdout line (the
# JSON result) must say correct == true and failed == 0.
PERF_WORKLOADS := blog-batch dblp-stream serve-http graph-solve
PERF_CHECK := import json, sys; \
    r = json.loads(sys.stdin.read().splitlines()[-1]); \
    print(sys.argv[1], "correct:", r["correct"], "failed:", r["failed"]); \
    sys.exit(r["correct"] is not True or r["failed"] != 0)
perf-smoke:
	set -e; for w in $(PERF_WORKLOADS); do \
	    $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	        | tail -n 1 | $(PYTHON) -c '$(PERF_CHECK)' $$w; \
	done

# The versioned perf trajectory: one BENCH_<area>.json per harness,
# written at the repo root (CI uploads every BENCH_*.json artifact).
bench-json:
	$(RUN) benchmarks/bench_simjoin_signatures.py --json BENCH_simjoin.json
	$(RUN) benchmarks/bench_index_lifecycle.py --json BENCH_index.json
	$(RUN) benchmarks/bench_serving_load.py --json BENCH_serving.json
	$(RUN) benchmarks/bench_distributed.py --json BENCH_distributed.json
	$(RUN) benchmarks/bench_corpus_ingest.py --json BENCH_corpus.json

# Generate a synthetic week of posts and replay it through the
# streaming subcommand (documents -> incremental top-k, end to end).
STREAM_DEMO_FILE ?= /tmp/repro-stream-week.jsonl
stream-demo:
	$(RUN) examples/stream_corpus.py $(STREAM_DEMO_FILE)
	$(RUN) -m repro.cli stream $(STREAM_DEMO_FILE) --length 3 -k 3 --gap 1 --follow --explain

# Fan the synthetic week's per-interval stages across two worker
# processes, end to end through both front ends (batch + stream).
parallel-demo:
	$(RUN) -m repro.cli demo --workers 2
	$(RUN) examples/stream_corpus.py $(STREAM_DEMO_FILE)
	$(RUN) -m repro.cli stream $(STREAM_DEMO_FILE) --length 3 -k 3 --gap 1 --workers 2 --explain

# Corpus -> persistent index -> served queries, end to end through
# the CLI (the docs/tutorial.md walkthrough at demo scale).
SERVICE_DEMO_DIR ?= /tmp/repro-service-index
service-demo:
	$(RUN) examples/stream_corpus.py $(STREAM_DEMO_FILE)
	$(RUN) -m repro.cli index build $(STREAM_DEMO_FILE) \
	    --dir $(SERVICE_DEMO_DIR) --length 3 -k 3 --gap 1 --explain
	$(RUN) -m repro.cli index inspect $(SERVICE_DEMO_DIR) --segments
	$(RUN) -m repro.cli index merge $(SERVICE_DEMO_DIR)
	$(RUN) -m repro.cli query refine $(SERVICE_DEMO_DIR) somalia --stats
	$(RUN) -m repro.cli query paths $(SERVICE_DEMO_DIR) --keyword somalia

# Corpus -> index -> `serve` subprocess on an ephemeral port -> HTTP
# round-trip asserted byte-identical to the in-process service (the
# CI server smoke test).
serving-demo:
	$(RUN) examples/serving_roundtrip.py

# Corpus -> index -> `serve --shards 2` subprocess (coordinator +
# shard workers) -> HTTP round-trip asserted byte-identical to the
# in-process service (the CI distributed smoke test).
distributed-demo:
	$(RUN) examples/distributed_roundtrip.py

# Real vocabulary through the whole stack: the bundled mini DBLP-XML
# fixture -> streaming adapter -> stable topics -> persistent index
# -> `serve` subprocess -> HTTP answers asserted byte-identical.
corpus-demo:
	$(RUN) examples/dblp_topics.py

# "Build" the markdown docs site: link-check + coverage gates.
docs-check:
	$(RUN) -m pytest -q tests/test_docs.py tests/test_docstrings.py

lint:
	$(PYTHON) -m flake8 src tests benchmarks examples

# The docstring audit of the public API surface (summary style;
# mirrored by tests/test_docstrings.py for pydocstyle-less machines).
docstyle:
	$(PYTHON) -m pydocstyle src/repro/engine src/repro/storage \
	    src/repro/vocab src/repro/search src/repro/index \
	    src/repro/service src/repro/serving src/repro/distributed \
	    src/repro/corpus
