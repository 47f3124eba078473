"""End-to-end and per-layer benchmark of the stable-clusters pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload blog-batch --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``blog-batch``  — JSONL blog corpus through ``find_stable_clusters``;
* ``dblp-stream`` — DBLP-style XML through the streaming pipeline with a
  tailing query service;
* ``serve-http``  — open-loop HTTP load on ``repro.cli serve`` over the
  index the streaming pipeline writes;
* ``graph-solve`` — Section 5.2 synthetic cluster graphs through the
  solver engine.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a
separate run that wraps spans around the calls into each layer,
reports per-layer metrics, and writes the spans as JSONL under
``.perfbench_out/``.  Every run checks the program's outputs; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Inputs are generated from
``--seed``; scratch files live under ``.perfbench_work/`` and are
removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

HASH_SEED = "0"

WORKLOADS = {
    "blog-batch": "blog_batch",
    "dblp-stream": "dblp_stream",
    "serve-http": "serve_http",
    "graph-solve": "graph_solve",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs(trace: bool):
    """``[(name, unit)]`` this run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [(metric["name"], metric["unit"]) for metric in section]


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and dict and set
        # layouts with it; that alone moves these timings by ~10%
        # between runs of the same input.  Pin it and start over.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__] + sys.argv[1:])
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no program source at {SOURCE}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    specs = metric_specs(bool(args.trace))
    sys.path.insert(0, SOURCE)

    from common import DegenerateRun

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work)
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
    # Anything the program puts in a temporary directory stays inside
    # the checkout too.
    tempfile.tempdir = work
    os.environ["TMPDIR"] = work
    trace_path = os.path.join(
        out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             work, trace_path)
    except DegenerateRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name, unit in specs:
        if name in outcome.metrics:
            value = float(outcome.metrics[name])
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            print(f"error: workload reported no {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, passed in outcome.checks:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
