"""Benchmark of the latclass command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a latclass checkout.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``ops_per_s``,
``latency_p50_ms``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they
are the per-layer figures of ``tracer.LAYER_METRICS``.

This process generates the documents (``gen.py``) and checks the outputs
(``oracles.py``); latclass runs in separate session processes
(``session.py``), so their peak resident set holds no generator state.
An untraced run is ``SESSIONS`` sessions of ``S / SESSIONS`` seconds each,
run one after another; each session imports latclass and warms up on
held-out documents (its set-up time) and then runs whole rounds until its
share of the time is spent.  A traced run is one session that runs a fixed
number of rounds, untraced and traced alternately, so that its counts
repeat exactly for a seed and its overhead is measured on like documents.
See README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SESSIONS = 3
# rounds of a traced run: untraced and traced alternately
TRACE_ROUNDS = {"check-all": 12, "load-large": 12, "catlab-quotient": 20}
# round time at this commit: the first session gets documents for one and a
# half times its budget, later sessions size from the rounds measured so far
ROUND_S_GUESS = {"check-all": 1.9, "load-large": 1.9, "catlab-quotient": 1.2}
MAX_ROUNDS = 400


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Run:
    def __init__(self, workload, seed, directory):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.docs = os.path.join(directory, "docs")
        os.makedirs(self.docs)
        self.ops = {}  # id -> materialized op
        self.rounds = {}  # round index -> [[id, argv]]
        self.attempted = 0
        self.failures = []
        self.results = []  # one per session

    def _materialize(self, ops):
        out = []
        for op in ops:
            m = gen.materialize(op, self.docs)
            self.ops[m["id"]] = m
            out.append([m["id"], m["argv"]])
        return out

    def round(self, index):
        if index not in self.rounds:
            self.rounds[index] = self._materialize(
                gen.round_ops(self.workload, self.seed, "r", index))
        return self.rounds[index]

    def session(self, number, first_round, n_rounds, budget_s, trace_path):
        """Run one session process; returns its result dict."""
        warmup = gen.round_ops(self.workload, self.seed, f"w{number}", 0,
                               gen.WARMUP_SLOTS[self.workload])
        plan = {"budget_s": budget_s, "trace": trace_path,
                "warmup": self._materialize(warmup),
                "rounds": [self.round(first_round + i) for i in range(n_rounds)]}
        base = os.path.join(self.directory, f"session{number}")
        with open(base + ".plan.json", "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        env = dict(os.environ, PYTHONHASHSEED="0")
        cmd = [sys.executable, os.path.join(HERE, "session.py"), SRC,
               base + ".plan.json", base + ".result.json", base + ".out.jsonl"]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        if proc.returncode != 0:
            fail(f"session {number} exited with {proc.returncode}:\n{proc.stderr}")
        with open(base + ".result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        with open(base + ".out.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                self.attempted += 1
                reason = oracles.check(self.ops[rec["id"]], rec["code"], rec["out"])
                if reason is not None:
                    self.failures.append(f"{rec['id']}: {reason} {rec['err'][-300:]}")
        self.results.append(result)
        return result


def untraced(run, seconds):
    remaining = seconds
    round_s = ROUND_S_GUESS[run.workload]
    next_round = 0
    for number in range(SESSIONS):
        # a session that ran short of documents leaves its time to the next
        budget = remaining / (SESSIONS - number)
        n_rounds = min(MAX_ROUNDS, math.ceil(1.5 * budget / round_s) + 2)
        result = run.session(number, next_round, n_rounds, budget, None)
        done = result["rounds"]
        next_round += len(done)
        remaining -= result["measured_s"]
        round_s = statistics.median(sum(r["times"]) for r in done)
    results = run.results
    times = [t for result in results for r in result["rounds"] for t in r["times"]]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) / 1024, "MB"),
    }


def traced(run, trace_path):
    result = run.session(0, 0, TRACE_ROUNDS[run.workload], None, trace_path)
    plain = [t for r in result["rounds"] if not r["traced"] for t in r["times"]]
    with_spans = [t for r in result["rounds"] if r["traced"] for t in r["times"]]
    metrics = tracer.layer_metrics(tracer.read_spans(trace_path), len(with_spans))
    metrics["trace.overhead_pct"] = 100 * (
        statistics.mean(with_spans) / statistics.mean(plain) - 1)
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latclass", "cli.py")):
        fail(f"no latclass sources under {SRC}")

    os.makedirs(STATE, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    directory = os.path.join(STATE, f"{tag}-{os.getpid()}")
    run = Run(args.workload, args.seed, directory)
    try:
        if args.trace:
            trace_path = os.path.join(directory, "trace.jsonl")
            metrics = traced(run, trace_path)
            os.replace(trace_path, os.path.join(STATE, f"{args.workload}.trace.jsonl"))
        else:
            metrics = untraced(run, args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for line in run.failures:
        print(f"failed {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(STATE, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, sessions=run.results), fh)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
