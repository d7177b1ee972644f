#!/usr/bin/env python3
"""spinmod benchmark: time to verdict of three ``verify`` runs and the
latency of a stream of ``trop`` queries.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every program call runs in a fresh worker process (``worker.py``) with
``src`` on ``PYTHONPATH``, one call after another (a closed loop with one
client, ``--jobs 1``).  An untraced run repeats the workload in fresh
processes for ``--seconds`` seconds and reports medians; ``setup_s`` is
the median launch-to-ready time of separate probe processes.  A traced
run makes one untraced and one traced pass and reports the per-layer
metrics of ``spans.py``.  Every output goes through ``gate.py``; a call
that fails a check counts as failed.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gate
from spans import DISTINCT, FUNCTIONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_PROBES = 7
TROP_ROUNDS = 3  # queries per pass: each spin class three times (2571)
INF_PROBABILITY = 0.3  # as in spinmod.verify.fuzz_families
WORKER_TIMEOUT_S = 150
# a call in a pass report: [exit code, stdout, clock latency, reference latency]
RAW_LATENCY, REF_LATENCY = 2, 3

WORKLOADS = {
    "verify-g3n0": {"kind": "verify", "g": 3, "n": 0, "suite": "all"},
    "verify-g2n2": {"kind": "verify", "g": 2, "n": 2, "suite": "all"},
    "verify-g3n1-posets": {"kind": "verify", "g": 3, "n": 1,
                           "suite": "posets"},
    "trop-queries": {"kind": "trop"},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB", "query_p50_ms": "ms",
              "query_p99_ms": "ms"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def verify_argv(spec, seed):
    return ["verify", "--g", str(spec["g"]), "--n", str(spec["n"]),
            "--suite", spec["suite"], "--seed", str(seed), "--jobs", "1"]


def trop_queries(seed, count, classes):
    """``count`` pairs ``(class index, valuations)``.  Every class appears
    once in each round of ``len(classes)`` queries, in a seeded random
    order, so each query's class is uniform over both spin posets and the
    class mix does not change with the seed.  Each edge is infinite with
    probability 0.3 (``None``), otherwise p/q with p in 1..9 and q in
    1..4."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < count:
        order = list(range(len(classes)))
        rng.shuffle(order)
        for index in order[:count - len(queries)]:
            val = []
            for _ in classes[index]["graph"]["edges"]:
                if rng.random() < INF_PROBABILITY:
                    val.append(None)
                else:
                    val.append(Fraction(rng.randint(1, 9),
                                        rng.randint(1, 4)))
            queries.append((index, val))
    return queries


def prepare(name, seed, workdir, trop_count=None):
    """The argv of every call of one pass, written inputs included, and a
    function giving the gate's problems for call ``i``.  ``trop_count``
    shortens the query stream (for tests)."""
    spec = WORKLOADS[name]
    if spec["kind"] == "verify":
        reference = gate.load_verify_reference()

        def check(i, rc, stdout):
            return gate.check_verify(name, seed, rc, stdout, reference)
        return [verify_argv(spec, seed)], check

    reference = gate.load_trop_reference()
    classes = reference["classes"]
    queries = trop_queries(seed, trop_count or TROP_ROUNDS * len(classes),
                           classes)
    argvs = []
    for i, (index, val) in enumerate(queries):
        path = workdir / f"q{i:05d}.json"
        path.write_text(json.dumps(gate.descriptor(classes[index], val)))
        argvs.append(["trop", str(path.relative_to(ROOT))])

    def check(i, rc, stdout):
        index, val = queries[i]
        return gate.check_trop(index, val, rc, stdout, reference)
    return argvs, check


def launch(workdir, tag, argvs, trace=False, spans=None):
    """Run one worker process to completion and return its report, with
    ``setup_s`` (launch until ready, in reference seconds), ``raw_setup_s``
    and ``elapsed_s`` added."""
    job = workdir / f"job-{tag}.json"
    outputs = workdir / f"out-{tag}.jsonl"
    job.write_text(json.dumps({"argvs": argvs, "trace": trace,
                               "spans": spans, "outputs": str(outputs)}))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), str(job)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    try:
        report = json.loads(out)
    except ValueError as exc:
        raise BenchError(f"worker {tag} printed no report: {exc}") from exc
    with open(outputs) as fh:
        for call, line in zip(report["calls"], fh):
            call.insert(1, json.loads(line))
    report["raw_setup_s"] = report["ready"] - started
    report["setup_s"] = ((report["raw_setup_s"] - report["setup_busy_s"])
                         * report["setup_factor"])
    report["elapsed_s"] = time.monotonic() - started
    return report


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _failures(passes, check):
    failed = 0
    for report in passes:
        for i, (rc, stdout, *_) in enumerate(report["calls"]):
            problems = check(i, rc, stdout)
            if problems:
                failed += 1
                if failed <= 3:
                    print(f"call {i} failed: {'; '.join(problems[:3])}",
                          file=sys.stderr)
    return failed


def _time_metrics(setups, passes, wall, cpu, latency):
    """Medians over the run's passes and probes.  A query's latency is
    its median over the passes, which removes the host's one-off stalls;
    the percentiles are taken over the queries."""
    latencies = [statistics.median(p["calls"][i][latency] for p in passes)
                 for i in range(len(passes[0]["calls"]))]
    return {
        "wall_s": statistics.median(p[wall] for p in passes),
        "cpu_s": statistics.median(p[cpu] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p99_ms": percentile(latencies, 99) * 1000,
    }


def measure(name, seed, seconds, workdir, trop_count=None):
    """Untraced run: ``(attempted, failed, metrics, raw)``, where
    ``metrics`` are in reference seconds and ``raw`` are the same metrics
    as the clock read them."""
    probes = [launch(workdir, f"probe{i}", []) for i in range(SETUP_PROBES)]
    argvs, check = prepare(name, seed, workdir, trop_count)
    passes = []
    window = time.monotonic()
    while not passes or (time.monotonic() - window
                         + passes[-1]["elapsed_s"] <= seconds):
        passes.append(launch(workdir, f"pass{len(passes)}", argvs))
    metrics = _time_metrics([p["setup_s"] for p in probes], passes,
                            "ref_wall_s", "ref_cpu_s", REF_LATENCY)
    raw = _time_metrics([p["raw_setup_s"] for p in probes], passes,
                        "wall_s", "cpu_s", RAW_LATENCY)
    attempted = sum(len(p["calls"]) for p in passes)
    return attempted, _failures(passes, check), metrics, raw


def measure_traced(name, seed, workdir, trop_count=None):
    """Traced run: one untraced and one traced pass of the same calls.
    A call whose output differs between the two passes counts as
    failed."""
    argvs, check = prepare(name, seed, workdir, trop_count)
    plain = launch(workdir, "plain", argvs)
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    traced = launch(workdir, "traced", argvs, trace=True,
                    spans=str(spans_dir / f"{name}-seed{seed}.bin"))
    failed = _failures([plain, traced], check)
    for i, (a, b) in enumerate(zip(plain["calls"], traced["calls"])):
        if gate.program_output(a[1]) != gate.program_output(b[1]):
            failed += 1
            print(f"call {i}: traced output differs", file=sys.stderr)
    metrics = traced["layers"]
    metrics["trace.overhead_ratio"] = (traced["ref_wall_s"]
                                       / plain["ref_wall_s"])
    return len(plain["calls"]) + len(traced["calls"]), failed, metrics, {}


def per_layer_units():
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.cum_s"] = "s"
    units["graphs.Graph.calls"] = "count"
    for name in DISTINCT:
        units[f"{name}.distinct_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_workload(name, seed, seconds, trace):
    """Measure one workload and return its result object."""
    if not (SRC / "spinmod" / "__init__.py").is_file():
        raise BenchError(f"no spinmod package under {SRC}")
    workdir = OUT / f"run-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            attempted, failed, values, raw = measure_traced(name, seed,
                                                            workdir)
            units = per_layer_units()
        else:
            attempted, failed, values, raw = measure(name, seed, seconds,
                                                     workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {key: {"value": values[key], "unit": unit}
                          for key, unit in units.items()}}
    return result, raw


def _print_table(name, result, raw):
    """Every metric by name and unit; untraced times also as read from
    the clock."""
    print(f"== {name}: {result['attempted']} calls, "
          f"{result['failed']} failed")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} ratio")
    for key, metric in result["metrics"].items():
        line = f"  {key:<44} {metric['value']:>14.6g} {metric['unit']:<6}"
        if key in raw and key != "peak_rss_mb":
            line += f" (clock: {raw[key]:.6g})"
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], raw = run_workload(name, args.seed,
                                              args.seconds, args.trace)
            _print_table(name, results[name], raw)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
