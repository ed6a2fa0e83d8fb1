#!/usr/bin/env python3
"""Repository benchmark: builds the runner and connectit_server from source,
runs one workload, and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload static_social --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. With --trace 0 the result carries every
end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer metric;
a per-layer metric of a layer the workload does not exercise reads 0.
The inputs come from --seed (default DEFAULT_SEED; HELD_OUT_SEED is the
seed kept out of tuning).
Exits non-zero without a result on a build failure or any correctness
mismatch. --tiny shrinks every input (the self-test mode) and
--inject-fault corrupts one output so the correctness check must fire.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static_social", "static_road", "ingest", "serve")
# The seed a plain run uses, and one kept out of tuning; selftest.py runs
# both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Per-layer metric prefix -> the end-to-end effect a change to that layer
# should have, and where it should have none. Printed with every traced run.
LAYER_MAP = {
    "graph.": "setup_s everywhere, op_p50_us (build_s) on static_social; "
              "no conversion on static_road",
    "sampling.": "op_p50_us (build_s) on static_social; none on static_road, "
                 "ingest, serve",
    "finish.": "op_p50_us (build_s) on static_road; none on serve",
    "unionfind.": "op_p50_us (build_s) on static_road; none on serve",
    "streaming.": "op_p50_us (insert commit) and ingest_edges_per_s on "
                  "ingest; none on static_*",
    "index.": "op_p50_us, ingest_edges_per_s and peak_rss_mb on ingest; "
              "none on static_*",
    "forest.": "erase_commit_* on serve; none on ingest "
               "(forest.erase_batches must be 0 there)",
    "pool.": "read_tail_us on serve, peak_rss_mb on ingest",
    "epoch.": "read_tail_us on serve, peak_rss_mb on ingest",
    "serve.": "op_p50_us (read_p50_us) and read_rate_at_slo on serve; "
              "absent elsewhere",
    "loadgen.": "validity of the serve row: a lagging generator voids it",
    "verify.": "baseline only: sequential time and parallel speed-up",
    "trace.": "cost of tracing itself",
}

# A run must end well inside 180 s; past this the whole process group
# (runner and the server it spawned) is killed.
RUN_TIMEOUT_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds the two targets (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the repository sources are not next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_runner", "connectit_server"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return out


def run_group(cmd):
    """Runs cmd in its own process group; on timeout kills the group and
    waits until every process in it has ended."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, stdout
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        fail("runner timed out after %d s" % RUN_TIMEOUT_S)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(result, wanted, strict):
    """Keeps the metrics BENCHMARK.json names, checking each unit."""
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            if strict:
                fail("the runner did not emit " + entry["name"])
            got = {"value": 0, "unit": entry["unit"]}
        if got["unit"] != entry["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (entry["name"], got["unit"], entry["unit"]))
        metrics[entry["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    out = build()
    spec = load_spec()
    # Relative paths keep the serve socket path short.
    out_rel = os.path.relpath(out, ROOT)
    out_dir = os.path.join(out_rel, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(out_rel, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(out_rel, "connectit", "connectit_server"),
           "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault:
        cmd.append("--inject-fault")
    returncode, stdout = run_group(cmd)
    lines = stdout.splitlines()
    for line in lines:
        if not line.startswith("PERFBENCH_RESULT "):
            print(line)
    if returncode != 0:
        fail("runner exited with %d" % returncode)
    results = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    if len(results) != 1:
        fail("runner printed no result")
    result = json.loads(results[0][len("PERFBENCH_RESULT "):])
    if args.trace:
        for prefix, effect in LAYER_MAP.items():
            print("layer %-11s moves %s" % (prefix, effect))
        metrics = select(result, spec["per_layer"], strict=False)
    else:
        metrics = select(result, spec["end_to_end"], strict=True)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
