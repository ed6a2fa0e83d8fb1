#!/usr/bin/env python3
"""Self-test of the benchmark runner, at tiny input sizes.

    python3 perfbench/selftest.py

For every workload, on the default and the held-out seed:
  - --trace 0 emits every end_to_end metric of BENCHMARK.json with its
    unit and a non-zero value;
  - --trace 1 emits every per_layer metric with its unit;
and, on the default seed, --inject-fault (one corrupted labeling or
answer) makes the correctness check fire: non-zero exit, no result line.
Also checks that every per_layer metric is measured by at least one
workload rather than filled in as 0. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point, for its constants)


def invoke(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def main():
    spec = run.load_spec()
    errors = []
    measured = set()
    for workload in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            for trace, wanted in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                tag = "%s seed %d trace %d" % (workload, seed, trace)
                proc = invoke(workload, seed, trace)
                result = result_of(proc)
                if result is None:
                    errors.append(tag + ": no result\n" + proc.stderr)
                    continue
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"} or result["correct"] is not True:
                    errors.append(tag + ": malformed result")
                if set(result["metrics"]) != {m["name"] for m in wanted}:
                    errors.append(tag + ": metric set differs from "
                                  "BENCHMARK.json")
                for m in wanted:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        errors.append("%s: %s missing or wrong unit"
                                      % (tag, m["name"]))
                    elif trace == 0 and not got["value"] > 0:
                        errors.append("%s: %s is %r" % (tag, m["name"],
                                                        got["value"]))
                emitted = [l.split()[1] for l in proc.stdout.splitlines()
                           if l.startswith("metric ")]
                measured.update(emitted)
        proc = invoke(workload, run.DEFAULT_SEED, 0, ["--inject-fault"])
        if proc.returncode == 0 or result_of(proc) is not None or \
                "MISMATCH" not in proc.stderr:
            errors.append(workload + ": the injected fault went unnoticed")
    for m in spec["per_layer"]:
        if m["name"] not in measured:
            errors.append(m["name"] + ": measured by no workload")
    for error in errors:
        print("FAIL " + error)
    print("selftest: %d failure(s)" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
