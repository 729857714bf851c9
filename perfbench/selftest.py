#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at small input
sizes, untraced and traced, and checks that:

- the exit code is 0 and every correctness check passed;
- the last line holds exactly the keys correct/attempted/failed/metrics,
  and the line before it is the machine block;
- every end-to-end (untraced) or per-layer (traced) metric is printed once,
  with the unit BENCHMARK.json gives it, as a finite number;
- the deterministic metrics repeat exactly for the default seed, and the
  held-out seed passes every check too.

Finally it checks that the benchmark fails, without printing a result, in
a directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

# Metrics that are functions of the seed alone, never of timing.
DETERMINISTIC = {
    0: ["mean_streams"],
    1: [
        "online.decisions_per_arrival",
        "sim.push_samples",
        "sim.reports_per_push",
        "sim.max_open_trees",
        "serve.startup_delay_p99_slots",
        "serve.startup_delay_mean_slots",
        "sim.bandwidth_units_per_arrival",
        "sim.peak_streams",
        "server.peak_streams",
    ],
}


def run(workload, seed, trace, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=False)


def result(proc, spec, trace, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[-2])["machine"]
    assert machine["cores"] >= 1 and machine["rustc"].startswith("rustc"), f"{label}: {machine}"
    assert machine["clock_read_ns"] > 0, f"{label}: {machine}"
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], f"{label}: {sorted(out)}"
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, f"{label}: {out}"
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in expected]
    assert list(out["metrics"]) == names, f"{label}: metrics {list(out['metrics'])}"
    for m in expected:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{label}: {m['name']} = {got['value']}"
    return out["metrics"]


def bare_directory_fails():
    """The benchmark needs the repository's crates: without them it must exit
    non-zero and print no result."""
    bare = os.path.join(".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(os.path.abspath(bare), ".bench_build"))
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "live_budget", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare directory: benchmark succeeded"
    assert '"correct"' not in proc.stdout, "bare directory: printed a result"


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            label = f"{name} trace {trace}"
            first = result(run(name, DEFAULT_SEED, trace), spec, trace, label)
            again = result(run(name, DEFAULT_SEED, trace), spec, trace, label + " again")
            for key in DETERMINISTIC[trace]:
                assert first[key] == again[key], \
                    f"{label}: {key} {first[key]['value']} then {again[key]['value']}"
            result(run(name, HELD_OUT_SEED, trace), spec, trace, label + " held-out seed")
            print(f"ok  {label}", flush=True)
    bare_directory_fails()
    print("ok  bare directory fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
