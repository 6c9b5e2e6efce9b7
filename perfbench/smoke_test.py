#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke_test.py

It runs the helper's unit tests, then every workload of BENCHMARK.json at
a tiny size in both modes, and asserts that each run is correct and prints
exactly the metrics BENCHMARK.json names, with their units. Finally it
corrupts one output of each checked kind and asserts that the corrupted
invocation is counted as failed (`ops_ok_ratio` below 1).
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TINY_RECORDS = "2000"


def run(workload, trace, *extra):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--records", TINY_RECORDS, *extra]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    assert done.returncode == 0, f"{argv} exited {done.returncode}:\n{done.stderr}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_shape(result, specs, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert isinstance(result["failed"], int), what
    want = {m["name"]: m["unit"] for m in specs}
    got = result["metrics"]
    assert set(got) == set(want), f"{what}: metrics {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{what}: {name} unit {got[name]['unit']}"
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{what}: {name}"


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    subprocess.run(["cargo", "test", "-q", "--release", "--manifest-path",
                    os.path.join(BENCH_DIR, "Cargo.toml")], cwd=ROOT, env=env, check=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            what = f"{w['name']} --trace {trace}"
            result = run(w["name"], trace)
            check_shape(result, specs, what)
            assert result["correct"] and result["failed"] == 0, f"{what}: {result}"
            if trace == 0:
                assert result["metrics"]["ops_ok_ratio"]["value"] == 1.0, what
            print(f"ok: {what} ({result['attempted']} checked)")

    for kind in ("fmt", "metrics", "accum"):
        what = f"clf_weblog --corrupt {kind}"
        result = run("clf_weblog", 0, "--corrupt", kind)
        check_shape(result, bench["end_to_end"], what)
        assert not result["correct"] and result["failed"] >= 1, f"{what}: {result}"
        assert result["metrics"]["ops_ok_ratio"]["value"] < 1.0, what
        print(f"ok: {what} counted as failed ({result['failed']} of {result['attempted']})")
    print("smoke test passed")


if __name__ == "__main__":
    main()
