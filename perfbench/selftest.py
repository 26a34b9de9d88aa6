#!/usr/bin/env python3
"""Self-test of ProtoPipe's benchmark.

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced: each must pass
   its checks and print, as its last stdout line, exactly the result keys
   with every end-to-end (untraced) or per-layer (traced) metric of
   BENCHMARK.json, each with its unit.
2. The same tiny runs with an injected output mismatch (one operation's
   simulated result perturbed): each must count a failed operation,
   report correct=false and exit non-zero.
3. A copy holding only BENCHMARK.json and the benchmark's own files must
   fail without printing a result.
Exits 0 when every check holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(root, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, result, done = run(ROOT, name, trace)
            label = "%s trace=%d" % (name, trace)
            if result is None:
                check(False, label + ": no result line\n" + done.stdout +
                      done.stderr[-2000:])
                continue
            check(code == 0, label + ": exit code 0")
            check(set(result) == RESULT_KEYS, label + ": result keys")
            check(result.get("correct") is True and result["failed"] == 0,
                  label + ": every operation passed its checks")
            check(isinstance(result["attempted"], int) and
                  result["attempted"] >= 1, label + ": attempted >= 1")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  label + ": metric names and units match BENCHMARK.json")
            finite = all(isinstance(v["value"], (int, float)) and
                         math.isfinite(v["value"])
                         for v in result["metrics"].values())
            check(finite, label + ": every value is a finite number")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      label + ": end-to-end metrics are never 0")

        code, result, done = run(ROOT, name, 0, "--inject-mismatch")
        check(code != 0 and result is not None and
              result["correct"] is False and result["failed"] >= 1,
              name + ": injected output mismatch is a failed operation")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, result, done = run(bare, spec["workloads"][0]["name"], 0)
        check(code != 0 and result is None and not done.stdout.strip(),
              "benchmark files alone: fails without printing a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("\n%d check(s) failed" % len(failures) if failures else
          "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
