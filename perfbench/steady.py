#!/usr/bin/env python3
"""Steadiness and comparison helper for ProtoPipe's benchmark.

Steadiness: N runs of one workload, one seed each, then per metric the
median, the quartiles (statistics.quantiles(n=4)) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json:

    python3 perfbench/steady.py runs --workload fabric_collective --seeds 1-10

Comparison of two commits: alternating pairs of runs on the same seeds,
the side that runs first alternating, then per metric each side's median
and quartiles, the fraction of pairs the change wins (ties count for
neither), and whether a gain claim holds (wins >= 9/10 of pairs and the
medians differ by more than the base's own quartile distance):

    python3 perfbench/steady.py compare --base <dir|rev> --head <dir|rev> \\
        --workload netpipe_pair --pairs 10

A side given as a git revision is exported with `git archive` under
.bench_build/compare/. Every run's result line is appended to
.bench_build/records/<name>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = os.path.join(ROOT, ".bench_build", "records")


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(root, workload, seed, seconds, trace, record):
    """One benchmark run in checkout `root`; returns its result object."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s seed %d in %s\n%s" %
                         (done.returncode, workload, seed, root,
                          done.stdout))
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.startswith("sim_digest")),
                  None)
    os.makedirs(RECORDS, exist_ok=True)
    with open(os.path.join(RECORDS, record + ".jsonl"), "a") as f:
        f.write(json.dumps({"root": root, "workload": workload, "seed": seed,
                            "trace": trace, "sim_digest": digest,
                            "result": result}) + "\n")
    return result, digest


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_runs(args):
    spec = load_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in metrics}
    digests = set()
    for seed in parse_seeds(args.seeds):
        result, digest = run_once(ROOT, args.workload, seed, seconds, 0,
                                  "runs-" + args.workload)
        digests.add(digest)
        row = []
        for name in metrics:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append("%s=%.5g" % (name, v))
        print("seed %-4d correct=%s failed=%d %s" %
              (seed, result["correct"], result["failed"], " ".join(row)))
        sys.stdout.flush()
    print("\n%-14s %12s %12s %12s %8s %7s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    worst = "steady"
    for name, m in metrics.items():
        q1, med, q3 = quartiles(values[name])
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        if name == "setup_s":
            verdict = "(not gated)"
        elif spread <= bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "within bound, above a third of it"
            worst = "marginal" if worst == "steady" else worst
        else:
            verdict = "TOO WIDE"
            worst = "unsteady"
        print("%-14s %12.5g %12.5g %12.5g %7.2f%% %6.0f%%  %s" %
              (name, med, q1, q3, 100 * spread, 100 * bound, verdict))
    print("\nsim_digest per seed: %d distinct over %d seeds" %
          (len(digests), len(parse_seeds(args.seeds))))
    print("overall:", worst)
    return 0 if worst != "unsteady" else 1


def checkout(side):
    if os.path.isdir(side):
        return os.path.abspath(side)
    dest = os.path.join(ROOT, ".bench_build", "compare", side)
    if not os.path.isdir(dest):
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", side],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit("git archive %s failed" % side)
    return dest


def cmd_compare(args):
    base, head = checkout(args.base), checkout(args.head)
    spec = load_spec(head)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    sides = {"base": [], "head": []}
    seeds = parse_seeds(args.seeds) if args.seeds else list(
        range(1, args.pairs + 1))
    for i, seed in enumerate(seeds):
        order = [("base", base), ("head", head)]
        if i % 2 == 1:
            order.reverse()
        pair = {}
        for name, root in order:
            pair[name], _ = run_once(root, args.workload, seed, seconds, 0,
                                     "compare-" + args.workload)
            sides[name].append(pair[name])
        print("pair %-3d seed %-4d first=%s  " % (i + 1, seed, order[0][0]) +
              "  ".join("%s %.5g->%.5g" % (
                  m["name"], pair["base"]["metrics"][m["name"]]["value"],
                  pair["head"]["metrics"][m["name"]]["value"])
                  for m in metrics))
        sys.stdout.flush()
    print("\n%-14s %24s %24s %6s  %s" %
          ("metric", "base median [q1,q3]", "head median [q1,q3]", "wins",
           "claim"))
    for m in metrics:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in sides["base"]]
        h = [r["metrics"][name]["value"] for r in sides["head"]]
        bq1, bmed, bq3 = quartiles(b)
        hq1, hmed, hq3 = quartiles(h)
        higher = m["better"] == "higher"
        wins = sum(1 for x, y in zip(b, h) if (y > x if higher else y < x))
        share = wins / len(b)
        gain = (hmed - bmed) if higher else (bmed - hmed)
        if share >= 0.9 and gain > (bq3 - bq1):
            claim = "gain"
        else:
            worse = -gain / bmed if bmed else 0.0
            claim = ("REGRESSION beyond bound" if worse > m["bound"] else
                     "no gain shown")
        print("%-14s %10.5g [%.4g,%.4g] %10.5g [%.4g,%.4g] %5.0f%%  %s" %
              (name, bmed, bq1, bq3, hmed, hq1, hq3, 100 * share, claim))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs", help="steadiness of one workload over seeds")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float)
    c = sub.add_parser("compare", help="alternating pairs on two commits")
    c.add_argument("--base", required=True)
    c.add_argument("--head", required=True)
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seeds", help="overrides --pairs, e.g. 101-110")
    c.add_argument("--seconds", type=float)
    args = ap.parse_args()
    return cmd_runs(args) if args.cmd == "runs" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
