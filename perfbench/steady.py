#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py

Runs two sets, A and B, of ten runs of every workload in BENCHMARK.json,
each run as long as its `run_seconds`, alternating A and B run by run;
run i of either set uses seed i + 1. For every end-to-end metric it
prints each set's median and quartiles (Python's statistics.quantiles,
n=4) and checks what BENCHMARK.json promises:

  * spread: (q3 - q1) / median is within the metric's bound in both sets;
  * shift: set B's median is not worse than set A's by more than the bound;
  * failures: the share of failed operations is identical in A and B.

Exits 0 when every workload and metric agrees, 1 otherwise. Each run's
JSON result line is kept in perfbench/out/steady.jsonl.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if len(sys.argv) > 1:
        raise SystemExit(__doc__)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "steady.jsonl"), "w")
    agree = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name in ("A", "B"):
                result = run_once(workload, i + 1, seconds)
                sets[name].append(result)
                log.write(json.dumps({"workload": workload, "set": name, "seed": i + 1,
                                      "result": result}) + "\n")
                log.flush()
        print(f"\n{workload}: {RUNS} runs per set, {seconds} s each")
        print(f"  {'metric':22} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        shares = {n: sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for n, s in sets.items()}
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = {n: summary([r["metrics"][name]["value"] for r in s])
                     for n, s in sets.items()}
            medians = {n: v[0] for n, v in stats.items()}
            worse = (medians["B"] - medians["A"]) / medians["A"]
            if not lower:
                worse = -worse
            for n, (med, q1, q3) in stats.items():
                spread = (q3 - q1) / med
                ok = spread <= bound
                if n == "B":
                    ok = ok and worse <= bound
                    verdict = f"{'ok' if ok else 'DISAGREE'} (B {worse:+.1%} worse)"
                else:
                    verdict = "ok" if ok else "DISAGREE"
                agree = agree and ok
                print(f"  {name:22} {n:3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.1%} {bound:6.2f}  {verdict}")
        same = shares["A"] == shares["B"]
        agree = agree and same
        print(f"  failed share: A {shares['A']:.6f}  B {shares['B']:.6f}  "
              f"{'ok' if same else 'DISAGREE'}")
    print("\nthe two sets agree" if agree else "\nthe two sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
