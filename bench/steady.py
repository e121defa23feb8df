"""Steadiness check: two sets of benchmark runs of the same code.

Usage (from the repository root):

    python3 bench/steady.py

Runs two sets of runs. Each set runs every workload of BENCHMARK.json ten
times for its ``run_seconds``, each run with its own seed (set 1 uses
seeds 1-10, set 2 seeds 11-20), taking the workloads in turn. For every
end-to-end metric and workload it prints each set's median and quartile
spread (Q3 - Q1 as a share of the median), how far the second median lies
from the first in the metric's worse direction, and the bound from
BENCHMARK.json next to them; then each set's share of failed operations.
The raw results go to ``.bench_out/steady-<time>.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                seed = s * RUNS + i + 1
                r = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(r)
                print(f"set {s + 1} {w} seed {seed}: {r['run_s']:.1f} s, "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)

    os.makedirs(".bench_out", exist_ok=True)
    path = time.strftime(".bench_out/steady-%Y%m%d-%H%M%S.json")
    with open(path, "w") as fh:
        json.dump(results, fh)

    print(f"{'workload':14} {'metric':15} {'median 1':>12} {'spread 1':>9} "
          f"{'median 2':>12} {'spread 2':>9} {'worse by':>9} {'bound':>6}")
    for w in workloads:
        for m in spec["end_to_end"]:
            cols = []
            for runs in results[w]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                cols.append((statistics.median(values), spread(values)))
            (m1, s1), (m2, s2) = cols
            worse = (m2 / m1 - 1) if m["better"] == "lower" else (m1 / m2 - 1)
            print(f"{w:14} {m['name']:15} {m1:12.5g} {s1:9.2%} {m2:12.5g} {s2:9.2%} "
                  f"{worse:9.2%} {m['bound']:6.0%}")
        shares = [f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                  for runs in results[w]]
        correct = all(r["correct"] for runs in results[w] for r in runs)
        print(f"{w:14} failed per set: {', '.join(shares)}; all correct: {correct}")
    print(f"raw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
