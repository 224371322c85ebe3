"""Repeat mode: run one workload several times, one seed per run, and print
each metric's median, quartiles and spread.

    python3 bench/repeat.py --workload chain-exact --runs 10
    python3 bench/repeat.py --workload learn --runs 5 --first-seed 11 --trace 1

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. The run
length and the end-to-end bounds come from ``BENCHMARK.json``; a bound is
met when the spread is below it, and comfortably met below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                  if not args.trace), flush=True)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"\n{args.workload}: {args.runs} runs, failed share {shares}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':50s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"{bound}  {'ok' if spread < bound / 3 else 'within' if spread < bound else 'OVER'}")
        print(f"{name:50s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
