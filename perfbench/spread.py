"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload kgl2-wide --seeds 1-10 --seconds 35 --out runs.json

Runs run.py once per seed, one run at a time, and prints for every metric
the median and the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``).  With
``--out`` it writes every run's result line and its environment line, so
a later commit can be compared against the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, xs in values.items():
        median = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
            env_line, result_line = done.stdout.strip().splitlines()[-2:]
            runs.append({"seed": seed, "result": json.loads(result_line), **json.loads(env_line)})
            print(f"{workload} seed {seed}: {result_line}", file=sys.stderr)
        summary = summarize([run["result"] for run in runs])
        report[workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            print(f"{workload:12s} {name:34s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
