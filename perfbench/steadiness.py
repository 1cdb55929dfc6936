#!/usr/bin/env python3
"""Run the benchmark over ten seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --out perfbench/baseline.json

For each workload of BENCHMARK.json, runs perfbench/run.py untraced once per seed 1..10
and traced once at seed 1, one process after another.  For each
end-to-end metric it prints the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, beside the metric's bound from BENCHMARK.json.
A metric is steady when its spread is at most a third of its bound;
setup_s, whose spread is not held to a bound (only the drift of its
median between two sets of runs is), is steady within its bound.
With --out it writes every run's result and details, as the baseline
later changes compare against.  Exits 1 when a metric is not steady
or a run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 2)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"seed": seed, "trace": trace, "details": json.loads(lines[-2]),
            "result": json.loads(lines[-1])}


def spread(values: list) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in manifest["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        runs += [run_once(workload, s, seconds, 1) for s in TRACED_SEEDS]
        summary = {}
        print(f"{workload}: {len(SEEDS)} seeds, {seconds} s per run")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs if not r["trace"]]
            med, iqr = spread(values)
            ok = iqr <= bound / 3 or name == "setup_s" and iqr <= bound
            steady &= ok
            summary[name] = {"median": med, "spread": iqr, "bound": bound}
            print(f"  {name:<16} median {med:<12.6g} spread {iqr:7.2%}  bound {bound:.0%}"
                  f"{'' if ok else '  NOT STEADY'}")
        correct = all(r["result"]["correct"] for r in runs)
        steady &= correct
        print(f"  all correct: {correct}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
