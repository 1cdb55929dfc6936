#!/usr/bin/env python3
"""Run one workload of the fracvar benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from its src/
directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics (the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1);
the line before it holds the details behind them: provenance, sample
counts, failed_frac, every reference mismatch by name, per-pass times
and per-restart iteration counts.  Exits 2 without a result when the
package source, BENCHMARK.json or the reference file is missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread for steadiness (2 cores, one caller); set before numpy loads
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "refine", "admit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    manifest = ROOT / "BENCHMARK.json"
    for need in (src / "fracvar" / "__init__.py", manifest, REFERENCE):
        if not need.is_file():
            print(f"perfbench: missing {need}; run from a fracvar checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(src))
    import fracvar

    if Path(fracvar.__file__).resolve().parent != (src / "fracvar").resolve():
        print(f"perfbench: imported fracvar from {fracvar.__file__}, not {src}", file=sys.stderr)
        return 2

    from bench import measure, result_line

    manifest = json.loads(manifest.read_text(encoding="utf-8"))
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))["outputs"]
    metrics, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), refs, ROOT)
    summary = details.pop("summary")
    section = manifest["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(details))
    print(json.dumps(result_line(metrics, summary, section)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
