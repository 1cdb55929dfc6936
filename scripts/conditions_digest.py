#!/usr/bin/env python3
"""One sha256 over the conditions layer's report bytes.

Hashes evaluate_conditions(...).json_str() for the first --count draws
of perfbench's admit pool (perfbench/workloads.py admit_config, default
512, the whole pool) and then for every configs/*.json, in that order,
joined by newlines, and prints the hex digest on one line.  The draws
are read from perfbench/workloads.py itself, not copied, so the digest
covers exactly the reports the benchmark's admit workload computes.
Two source trees give the same report bytes when they print the same
digest:

    PYTHONPATH=src python scripts/conditions_digest.py
    PYTHONPATH=src python scripts/conditions_digest.py --count 8
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import admit_config  # noqa: E402  (perfbench/workloads.py)

from fracvar.conditions import evaluate_conditions  # noqa: E402
from fracvar.problem import ProblemSpec  # noqa: E402


def report_text(doc: dict) -> str:
    spec = ProblemSpec.from_config(doc)
    return evaluate_conditions(spec.nonlinearity, spec.alpha, spec.T).json_str()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--count", type=int, default=512,
                    help="admit pool draws to hash, from draw 0 (default 512)")
    count = ap.parse_args(argv).count
    docs = [admit_config(i) for i in range(count)]
    docs += [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]
    text = "\n".join(report_text(doc) for doc in docs)
    print(hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
