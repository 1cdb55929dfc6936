#!/usr/bin/env python3
"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py

Solves each pooled input once, with the code of the checkout it runs
in: the example sweep, the refinement study at every pooled
kernel_verify seed, every draw of the admit pool, and one cold
command-line solve.  Writes perfbench/reference.json.  Refuses to
write when an operation fails or a certificate does not hold, since
such outputs are no reference.  The per-restart iteration counts are
stored alongside but not compared.
"""

import json
import os
import sys
from pathlib import Path

from run import REFERENCE, ROOT  # sets the BLAS thread cap before numpy loads

sys.path.insert(0, str(ROOT / "src"))

from bench import provenance  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS,
    ColdSolves,
    PASSES,
    KERNEL_VERIFY_SEED_POOL,
    Sizes,
    admit_config,
)


def record(root: Path, env: dict, sizes: Sizes = Sizes()) -> tuple[dict, list]:
    """(outputs by name, problems) for every pooled input at these sizes."""
    runs = []
    key, inp = next(INPUTS["sweep"](0, sizes))
    runs.append(PASSES["sweep"](key, inp, sizes))
    for seed in range(KERNEL_VERIFY_SEED_POOL):
        key, inp = next(INPUTS["refine"](seed, sizes))
        runs.append(PASSES["refine"](key, inp, sizes))
    draws = [(i, json.dumps(admit_config(i))) for i in range(sizes.admit_pool)]
    runs.append(PASSES["admit"](f"admit/pool={sizes.admit_pool}", draws, sizes))
    with ColdSolves(root, env) as cold:
        cold.run_one()
        runs.append(cold.res)

    outputs, problems = {}, []
    for res in runs:
        outputs.update(res.outputs)
        if res.failed or res.certified != res.solves:
            problems.append(
                f"{sorted(res.outputs)[:1]}: {res.failed} failed, "
                f"{res.solves - res.certified} uncertified"
            )
    return outputs, problems


def main() -> int:
    outputs, problems = record(ROOT, dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    if problems:
        print("perfbench: not recording:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    doc = {
        "provenance": provenance(ROOT, "all", None, "every pooled input"),
        "outputs": outputs,
    }
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} reference outputs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
