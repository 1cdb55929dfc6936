#!/usr/bin/env python3
"""Per-layer timings of one solve on each rung of the benchmark ladder.

Each rung (n, k_max) of the ladder (512, 32), (1024, 64), (2048, 128),
(4096, 256) solves the example problem (alpha 0.75, T 1,
power_sum(1.5, 3), default solver settings) at mu = 0.25 through the
whole pipeline: build, conditions, minimize, weak_residual, certify.
The pipeline runs three times per rung under perfbench/tracing.py's
Tracer, which times each layer where it is called; every time in the
output is the best of the three.  Per restart of minimize the output
holds its wall time, iterations, backtracks and stop reason; per rung
the final record with its certificates.  The solves are deterministic,
so the three records must agree byte for byte, or the script fails.
No rung is capped: each runs all three repeats at the default
max_iters; the (4096, 256) rung takes about 30 s per repeat on one
core of a 2-core VM.

The script pins its process to one CPU, so minimize forks no child and
runs every restart serially, in this process, where each is timed, and
build_space builds both sides of its Caputo images here too, where
space.build times them (from (2048, 128) up it would fork one side on
two CPUs).  So the times stay comparable with the committed baseline.
A rung whose clock saw fewer restarts than the record has candidates
fails.

The BLAS thread cap is set to 1 before numpy loads, by importing
perfbench/run.py, and the file records perfbench's provenance (git
revision, source hash, BLAS library and thread cap).  Writes the JSON
to --out, which is required, so no run overwrites the committed
baseline unless asked to:

    PYTHONPATH=src python scripts/bench_ladder.py --out BENCH_baseline.json
    PYTHONPATH=src python scripts/bench_ladder.py --rungs 512 --out /tmp/BENCH_512.json
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402, F401  (perfbench/run.py sets the BLAS thread cap before numpy loads)

import tracing as tr  # noqa: E402  (perfbench/tracing.py)
from bench import provenance  # noqa: E402
from tracing import Tracer, call_clock, clock  # noqa: E402

from fracvar import conditions, solver  # noqa: E402
from fracvar.energy import power_sum  # noqa: E402
from fracvar.problem import ProblemSpec  # noqa: E402

LADDER = ((512, 32), (1024, 64), (2048, 128), (4096, 256))
REPEATS = 3
ALPHA, T, MU = 0.75, 1.0, 0.25
POWERS = {"r": 1.5, "s": 3.0}

# output key -> tracing span name
LAYERS = {
    "problem.build": tr.BUILD,
    "space.build": tr.SPACE_BUILD,
    "frac_kernel": tr.KERNEL,
    "energy.assembly": tr.ASSEMBLY,
    "conditions.evaluate": tr.CONDITIONS,
    "solver.minimize": tr.MINIMIZE,
    "solver.weak_residual": tr.WEAK_RESIDUAL,
    "solver.certify": tr.CERTIFY,
}


def _pipeline(spec: ProblemSpec):
    """One traced solve: (layer seconds, restart seconds, kernel calls, record, certificates)."""
    tracer = Tracer()
    with tracer.installed(), call_clock(solver, "_descend") as restart_s:
        t0 = clock()
        model, assembly = spec.build()
        report = conditions.evaluate_conditions(spec.nonlinearity, spec.alpha, spec.T)
        sol = solver.minimize(
            spec, MU, model=model, assembly=assembly, gamma_bar=report.gamma_bar
        )
        solver.weak_residual(sol, spec, model)
        certs = solver.certify(sol, spec, report)
        total = clock() - t0
    if len(restart_s) != len(sol.candidates):
        raise RuntimeError(
            f"timed {len(restart_s)} of {len(sol.candidates)} restarts in this process; "
            "minimize ran the rest in forked children"
        )
    layers = {key: tracer.total_s(span) for key, span in LAYERS.items()}
    layers["total"] = total
    return layers, list(restart_s), tracer.calls(tr.KERNEL), sol, certs


def run_rung(n: int, k_max: int) -> dict:
    spec = ProblemSpec(alpha=ALPHA, T=T, n=n, k_max=k_max, nonlinearity=power_sum(**POWERS))
    runs = [_pipeline(spec) for _ in range(REPEATS)]
    if len({sol.json_str() for _, _, _, sol, _ in runs}) != 1:
        raise RuntimeError(f"rung ({n}, {k_max}): repeated solves differ")
    best = {key: min(run[0][key] for run in runs) for key in runs[0][0]}
    restart_best = [min(ts) for ts in zip(*(run[1] for run in runs))]
    _, _, kernel_calls, sol, certs = runs[0]
    return {
        "n": n,
        "k_max": k_max,
        "repeats": REPEATS,
        "best_s": best,
        "frac_kernel_calls": kernel_calls,
        "restarts": [
            {"wall_s": s, **cand} for s, cand in zip(restart_best, sol.candidates)
        ],
        "record": {
            key: getattr(sol, key)
            for key in ("energy", "phi", "psi", "norm_alpha", "norm_inf", "residual",
                        "converged", "nontrivial")
        },
        "certificates": certs.to_jsonable(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="path of the JSON to write")
    ap.add_argument("--rungs", type=int, nargs="+", choices=[n for n, _ in LADDER],
                    default=[n for n, _ in LADDER], help="the n of each rung to run")
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    rungs = []
    for n, k_max in LADDER:
        if n in args.rungs:
            rungs.append(run_rung(n, k_max))
            print(f"n={n} k_max={k_max}: {rungs[-1]['best_s']['total']:.3f} s", flush=True)
    doc = {
        "problem": {
            "alpha": ALPHA,
            "T": T,
            "mu": MU,
            "nonlinearity": {"kind": "power_sum", **POWERS},
            "solver": dataclasses.asdict(solver.SolverConfig()),
        },
        "provenance": provenance(ROOT, "ladder", solver.SolverConfig().seed, "example problem"),
        "rungs": rungs,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
