"""Measurement loop, metrics and provenance for one benchmark run.

A run repeats passes of one workload, one call at a time (a closed loop
with a single caller), until its time is spent; every metric is a
median over passes.  An untraced run (trace=0) reports the end-to-end
metrics.  An untraced admit run also times cold command-line solves,
spread over the run and reported in the details only: their median
moved by 12-29% (interquartile share) between runs of five seeds on
the reference machine, as much as the largest bound allowed.  A traced
run (trace=1) alternates untraced and traced passes on the same inputs,
reports the per-layer metrics from the traced ones and the median
difference of the two wall times in a pair as the tracing overhead, and
requires both passes of a pair to produce identical result bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np

from fracvar.solver import SolverConfig

from run import BLAS_THREAD_VARS
import tracing as tr
from tracing import Tracer, clock
from workloads import INPUTS, PASSES, ColdSolves, PassResult, Sizes, compare

CLI_RUNS = 5


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(tracer: Tracer, res: PassResult) -> dict:
    """Per-layer numbers of one traced pass."""
    cands = [c for rec in res.records for c in rec.candidates]
    iters = [c["iters"] for c in cands]
    total_iters = sum(iters)
    max_iters = SolverConfig().max_iters  # no workload overrides it

    def per_iter(label: str) -> float:
        return tracer.counts[(tr.MINIMIZE, label)] / total_iters if total_iters else 0.0

    return {
        "frac_kernel.calls": tracer.calls(tr.KERNEL),
        "frac_kernel.s": tracer.total_s(tr.KERNEL),
        "frac_kernel.samples": tracer.counts[(tr.KERNEL, "samples")],
        "space.build_s": tracer.total_s(tr.SPACE_BUILD),
        "space.self_s": tracer.self_s(tr.SPACE_BUILD),
        "energy.assembly_s": tracer.total_s(tr.ASSEMBLY),
        "solver.minimize_s": tracer.total_s(tr.MINIMIZE),
        "solver.restarts": len(cands),
        "solver.iters": total_iters,
        "solver.iters_max": max(iters, default=0),
        "solver.max_iters_hits": sum(i >= max_iters for i in iters),
        "solver.converged_ratio": (
            sum(c["converged"] for c in cands) / len(cands) if cands else 0.0
        ),
        "solver.F_calls_per_iter": per_iter("F_calls"),
        "solver.f_calls_per_iter": per_iter("f_calls"),
        "solver.weak_residual_s": tracer.total_s(tr.WEAK_RESIDUAL),
        "solver.certify_s": tracer.total_s(tr.CERTIFY),
        "conditions.calls": tracer.calls(tr.CONDITIONS),
        "conditions.evaluate_s": tracer.total_s(tr.CONDITIONS),
        "conditions.F_points": tracer.counts[(tr.CONDITIONS, "F_points")],
        "harness.run_sweep_s": tracer.total_s(tr.RUN_SWEEP),
        "harness.self_s": tracer.self_s("harness."),
        "harness.kernel_verify_s": tracer.total_s(tr.KERNEL_VERIFY),
        "problem.load_s": tracer.total_s(tr.LOAD),
        "problem.build_s": tracer.total_s(tr.BUILD),
    }


def provenance(root: Path, workload: str, seed: int, inputs: str) -> dict:
    revision = None
    if (root / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            revision = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "fracvar").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
    }


def result_line(metrics: dict, summary: dict, section: list) -> dict:
    """The run's last output line: summary plus each metric of section with its unit."""
    units = {m["name"]: m["unit"] for m in section}
    if set(metrics) != set(units):
        raise ValueError(f"measured metrics {sorted(metrics)} differ from {sorted(units)}")
    return {**summary, "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    refs: dict,
    root: Path,
    sizes: Sizes = Sizes(),
    cli_runs: int = CLI_RUNS,
) -> tuple[dict, dict]:
    """Run one workload; returns (metrics by name, details for the report)."""
    inputs = INPUTS[workload](seed, sizes)
    run_pass = PASSES[workload]
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    problems: list[str] = []

    # cold command-line solves ride along with untraced admit runs only
    cold_solves = workload == "admit" and not trace
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with ColdSolves(root, env) if cold_solves else contextlib.nullcontext() as cold:
        start = clock()
        last = 0.0  # time of the previous loop step
        # stop before a step that would end past the budget, so runs end on time
        while not untraced or clock() - start + last <= seconds:
            t_step = clock()
            key, inp = next(inputs)
            if not trace:
                untraced.append(run_pass(key, inp, sizes))
            else:
                # alternate which side goes first so neither always runs warm
                for traced_side in (len(untraced) % 2 == 1, len(untraced) % 2 == 0):
                    if traced_side:
                        tracer = Tracer()
                        with tracer.installed():
                            traced.append(run_pass(key, inp, sizes, tracer))
                        layers.append(layer_metrics(tracer, traced[-1]))
                    else:
                        untraced.append(run_pass(key, inp, sizes))
                if traced[-1].digest != untraced[-1].digest:
                    problems.append(f"{key}: traced result bytes differ from untraced")
            # cold solves spread over the run, so they sample the same
            # stretch of machine time as the passes
            share = min(1.0, (clock() - start) / seconds) if seconds > 0 else 1.0
            while cold is not None and cold.res.attempted < cli_runs * share:
                cold.run_one()
            last = clock() - t_step
        while cold is not None and cold.res.attempted < cli_runs:
            cold.run_one()

    if workload != "admit" and len({p.digest for p in untraced}) > 1:
        problems.append(f"{key}: repeated passes on the same input gave different results")

    checked = untraced + traced + ([cold.res] if cold else [])
    compared = mismatched = 0
    for p in checked:
        n, bad = compare(p.outputs, refs)
        compared += n
        mismatched += len(bad)
        problems.extend(b for b in bad if b not in problems)
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    solves = sum(p.solves for p in checked)
    certified = sum(p.certified for p in checked)

    if trace:
        metrics = {
            name: _median([lm[name] for lm in layers]) for name in layers[0]
        }
        # paired differences: the machine's speed drifts more between
        # pairs than between the two passes of one pair
        metrics["trace.overhead_s"] = _median(
            [t.wall_s - u.wall_s for u, t in zip(untraced, traced)]
        )
    else:
        with_items = [p for p in untraced if p.item_s]
        metrics = {
            "setup_s": _median([p.setup_s for p in untraced]),
            "wall_s": _median([p.wall_s for p in untraced]),
            "items_per_s": _median([len(p.item_s) / p.wall_s for p in untraced]),
            "item_s.p50": _median([_median(p.item_s) for p in with_items]),
            "item_s.max": _median([max(p.item_s) for p in with_items]),
            "certified_frac": certified / solves if solves else 0.0,
            "ref_match_frac": (compared - mismatched) / compared if compared else 0.0,
        }

    details = {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(root, workload, seed, key),
        "samples": {
            "passes": len(untraced),
            "traced_passes": len(traced),
            "items": sum(len(p.item_s) for p in untraced),
            "cli_runs": len(cold.res.item_s) if cold else 0,
            "outputs_compared": compared,
        },
        "failed_frac": failed / attempted if attempted else 1.0,
        "cli_cold_s": _median(cold.res.item_s) if cold else None,
        "certified": [certified, solves],
        "problems": problems,
        "pass_wall_s": [p.wall_s for p in untraced],
        "pass_setup_s": [p.setup_s for p in untraced],
        "iters_per_restart": [
            [c["iters"] for c in rec.candidates] for rec in untraced[0].records
        ],
        "summary": {
            "correct": not problems and failed == 0 and certified == solves and attempted > 0,
            "attempted": attempted,
            "failed": failed,
        },
    }
    return metrics, details
