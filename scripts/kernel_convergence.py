#!/usr/bin/env python3
"""Refinement study behind the identity-check thresholds.

Reads `kernel_verify`'s own rows (alpha 0.75, T 1) at each size, so the
probes are exactly those of `fracvar kernel-verify`, and prints across
grid refinements:
  * integration-by-parts pairing discrepancy (3 random smooth pairs),
  * left and right composition sup errors for probes with u(0) != 0,
  * endpoint error of the t^2 power rule, with its observed order.

The composition errors decay like h, so their constants (error / h)
set the KV_COMP_COEFF * h threshold in kernel_verify; the pairing
discrepancy decays like h^2 on these probes and sits far under its
KV_IBP_COEFF * h threshold.  The power-rule error decays like h^2 and
anchors the convergence-order row.

    PYTHONPATH=src python scripts/kernel_convergence.py --sizes 64 128
"""

import argparse
import math

from fracvar.frac_kernel import Grid, GridFunction, euler_gamma, rl_left_integral
from fracvar.harness import kernel_verify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512, 1024, 2048])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'n':>6} {'h':>10} {'ibp':>12} {'ibp/h':>8} {'left':>12} {'left/h':>8} "
          f"{'right':>12} {'right/h':>8} {'t^2 rule':>12} {'rate':>6}")
    prev = None
    for n in args.sizes:
        g = Grid(T=1.0, n=n)
        h = g.h
        rows = {r.name: r.measured for r in kernel_verify(0.75, g.T, n, args.seed)}
        ibp = rows["integration by parts"]
        left = rows["left composition"]
        right = rows["right composition"]

        out = rl_left_integral(GridFunction(g, g.nodes**2), 0.5)
        rule = abs(out.values[-1] - euler_gamma(3.0) / euler_gamma(3.5) * g.T**2.5)
        # observed order over the step from the previous size, whatever its ratio
        rate = math.log(prev[1] / rule) / math.log(n / prev[0]) if prev else float("nan")
        prev = (n, rule)

        print(f"{n:>6} {h:>10.3e} {ibp:>12.3e} {ibp / h:>8.3g} {left:>12.3e} {left / h:>8.3g} "
              f"{right:>12.3e} {right / h:>8.3g} {rule:>12.3e} {rate:>6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
