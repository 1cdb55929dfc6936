#!/usr/bin/env python3
"""Refinement study behind the identity-check thresholds.

Draws the probes exactly as `fracvar kernel-verify` does (the same
generator, seed and draw order) and measures, across grid doublings:
  * integration-by-parts pairing discrepancy (3 random smooth pairs),
  * left and right composition sup errors for probes with u(0) != 0,
  * endpoint error of the t^2 power rule.

The composition errors decay like h, so their constants (error / h)
set the KV_COMP_COEFF * h threshold in kernel_verify; the pairing
discrepancy decays like h^2 on these probes and sits far under its
KV_IBP_COEFF * h threshold.  The power-rule error decays like h^2 and
anchors the convergence-order row.

    PYTHONPATH=src python scripts/kernel_convergence.py --sizes 64 128
"""

import argparse

import numpy as np

from fracvar.frac_kernel import (
    FracOrder,
    Grid,
    GridFunction,
    caputo_left,
    caputo_right,
    euler_gamma,
    rl_left_integral,
    rl_right_integral,
)
from fracvar.harness import _random_smooth


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512, 1024, 2048])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'n':>6} {'h':>10} {'ibp':>12} {'ibp/h':>8} {'left':>12} {'left/h':>8} "
          f"{'right':>12} {'right/h':>8} {'t^2 rule':>12} {'rate':>6}")
    prev_rule = None
    for n in args.sizes:
        g = Grid(T=1.0, n=n)
        h = g.h
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2
        rng = np.random.default_rng(args.seed)

        ibp = 0.0
        for _ in range(3):
            f, _ = _random_smooth(rng, g, g.T)
            q, _ = _random_smooth(rng, g, g.T)
            for gam in (0.3, 0.5, 0.9):
                o = FracOrder(gam)
                lhs = float(w @ (rl_left_integral(GridFunction(g, f), o).values * q))
                rhs = float(w @ (rl_right_integral(GridFunction(g, q), o).values * f))
                ibp = max(ibp, abs(lhs - rhs))

        left = right = 0.0
        for _ in range(2):
            u, up = _random_smooth(rng, g, g.T)
            dgf = GridFunction(g, up)
            for gam in (0.6, 0.75, 0.9):
                rec = rl_left_integral(caputo_left(dgf, FracOrder.derivative(gam)), FracOrder(gam))
                left = max(left, float(np.max(np.abs(rec.values - (u - u[0])))))
                rec = rl_right_integral(caputo_right(dgf, FracOrder.derivative(gam)), FracOrder(gam))
                right = max(right, float(np.max(np.abs(rec.values - (u - u[-1])))))

        out = rl_left_integral(GridFunction(g, g.nodes**2), FracOrder(0.5))
        exact = euler_gamma(3.0) / euler_gamma(3.5) * g.nodes**2.5
        rule = abs(out.values[-1] - exact[-1])
        rate = np.log2(prev_rule / rule) if prev_rule else float("nan")
        prev_rule = rule

        print(f"{n:>6} {h:>10.3e} {ibp:>12.3e} {ibp / h:>8.3g} {left:>12.3e} {left / h:>8.3g} "
              f"{right:>12.3e} {right / h:>8.3g} {rule:>12.3e} {rate:>6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
