"""Command-line front end, sweeps, ray scans, and report emission.

Everything downstream of a solved problem lives here: the mu-sweep with
its computed verdicts, the ray scan probing unboundedness of the energy,
CSV/JSON emission with a gnuplot-friendly companion file, the operator
identity suite behind `fracvar kernel-verify`, and the argv-level entry
point.  Verdicts are always computed from the records, never assumed: a
failed verdict is a red report, not an exception.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import conditions as cond
from .codec import JsonCodec
from .errors import FracvarError, HypothesisError
from .frac_kernel import (
    Grid,
    GridFunction,
    caputo_left,
    caputo_right,
    check_order,
    euler_gamma,
    rl_left_integral,
    rl_right_integral,
)
from .problem import ProblemSpec
from .solver import SolutionRecord, _checked_mu, minimize
from .space import embedding_constant, unit_mode

__all__ = [
    "SweepReport",
    "RayScanReport",
    "run_sweep",
    "ray_scan",
    "emit_report",
    "kernel_verify",
    "cli_main",
    "main",
]

_SWEEP_SEED_STRIDE = 7919  # distinct per-point streams, reproducible from one seed
_NORM_DECAY_FRACTION = 0.1
_STRICT_TOL = 1e-10

# kernel-verify thresholds; coefficients fixed by the refinement study in
# scripts/kernel_convergence.py, which draws these same probes.  The
# composition probes (smooth u, u(0) != 0) converge at first order, hence
# a C*h threshold, with h = 1 / n the step in the probes' variable t / T,
# so every row reads the same at every T.  Over seeds 0-7 and n in
# [128, 2048] the worst constants are 5.53 (left) and 3.87 (right), 1.45x
# under KV_COMP_COEFF (at n = 1024, seed 7, measured/threshold is 0.69).
# The pairing error stays below 0.006 h there, far under KV_IBP_COEFF * h.
KV_POWER_TOL = 1e-12
KV_IBP_COEFF = 2.5
KV_COMP_COEFF = 8.0
KV_LIN_TOL = 1e-11
KV_ORDER_MIN = 1.5


@dataclass(frozen=True)
class SweepReport(JsonCodec):
    """Solved records over an increasing mu grid plus computed verdicts.

    negativity: every energy is negative.  monotonicity: energies
    strictly decrease as mu grows.  norm_decay: norms shrink toward zero
    as mu does, ending below a fixed fraction of the sublevel scale.
    trivial_datum flags a sweep whose every record is the zero element.
    """

    mu_values: tuple[float, ...]
    records: tuple[SolutionRecord, ...]
    monotonicity_verdict: bool
    negativity_verdict: bool
    norm_decay_verdict: bool
    trivial_datum: bool
    conditions: cond.ConditionReport


def run_sweep(
    problem: ProblemSpec, mu_min: float, mu_max: float, count: int
) -> SweepReport:
    """Solve at geometrically spaced mu and compute the sweep verdicts.

    The range must sit strictly inside (0, mu_star); anything else is a
    hypothesis error naming the admissible interval.  Per-point solver
    seeds are derived from the base seed with a fixed stride, so the
    whole sweep is a pure function of (problem, range, count).
    Geometric spacing concentrates points near small mu, where the
    norm-decay behavior lives.  Each point's restarts run in this process
    and in children forked for that point's minimize call alone.
    """
    if count < 4:
        raise ValueError(f"sweep needs count >= 4, got {count}")
    mu_min, mu_max = float(mu_min), float(mu_max)
    if not (0.0 < mu_min < mu_max):
        raise ValueError(f"need 0 < mu_min < mu_max, got [{mu_min}, {mu_max}]")

    report = cond.evaluate_conditions(problem.nonlinearity, problem.alpha, problem.T)
    if not mu_max < report.mu_star:
        raise HypothesisError(
            f"sweep range [{mu_min}, {mu_max}] exits the admissible interval "
            f"(0, {report.mu_star}); shrink mu_max below mu_star"
        )

    model, assembly = problem.build()
    gb = report.gamma_bar
    mus = np.geomspace(mu_min, mu_max, count)
    records = []
    for i, m in enumerate(mus):
        seed = problem.solver.seed + _SWEEP_SEED_STRIDE * i
        point = dataclasses.replace(
            problem, solver=dataclasses.replace(problem.solver, seed=seed)
        )
        records.append(minimize(point, float(m), model=model, assembly=assembly, gamma_bar=gb))

    energies = [r.energy for r in records]
    norms_a = [r.norm_alpha for r in records]
    negativity = all(e < 0.0 for e in energies)
    monotonic = all(b < a - _STRICT_TOL for a, b in zip(energies, energies[1:]))

    c = embedding_constant(problem.alpha, problem.T)
    decay_cut = _NORM_DECAY_FRACTION * gb * math.sqrt(records[0].r_radius) / c
    shrinking = all(a <= b + _STRICT_TOL for a, b in zip(norms_a, norms_a[1:]))
    norm_decay = shrinking and norms_a[0] < norms_a[-1] and norms_a[0] < decay_cut

    return SweepReport(
        mu_values=tuple(float(m) for m in mus),
        records=tuple(records),
        monotonicity_verdict=monotonic,
        negativity_verdict=negativity,
        norm_decay_verdict=norm_decay,
        trivial_datum=all(r.norm_alpha <= 1e-6 for r in records),
        conditions=report,
    )


@dataclass(frozen=True)
class RayScanReport(JsonCodec):
    """Energy along a ray tau -> J(tau u) with a tail growth fit.

    fitted_exponent is the log-log slope of |J| over the last three
    points, None when the fit is impossible (a zero or sign change in
    the tail).  unbounded_verdict records whether the scan is consistent
    with J -> -inf at the catalog's expected rate.
    """

    taus: tuple[float, ...]
    values: tuple[float, ...]
    fitted_exponent: float | None
    expected_exponent: float | None
    tail_negative: bool
    unbounded_verdict: bool


_EXPONENT_SLACK = 0.3


def ray_scan(problem: ProblemSpec, mu: float, count: int = 25) -> RayScanReport:
    """Evaluate J_mu along tau * (first basis mode) and fit the tail exponent.

    The count taus lie geometrically on [0.1, 1000]; the fit needs
    count >= 3.  The expected exponent is s for the two-power datum and
    q for the affine-power one; without a catalog expectation the
    verdict demands strictly superquadratic negative growth.
    """
    if count < 3:
        raise ValueError(f"ray scan needs count >= 3, got {count}")
    mu = _checked_mu(mu)
    _, assembly = problem.build()
    mode = unit_mode(problem.k_max, 1).coeffs
    taus = np.geomspace(0.1, 1.0e3, count)

    nl = problem.nonlinearity
    energy, _ = assembly.objective(mu, nl)
    vals = [energy(t * mode)[0] for t in taus]

    tail = np.array(vals[-3:])
    slope = None
    if np.all(np.abs(tail) > 0.0) and (np.all(tail > 0.0) or np.all(tail < 0.0)):
        slope = float(
            np.polyfit(np.log(taus[-3:]), np.log(np.abs(tail)), 1)[0]
        )
    tail_negative = bool(np.all(tail < 0.0))

    if nl.kind == "power_sum":
        expected = float(nl.params["s"])
    elif nl.kind == "affine_power":
        expected = float(nl.params["q"])
    else:
        expected = None

    floor = (expected - _EXPONENT_SLACK) if expected is not None else 2.0 + _EXPONENT_SLACK
    verdict = tail_negative and slope is not None and slope >= floor

    return RayScanReport(
        taus=tuple(float(t) for t in taus),
        values=tuple(float(v) for v in vals),
        fitted_exponent=slope,
        expected_exponent=expected,
        tail_negative=tail_negative,
        unbounded_verdict=verdict,
    )


def _fmt(x) -> str:
    # repr of a Python float is the shortest round-trip form; bit-stable
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


SWEEP_CSV_COLUMNS = (
    "mu",
    "norm_alpha",
    "norm_inf",
    "phi",
    "psi",
    "energy",
    "residual",
    "converged",
    "restarts_used",
)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _sweep_plot_data(report: SweepReport) -> str:
    # two gnuplot datasets: mu vs energy, then mu vs norm_alpha
    out = ["# mu energy"]
    for r in report.records:
        out.append(f"{_fmt(r.mu)} {_fmt(r.energy)}")
    out.extend(["", "", "# mu norm_alpha"])
    for r in report.records:
        out.append(f"{_fmt(r.mu)} {_fmt(r.norm_alpha)}")
    return "\n".join(out) + "\n"


def _body(report, format: str) -> str:
    """The CSV or JSON text of a sweep or ray-scan report."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")
    if isinstance(report, SweepReport):
        header = SWEEP_CSV_COLUMNS
        rows = ([getattr(r, col) for col in header] for r in report.records)
    elif isinstance(report, RayScanReport):
        header = ("tau", "energy")
        rows = zip(report.taus, report.values)
    else:
        raise ValueError(f"cannot emit report of type {type(report).__name__}")
    return report.json_str() + "\n" if format == "json" else _csv(header, rows)


def emit_report(report, out_path, format: str = "csv") -> list[str]:
    """Write a report to disk; returns the paths written.

    Sweep reports get the CSV or JSON body at out_path plus a companion
    {stem}.plot.dat with two datasets for external plotting.  Ray scans
    emit a two-column CSV or the JSON body.
    """
    body = _body(report, format)
    out = Path(out_path)
    out.write_text(body, encoding="utf-8")
    written = [str(out)]
    if isinstance(report, SweepReport):
        plot = out.with_suffix(".plot.dat")
        plot.write_text(_sweep_plot_data(report), encoding="utf-8")
        written.append(str(plot))
    return written


# --- operator identity suite ------------------------------------------------


def _random_smooth(rng: np.random.Generator, grid: Grid, T: float):
    """A smooth probe with its exact derivative: low trig modes + a bump.

    The probe is a function of s = t / T, so its values are the same at
    every T and only its derivative carries a 1 / T.
    """
    s = grid.nodes / T
    a = rng.uniform(-1.0, 1.0, 3)
    b = rng.uniform(-1.0, 1.0)
    c0 = rng.uniform(-1.0, 1.0)
    u = c0 + b * s * (1.0 - s)
    du = b * (1.0 - 2.0 * s) / T
    for m in (1, 2, 3):
        u = u + a[m - 1] * np.sin(m * math.pi * s)
        du = du + a[m - 1] * (m * math.pi / T) * np.cos(m * math.pi * s)
    return u, du


@dataclass(frozen=True)
class IdentityRow:
    name: str
    measured: float
    threshold: float
    at_least: bool = False  # measured >= threshold instead of <=

    @property
    def ok(self) -> bool:
        if self.at_least:
            return self.measured >= self.threshold
        return self.measured <= self.threshold


def kernel_verify(alpha: float, T: float, n: int, seed: int = 0) -> list[IdentityRow]:
    """The operator identity suite at one resolution.

    Power rules against closed forms, the integration-by-parts pairing,
    both composition identities, linearity, and an empirical convergence
    order on u = t^2.  Returns the measured rows; all ok means pass.
    Raises ValueError, before any work, for a T at which a closed form is
    not a finite, normal float.
    """
    grid, T = Grid(T=T, n=n), float(T)
    alpha = check_order(alpha, differentiation=True)
    powers = (0.3, 0.5, 0.9)
    try:
        lin_exact = [T ** (g + 1.0) / euler_gamma(g + 2.0) for g in powers]
        cap_exact = T ** (1.0 - alpha) / euler_gamma(2.0 - alpha)
        sq_exact = 2.0 * T**2.5 / euler_gamma(3.5)
        # the probes are O(1) at every T, so the closed forms bound what is
        # formed: sq_exact, about T**2.5, above the pairing, about T**1.9
        closed_forms = (*lin_exact, cap_exact, sq_exact)
        in_range = all(sys.float_info.min <= x < math.inf for x in closed_forms)
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError(f"kernel-verify at T={T}: closed forms out of float range; rescale T")
    t = grid.nodes
    # the step in the probes' own variable t / T: h-scaled thresholds read
    # the same at every T against measurements in the probes' units
    h = grid.h / T
    rng = np.random.default_rng(seed)
    rows = []

    # the piecewise-linear quadrature reproduces u(t) = t exactly
    u_lin = GridFunction(grid, t)
    err = 0.0
    for g, exact in zip(powers, lin_exact):
        got = rl_left_integral(u_lin, g).values[-1]
        err = max(err, abs(got - exact) / exact)
    rows.append(IdentityRow("left integral power rule", err, KV_POWER_TOL))

    ones = GridFunction(grid, np.ones(n + 1))
    got = caputo_left(ones, alpha).values[-1]
    rows.append(
        IdentityRow("caputo power rule", abs(got - cap_exact) / cap_exact, KV_POWER_TOL)
    )

    w = grid.weights
    worst = 0.0
    for _ in range(3):
        u, _ = _random_smooth(rng, grid, T)
        v, _ = _random_smooth(rng, grid, T)
        for g in (0.3, 0.5, 0.9):
            lhs = float(w @ (rl_left_integral(GridFunction(grid, u), g).values * v))
            rhs = float(w @ (rl_right_integral(GridFunction(grid, v), g).values * u))
            # the pairing integrates over [0, T] and I^g scales like T**g
            worst = max(worst, abs(lhs - rhs) / T ** (1.0 + g))
    rows.append(IdentityRow("integration by parts", worst, KV_IBP_COEFF * h))

    comp_tol = KV_COMP_COEFF * h
    worst_l = worst_r = 0.0
    for _ in range(2):
        u, du = _random_smooth(rng, grid, T)
        dgf = GridFunction(grid, du)
        for g in (0.6, 0.75, 0.9):
            left = rl_left_integral(caputo_left(dgf, g), g).values
            worst_l = max(worst_l, float(np.max(np.abs(left - (u - u[0])))))
            right = rl_right_integral(caputo_right(dgf, g), g).values
            worst_r = max(worst_r, float(np.max(np.abs(right - (u - u[-1])))))
    rows.append(IdentityRow("left composition", worst_l, comp_tol))
    rows.append(IdentityRow("right composition", worst_r, comp_tol))

    u, du = _random_smooth(rng, grid, T)
    v, dv = _random_smooth(rng, grid, T)
    a_c, b_c = 1.7, -0.3
    defect = 0.0
    # each defect in its operator's output units (T**0.5, T**-alpha): 1.0 at T = 1
    for op, f1, f2, scale in (
        (lambda x: rl_left_integral(x, 0.5).values, u, v, T**0.5),
        (lambda x: rl_right_integral(x, 0.5).values, u, v, T**0.5),
        (lambda x: caputo_left(x, alpha).values, du, dv, T**-alpha),
        (lambda x: caputo_right(x, alpha).values, du, dv, T**-alpha),
    ):
        mixed = op(GridFunction(grid, a_c * f1 + b_c * f2))
        split = a_c * op(GridFunction(grid, f1)) + b_c * op(GridFunction(grid, f2))
        defect = max(defect, float(np.max(np.abs(mixed - split))) / scale)
    rows.append(IdentityRow("linearity", defect, KV_LIN_TOL))

    errs = []
    sizes = (64, 128, 256, 512)
    for m in sizes:
        gi = Grid(T=T, n=m)
        got = rl_left_integral(GridFunction(gi, gi.nodes**2), 0.5).values[-1]
        errs.append(abs(got - sq_exact))
    slope = float(
        np.polyfit(np.log([T / m for m in sizes]), np.log(errs), 1)[0]
    )
    rows.append(IdentityRow("convergence order (t^2)", slope, KV_ORDER_MIN, at_least=True))

    return rows


def _print_identity_table(rows: list[IdentityRow], stream) -> None:
    width = max(len(r.name) for r in rows) + 2
    print(f"{'identity':<{width}}{'measured':>13}  {'threshold':>13}  result", file=stream)
    for r in rows:
        rel = ">=" if r.at_least else "<="
        print(
            f"{r.name:<{width}}{r.measured:>13.4e}  {rel} {r.threshold:>10.4e}  "
            f"{'pass' if r.ok else 'FAIL'}",
            file=stream,
        )


# --- CLI ---------------------------------------------------------------------


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the solver seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="Variational toolkit for a fractional two-point boundary value problem.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    kv = sub.add_parser("kernel-verify", help="run the operator identity suite")
    kv.add_argument("--alpha", type=float, default=0.75)
    kv.add_argument("--T", type=float, default=1.0)
    kv.add_argument("--n", type=int, default=512)
    kv.add_argument("--seed", type=int, default=0)

    co = sub.add_parser("conditions", help="admissibility report for a problem config")
    co.add_argument("--config", required=True)

    so = sub.add_parser("solve", help="minimize the energy at one mu")
    so.add_argument("--config", required=True)
    so.add_argument("--mu", type=float, required=True)
    so.add_argument("--out", default=None)
    _add_seed(so)

    sw = sub.add_parser("sweep", help="solve over a geometric mu grid")
    sw.add_argument("--config", required=True)
    sw.add_argument("--mu-min", type=float, required=True)
    sw.add_argument("--mu-max", type=float, required=True)
    sw.add_argument("--count", type=int, default=8)
    sw.add_argument("--out", default=None)
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_seed(sw)

    ry = sub.add_parser("ray-scan", help="energy along a ray in the first mode")
    ry.add_argument("--config", required=True)
    ry.add_argument("--mu", type=float, required=True)
    ry.add_argument("--count", type=int, default=25)
    ry.add_argument("--out", default=None)
    ry.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _load_problem(args) -> ProblemSpec:
    problem = ProblemSpec.load(args.config)
    if args.seed is not None:
        problem = dataclasses.replace(
            problem, solver=dataclasses.replace(problem.solver, seed=args.seed)
        )
    return problem


def _cmd_kernel_verify(args) -> int:
    rows = kernel_verify(args.alpha, args.T, args.n, seed=args.seed)
    _print_identity_table(rows, sys.stdout)
    return 0 if all(r.ok for r in rows) else 1


def _cmd_conditions(args) -> int:
    problem = ProblemSpec.load(args.config)
    report = cond.evaluate_conditions(problem.nonlinearity, problem.alpha, problem.T)
    print(report.json_str())
    return 0


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    rec = minimize(problem, args.mu)
    if args.out:
        Path(args.out).write_text(rec.json_str() + "\n", encoding="utf-8")
        print(
            f"mu={_fmt(rec.mu)} energy={_fmt(rec.energy)} "
            f"norm_alpha={_fmt(rec.norm_alpha)} converged={_fmt(rec.converged)} "
            f"-> {args.out}"
        )
    else:
        print(rec.json_str())
    return 0


def _emit(report, args) -> int:
    if args.out:
        for p in emit_report(report, args.out, args.format):
            print(f"wrote {p}")
    else:
        sys.stdout.write(_body(report, args.format))
    return 0


def _cmd_sweep(args) -> int:
    problem = _load_problem(args)
    return _emit(run_sweep(problem, args.mu_min, args.mu_max, args.count), args)


def _cmd_ray_scan(args) -> int:
    problem = ProblemSpec.load(args.config)
    return _emit(ray_scan(problem, args.mu, args.count), args)


_COMMANDS = {
    "kernel-verify": _cmd_kernel_verify,
    "conditions": _cmd_conditions,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "ray-scan": _cmd_ray_scan,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"fracvar: i/o error: {exc}", file=sys.stderr)
        return 2
    except (FracvarError, ValueError) as exc:
        print(f"fracvar: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
