"""Acceptance gate: twelve end-to-end checks, one printed verdict line
each.  Check 04 pins the closed-form values of kappa_alpha and
c(alpha, T) at (0.75, 1), evaluated in 30-digit arithmetic, and asserts
that the pinned pair itself satisfies kappa = c^2 T / |cos(pi alpha)|;
its assertion message reports the measured, pinned and reference
values."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fracvar.conditions import (
    evaluate_conditions,
    example_closed_forms,
    kappa_alpha,
    sup_ratio,
)
from fracvar.energy import (
    affine_power,
    build_assembly,
    power_sum,
    sqrt_plus,
    table_datum,
)
from fracvar.frac_kernel import (
    Grid,
    GridFunction,
    caputo_left,
    euler_gamma,
    rl_left_integral,
    rl_right_integral,
)
from fracvar.harness import ray_scan, run_sweep
from fracvar.problem import ProblemSpec
from fracvar.solver import minimize, residual_tolerance, weak_residual_values
from fracvar.space import (
    SpaceConfig,
    SpectralElement,
    audit_embeddings,
    build_space,
    embedding_constant,
)

from oracles import embedding_constant_ref, fd_newton_bvp, kappa_ref
from probes import decayed_coeffs, smooth_with_deriv


def _verdict(capsys, idx: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {idx:02d} {name}: {detail}")


@pytest.fixture(scope="module")
def big_problem():
    return ProblemSpec(alpha=0.75, T=1.0, n=1024, k_max=64, nonlinearity=power_sum(1.5, 3.0))


@pytest.fixture(scope="module")
def big_build(big_problem):
    return big_problem.build()


@pytest.fixture(scope="module")
def big_sol(big_problem):
    return minimize(big_problem, 0.25)


def test_01_power_rules_and_halving(capsys):
    errs = {}
    for n in (4096, 8192):
        g = Grid(T=1.0, n=n)
        t = g.nodes
        left = rl_left_integral(GridFunction(g, t.copy()), 0.5)
        exact_i = 1.0 / euler_gamma(2.5)
        cap = caputo_left(GridFunction(g, np.ones(n + 1)), 0.75)
        exact_c = 1.0 / euler_gamma(1.25)
        errs[n] = (
            abs(left.values[-1] - exact_i) / exact_i,
            abs(cap.values[-1] - exact_c) / exact_c,
        )
    worst = max(max(pair) for pair in errs.values())
    # the data is piecewise linear, so both rules sit at round-off; the
    # halving clause therefore carries an absolute floor
    halved = all(errs[8192][j] <= max(0.6 * errs[4096][j], 1e-12) for j in range(2))
    ok = worst <= 1e-3 and halved
    _verdict(capsys, 1, "power rules", ok, f"worst rel err {worst:.2e}, halving {halved}")
    assert worst <= 1e-3
    assert halved


def test_02_integration_by_parts_pairing(capsys):
    worsts = {}
    for n in (512, 1024):
        g = Grid(T=1.0, n=n)
        h = g.T / n
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10):
            f, _ = smooth_with_deriv(rng, g)
            q, _ = smooth_with_deriv(rng, g)
            for gam in (0.3, 0.5, 0.9):
                lhs = np.sum(w * rl_left_integral(GridFunction(g, f), gam).values * q)
                rhs = np.sum(w * f * rl_right_integral(GridFunction(g, q), gam).values)
                worst = max(worst, abs(lhs - rhs))
        worsts[n] = worst
    ok = worsts[512] <= 5e-3 and worsts[1024] < worsts[512]
    _verdict(capsys, 2, "integration by parts", ok,
             f"n=512 worst {worsts[512]:.2e}, n=1024 worst {worsts[1024]:.2e}")
    assert worsts[512] <= 5e-3
    assert worsts[1024] < worsts[512]


def test_03_composition_recovers_increment(capsys):
    g = Grid(T=1.0, n=512)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        u, up = smooth_with_deriv(rng, g)
        for gam in (0.6, 0.75, 0.9):
            cap = caputo_left(GridFunction(g, up), gam)
            rec = rl_left_integral(cap, gam)
            worst = max(worst, float(np.max(np.abs(rec.values - (u - u[0])))))
    ok = worst <= 1e-2
    _verdict(capsys, 3, "composition identity", ok, f"worst sup error {worst:.2e}")
    assert worst <= 1e-2


def test_04_reference_constants(capsys):
    rng = np.random.default_rng(44)
    for _ in range(50):
        a = float(rng.uniform(0.55, 1.0))
        T = float(rng.uniform(0.25, 4.0))
        c = embedding_constant(a, T)
        k = kappa_alpha(a, T)
        assert abs(k - c * c * T / abs(math.cos(math.pi * a))) <= 1e-12 * k

    # closed forms T^(a-1/2) / (Gamma(a) sqrt(2a-1)) and c^2 T / |cos(pi a)|
    # at (a, T) = (0.75, 1), evaluated in 30-digit arithmetic
    pin_kappa, pin_c = 1.8835510808874978, 1.1540674772329393
    ref_kappa, ref_c = kappa_ref(0.75, 1.0), embedding_constant_ref(0.75, 1.0)
    assert abs(pin_kappa - pin_c * pin_c * 1.0 / abs(math.cos(math.pi * 0.75))) <= 1e-12 * pin_kappa
    assert pin_kappa == pytest.approx(ref_kappa, rel=1e-12)
    assert pin_c == pytest.approx(ref_c, rel=1e-12)

    kappa = kappa_alpha(0.75, 1.0)
    c = embedding_constant(0.75, 1.0)
    ok = abs(kappa - pin_kappa) <= 1e-6 and abs(c - pin_c) <= 1e-6
    _verdict(capsys, 4, "reference constants", ok,
             f"kappa {kappa:.10f} vs pinned {pin_kappa}, c {c:.10f} vs pinned {pin_c}")
    assert ok, (
        f"kappa_alpha(0.75, 1) = {kappa!r} (pinned {pin_kappa!r}, 30-digit reference "
        f"{ref_kappa!r}, off by {abs(kappa - pin_kappa):.2e}); "
        f"embedding_constant(0.75, 1) = {c!r} (pinned {pin_c!r}, 30-digit reference "
        f"{ref_c!r}, off by {abs(c - pin_c):.2e}); tolerance 1e-6"
    )


def test_05_inequality_audits(capsys):
    # the exact worst case over every element, so no inequality may exceed 1 + roundoff
    worst = {}
    for a, T in ((0.6, 1.0), (0.75, 1.0), (0.9, 2.0), (1.0, 1.0)):
        model = build_space(SpaceConfig(alpha=a, T=T, n=2048, k_max=16))
        rep = audit_embeddings(model)
        worst[(a, T)] = max(rep.tightest_ratio_a, rep.tightest_ratio_b, rep.tightest_ratio_c)
    ok = all(v <= 1.0 + 1e-12 for v in worst.values())
    _verdict(capsys, 5, "norm inequality audits", ok,
             "largest ratio by config " + ", ".join(f"{k}: {v:.4f}" for k, v in sorted(worst.items())))
    assert ok, worst


def test_06_gradient_check(capsys, assembly_mid):
    cat = [
        power_sum(1.5, 3.0),
        affine_power(4.0),
        sqrt_plus(),
        table_datum([-2.0, 0.0, 2.0], [-4.0, 0.0, 4.0]),
    ]
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(50):
        nl = cat[trial % len(cat)]
        c = decayed_coeffs(rng, 32, amp=0.3)
        mu = float(rng.uniform(0.0, 1.0))
        energy, gradient = assembly_mid.objective(mu, nl)
        gvec = gradient(c, c @ assembly_mid.space.basis)
        eps = 1e-6
        scale = max(1.0, float(np.max(np.abs(gvec))))
        for k in range(0, 32, 7):
            e = np.zeros(32)
            e[k] = eps
            fd = (energy(c + e)[0] - energy(c - e)[0]) / (2 * eps)
            worst = max(worst, abs(fd - gvec[k]) / scale)
    ok = worst <= 1e-5
    _verdict(capsys, 6, "gradient check", ok, f"worst relative error {worst:.2e}")
    assert worst <= 1e-5


def test_07_two_power_closed_forms(capsys):
    forms = example_closed_forms(1.5, 3.0)
    gb_err = abs(forms.gamma_bar - 1.0)
    mu_err = abs(forms.mu_bound(0.75, 1.0) - 1.0 / kappa_alpha(0.75, 1.0))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        r = float(rng.uniform(1.05, 1.95))
        s = float(rng.uniform(2.05, 6.0))
        f = example_closed_forms(r, s)
        mu_closed = f.mu_bound(0.75, 1.0)
        mu_generic = evaluate_conditions(power_sum(r, s), 0.75, 1.0).mu_star
        worst = max(worst, abs(mu_closed - mu_generic) / mu_closed)
        gb = sup_ratio(power_sum(r, s)).gamma_bar
        worst = max(worst, abs(gb - f.gamma_bar) / f.gamma_bar)
    ok = gb_err <= 1e-6 and mu_err <= 1e-6 and worst <= 1e-6
    _verdict(capsys, 7, "closed forms vs optimizer", ok,
             f"gamma_bar err {gb_err:.1e}, mu err {mu_err:.1e}, sweep worst {worst:.2e}")
    assert gb_err <= 1e-6
    assert mu_err <= 1e-6
    assert worst <= 1e-6


def test_08_order_one_oracle(capsys):
    spec = ProblemSpec(alpha=1.0, T=1.0, n=1024, k_max=64, nonlinearity=power_sum(1.5, 3.0))
    sol = minimize(spec, 0.25)
    _, w = fd_newton_bvp(power_sum(1.5, 3.0).f, 0.25, 1024)
    dev = float(np.max(np.abs(np.asarray(sol.node_values) - w)))
    ok = dev <= 1e-3
    _verdict(capsys, 8, "order-one oracle", ok, f"sup deviation {dev:.2e}")
    assert dev <= 1e-3


def test_09_fractional_solve_certified(capsys, big_problem, big_build, big_sol):
    model, _ = big_build
    sol = big_sol
    tol = residual_tolerance(0.75, 1024)
    c = sol.coeffs.coeffs.copy()
    c[1] += 0.01
    vals = weak_residual_values(c, 0.25, big_problem.nonlinearity, model)
    interior = vals[3:-3]
    perturbed = float(np.max(np.abs(interior - interior.mean())))
    ratio = perturbed / sol.residual
    ok = (
        sol.converged
        and sol.energy < 0.0
        and sol.norm_inf <= 1.0 + 1e-6
        and sol.phi < 0.5309120
        and sol.residual < tol
        and ratio > 10.0
    )
    _verdict(capsys, 9, "certified fractional solve", ok,
             f"J {sol.energy:.2e}, residual {sol.residual:.2e} (tol {tol:.2e}), "
             f"perturbed/solution ratio {ratio:.0f}")
    assert sol.converged
    assert sol.energy < 0.0
    assert sol.norm_inf <= 1.0 + 1e-6
    assert sol.phi < 0.5309120
    assert sol.residual < tol
    assert ratio > 10.0


def test_10_sweep_verdicts(capsys, big_problem):
    rep = run_sweep(big_problem, 0.05, 0.5, 8)
    energies = [r.energy for r in rep.records]
    norms = [r.norm_alpha for r in rep.records]
    decreasing = all(b < a - 1e-10 * abs(a) for a, b in zip(energies, energies[1:]))
    # records run with mu increasing; toward mu -> 0 the norm decays, so
    # the terminal value of that traversal is norms[0]
    ratio = norms[0] / norms[-1]
    ok = (
        rep.monotonicity_verdict
        and rep.negativity_verdict
        and rep.norm_decay_verdict
        and all(e < 0.0 for e in energies)
        and decreasing
        and ratio < 0.25
    )
    _verdict(capsys, 10, "sweep verdicts", ok,
             f"all energies negative {all(e < 0 for e in energies)}, "
             f"terminal norm ratio {ratio:.3f}")
    assert rep.monotonicity_verdict
    assert rep.negativity_verdict
    assert rep.norm_decay_verdict
    assert decreasing
    assert ratio < 0.25


def test_11_superquadratic_ray(capsys):
    spec = ProblemSpec(alpha=0.75, T=1.0, n=512, k_max=32, nonlinearity=affine_power(4.0))
    rs = ray_scan(spec, 0.1)
    j = np.asarray(rs.values)
    tau = np.asarray(rs.taus)
    deep = bool(np.any(j[tau <= 1e2] < -1e3))
    fit_ok = abs(rs.fitted_exponent - 4.0) <= 0.3
    ok = deep and fit_ok
    _verdict(capsys, 11, "superquadratic ray", ok,
             f"fitted exponent {rs.fitted_exponent:.3f}, deep descent {deep}")
    assert deep
    assert fit_ok


def test_12_byte_identical_sweeps(capsys, tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(
        json.dumps(
            {
                "alpha": 0.75,
                "T": 1.0,
                "n": 256,
                "k_max": 16,
                "nonlinearity": {"kind": "power_sum", "r": 1.5, "s": 3.0},
            }
        )
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "fracvar",
                "sweep",
                "--config",
                str(cfg),
                "--mu-min",
                "0.05",
                "--mu-max",
                "0.5",
                "--count",
                "4",
                "--seed",
                "0",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _verdict(capsys, 12, "deterministic sweep", ok, f"{len(outs[0])} bytes, identical {ok}")
    assert ok
