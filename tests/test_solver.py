"""Minimizer: sublevel geometry, descent output invariants, the
order-one oracle comparison, and the weak residual certificate."""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from fracvar import solver
from fracvar.conditions import evaluate_conditions, kappa_alpha
from fracvar.energy import (
    Nonlinearity,
    affine_power,
    power_sum,
    sqrt_plus,
    table_datum,
    zero_datum,
)
from fracvar.errors import HypothesisError
from fracvar.frac_kernel import cumulative_trapezoid
from fracvar.harness import ray_scan
from fracvar.problem import ProblemSpec
from fracvar.solver import (
    SolverConfig,
    _descend,
    certify,
    minimize,
    residual_tolerance,
    sublevel_radius,
    weak_residual,
    weak_residual_values,
)
from fracvar.space import SpectralElement, build_space, norms, synthesize

from oracles import abel_left_ref, fd_newton_bvp
from probes import decayed_coeffs


@pytest.fixture(scope="module")
def sol_mid(problem_mid):
    return minimize(problem_mid, 0.25)


@pytest.fixture(scope="module")
def classical_setup(nl_two_power):
    """Order-one problem at the resolution the oracle comparison needs."""
    spec = ProblemSpec(alpha=1.0, T=1.0, n=1024, k_max=64, nonlinearity=nl_two_power)
    sol = minimize(spec, 0.25)
    model, assembly = spec.build()
    return spec, sol, model, assembly


# ------------------------------------------------------ sublevel geometry


def test_sublevel_radius_frozen_value():
    assert sublevel_radius(1.0, 0.75, 1.0) == pytest.approx(0.5309120682454849, rel=1e-12)


def test_sublevel_radius_identity():
    # r = |cos(pi a)| gamma_bar^2 / c^2, equivalently T gamma_bar^2 / kappa
    rng = np.random.default_rng(13)
    for _ in range(50):
        gb = float(rng.uniform(0.1, 5.0))
        a = float(rng.uniform(0.55, 1.0))
        T = float(rng.uniform(0.5, 3.0))
        r = sublevel_radius(gb, a, T)
        assert abs(r - T * gb * gb / kappa_alpha(a, T)) <= 1e-12 * r


def test_sublevel_implies_sup_norm_bound(model_mid, assembly_mid):
    # Phi(u) < r forces |u|_inf < gamma_bar; exercised just inside r
    gb = 1.0
    r = sublevel_radius(gb, 0.75, 1.0)
    rng = np.random.default_rng(14)
    for _ in range(100):
        c = decayed_coeffs(rng, 32, amp=float(rng.uniform(0.1, 2.0)))
        phi = assembly_mid.phi(c)
        scaled = SpectralElement(c * math.sqrt(0.999 * r / phi))
        assert assembly_mid.phi(scaled.coeffs) < r
        assert norms(scaled, model_mid).norm_inf < gb


# ------------------------------------------------------- minimize output


def test_minimize_record_invariants(problem_mid, sol_mid):
    sol = sol_mid
    assert sol.converged
    assert sol.nontrivial
    assert sol.energy < 0.0
    assert sol.norm_alpha > 1e-6
    assert abs(sol.energy - (sol.phi - 0.25 * sol.psi)) <= 1e-12 * (1.0 + abs(sol.energy))
    assert sol.residual <= residual_tolerance(0.75, 512)
    assert sol.phi < sol.r_radius
    assert sol.norm_inf < sol.gamma_bar
    assert sol.mu == 0.25


def test_minimize_node_values_shape(problem_mid, sol_mid):
    vals = np.asarray(sol_mid.node_values)
    assert vals.shape == (513,)
    assert vals[0] == 0.0
    assert vals[-1] == 0.0
    model = build_space(problem_mid.space_config)
    direct = synthesize(sol_mid.coeffs, model).values
    assert np.max(np.abs(vals - direct)) < 1e-12


def test_minimize_candidates_cover_restarts(sol_mid):
    cands = sol_mid.candidates
    assert len(cands) >= 1
    assert min(c["energy"] for c in cands) == pytest.approx(sol_mid.energy, abs=1e-15)
    assert any(c["converged"] for c in cands)


def test_minimize_is_deterministic(problem_mid):
    a = minimize(problem_mid, 0.1)
    b = minimize(problem_mid, 0.1)
    assert np.array_equal(a.coeffs.coeffs, b.coeffs.coeffs)
    assert a.energy == b.energy


def test_minimize_at_mu_zero_returns_zero(problem_mid):
    sol = minimize(problem_mid, 0.0)
    assert sol.norm_alpha == 0.0
    assert sol.energy == 0.0
    assert sol.residual == 0.0
    assert sol.converged
    assert not sol.nontrivial


def test_minimize_rejects_negative_mu(problem_mid):
    with pytest.raises(ValueError, match="nonnegative"):
        minimize(problem_mid, -0.1)


# mu = 100 puts the signed datum's minimizer away from zero (mu = 0.25 gives the zero record)
@pytest.mark.parametrize("config, mu", [("example.json", 0.25), ("signed_table.json", 100.0)])
def test_record_and_ray_scan_read_the_assembly(config, mu):
    # each energy number has one formula: the record's phi, psi and energy and
    # the ray scan's values are the assembly's and the objective's, bit for bit
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / config
    problem = ProblemSpec.from_config(json.loads(path.read_text()))
    model, assembly = problem.build()
    nl = problem.nonlinearity
    rec = minimize(problem, mu, model=model, assembly=assembly)
    assert rec.nontrivial
    c = rec.coeffs.coeffs
    energy, _ = assembly.objective(mu, nl)
    J, synth = energy(c)
    assert rec.phi == assembly.phi(c)
    assert rec.psi == assembly.psi(synth, nl)
    assert rec.energy == J
    scan = ray_scan(problem, mu, count=7)
    e1 = np.eye(problem.k_max)[0]
    assert scan.values == tuple(energy(t * e1)[0] for t in scan.taus)


def test_solution_is_a_local_minimum(problem_mid, sol_mid, assembly_mid):
    # J must not drop by more than the stationarity budget along random rays
    energy, _ = assembly_mid.objective(0.25, problem_mid.nonlinearity)
    J0 = energy(sol_mid.coeffs.coeffs)[0]
    rng = np.random.default_rng(15)
    delta = 1e-4
    for _ in range(20):
        v = rng.standard_normal(32)
        v /= np.linalg.norm(v)
        J1 = energy(sol_mid.coeffs.coeffs + delta * v)[0]
        assert J1 >= J0 - 1e-8


# ------------------------------------------------- descent against an oracle


def _descend_oracle(x0, mu, nl, assembly, cap, cfg, t0):
    """Reference descent that recomputes each synthesis and Phi at every use.

    Returns (x, J, grad_norm, iters) of the same projected BB iteration
    as solver._descend, whose reuse of those quantities must not move a
    single bit.
    """
    model = assembly.space
    Ms = assembly.symmetric
    w = model.weights
    B = model.basis

    def quad(x):
        return float(x @ Ms @ x)

    def Jval(x):
        synth = x @ B
        return quad(x) - mu * float(w @ np.asarray(nl.F(synth), dtype=float))

    def grad(x):
        synth = x @ B
        fv = np.asarray(nl.f(synth), dtype=float)
        return 2.0 * (Ms @ x) - mu * (B @ (w * fv))

    def project(x):
        p = quad(x)
        if p >= cap and p > 0.0:
            return x * math.sqrt(cap / p)
        return x

    x = project(x0.copy())
    Jx = Jval(x)
    g = grad(x)
    x_prev = g_prev = None
    it = 0
    for it in range(1, cfg.max_iters + 1):
        gn = float(np.linalg.norm(g))
        if gn <= cfg.grad_tol and quad(x) < cap:
            break
        if x_prev is not None:
            dx = x - x_prev
            dg = g - g_prev
            denom = float(dx @ dg)
            t = float(dx @ dx) / denom if denom > 0.0 else t0
            t = min(max(t, 1e-14), 1e6 * t0)
        else:
            t = t0
        accepted = False
        while t > 1e-18 * t0:
            v = project(x - t * g)
            decrease = float(g @ (x - v))
            if decrease > 0.0:
                Jv = Jval(v)
                if Jv <= Jx - cfg.armijo_c * decrease:
                    accepted = True
                    break
            t *= cfg.backtrack_factor
        if not accepted:
            break
        x_prev, g_prev = x, g
        x, Jx = v, Jv
        g = grad(x)
    return x, Jx, float(np.linalg.norm(g)), it, grad(x)


_ORACLE_DATA = {
    "power_sum": lambda: power_sum(1.5, 3.0),
    "affine_power": lambda: affine_power(3.0),
    "sqrt_plus": sqrt_plus,
    "table_signed": lambda: table_datum([-3.0, -1.0, 0.0, 2.0], [1.5, -2.0, 0.0, 1.0]),
    "zero": zero_datum,
}


def _descent_setup(assembly, start):
    cap = SolverConfig().sublevel_margin * sublevel_radius(1.0, 0.75, 1.0)
    Ms = assembly.symmetric
    t0 = 1.0 / float(np.linalg.eigvalsh(Ms + Ms.T).max())
    k = assembly.space.k_max
    rng = np.random.default_rng(21)
    if start == "zero":
        x0 = np.zeros(k)
    elif start == "small":
        x0 = decayed_coeffs(rng, k, amp=1e-2)
    else:  # Phi(x0) = 4 cap: the first projection rescales
        d = decayed_coeffs(rng, k)
        x0 = d * math.sqrt(4.0 * cap / float(d @ Ms @ d))
    return x0, cap, t0


def _assert_matches_oracle(x0, mu, nl, assembly, cap, cfg, t0):
    run = _descend(x0, mu, nl, assembly, cap, cfg, t0)
    x, J, gn, iters, g = _descend_oracle(x0, mu, nl, assembly, cap, cfg, t0)
    assert np.array_equal(run["x"], x)
    assert run["energy"] == J
    assert run["grad_norm"] == gn
    assert run["iters"] == iters
    assert run["phi"] == float(x @ assembly.symmetric @ x)
    # the energy layer's objective is the one the descent used
    energy, gradient = assembly.objective(mu, nl)
    J_obj, synth = energy(run["x"])
    assert J_obj == J
    assert np.array_equal(gradient(run["x"], synth), g)
    return run


# mu = 5 puts most minimizers on the sublevel boundary, where every trial
# point is rescaled and its Phi recomputed
@pytest.mark.parametrize("mu", [0.25, 5.0])
@pytest.mark.parametrize("start", ["zero", "small", "outside"])
@pytest.mark.parametrize("name", sorted(_ORACLE_DATA))
def test_descend_is_bit_exact_against_oracle(assembly_mid, name, start, mu):
    x0, cap, t0 = _descent_setup(assembly_mid, start)
    nl = _ORACLE_DATA[name]()
    cfg = SolverConfig(max_iters=1000)
    _assert_matches_oracle(x0, mu, nl, assembly_mid, cap, cfg, t0)


@pytest.mark.parametrize(
    "overrides, stop",
    [({}, "grad_tol"), ({"max_iters": 40}, "max_iters"), ({"grad_tol": 1e-300}, "line_search")],
)
def test_descend_stop_reasons(assembly_mid, overrides, stop):
    x0, cap, t0 = _descent_setup(assembly_mid, "small")
    cfg = SolverConfig(**overrides)
    run = _assert_matches_oracle(x0, 0.25, power_sum(1.5, 3.0), assembly_mid, cap, cfg, t0)
    assert run["stop"] == stop
    assert run["backtracks"] > 0
    if stop == "max_iters":
        assert run["iters"] == 40


def test_minimize_candidates_record_stop_and_backtracks(sol_mid):
    for c in sol_mid.candidates:
        assert c["stop"] in ("grad_tol", "max_iters", "line_search")
        if c["stop"] != "max_iters":  # max_iters leaves an untested last point
            assert c["converged"] == (c["stop"] == "grad_tol")
        assert isinstance(c["backtracks"], int) and c["backtracks"] >= 0


# -------------------------------------------------- order-one equivalence


def test_classical_limit_matches_banded_newton(classical_setup):
    # at alpha = 1 the critical points satisfy 2 w'' + mu f(w) = 0, so
    # the matching classical oracle runs at lam = mu / 2
    _, sol, _, _ = classical_setup
    u = np.asarray(sol.node_values)
    _, w_half = fd_newton_bvp(power_sum(1.5, 3.0).f, 0.125, 1024)
    _, w_full = fd_newton_bvp(power_sum(1.5, 3.0).f, 0.25, 1024)
    dev_half = np.max(np.abs(u - w_half))
    dev_full = np.max(np.abs(u - w_full))
    assert dev_half <= 1e-6
    assert dev_half < dev_full / 100.0


def test_projected_oracle_has_small_residual(classical_setup):
    spec, _, model, _ = classical_setup
    nl = spec.nonlinearity
    _, w = fd_newton_bvp(nl.f, 0.125, 1024)
    coeffs = np.array(
        [2.0 * np.sum(model.weights * w * model.basis[k]) for k in range(64)]
    )
    vals = weak_residual_values(coeffs, 0.25, nl, model)
    # critical points make the map constant: deviation from the mean on
    # the interior (boundary layer trimmed) is the residual
    interior = vals[3:-3]
    assert float(np.max(np.abs(interior - interior.mean()))) <= 1e-4


def test_random_elements_are_not_near_critical(classical_setup):
    spec, _, model, _ = classical_setup
    nl = spec.nonlinearity
    rng = np.random.default_rng(5)
    for amp in (0.01, 0.1):
        c = decayed_coeffs(rng, 64, amp=amp)
        vals = weak_residual_values(c, 0.25, nl, model)
        interior = vals[3:-3]
        assert float(np.max(np.abs(interior - interior.mean()))) > 1e-2


def _linear_datum():
    # f = x, a signed datum outside the catalog
    return Nonlinearity(
        "linear",
        lambda x: np.asarray(x, dtype=float),
        lambda x: np.asarray(x, dtype=float) ** 2 / 2.0,
        False,
        True,
    )


def test_subcritical_linear_datum_minimizes_to_zero():
    # mu below pi^2 keeps the quadratic energy definite: only u = 0
    spec = ProblemSpec(alpha=1.0, T=1.0, n=512, k_max=32, nonlinearity=_linear_datum())
    sol = minimize(spec, 5.0, gamma_bar=1.0)
    assert sol.norm_alpha == 0.0
    assert sol.energy == 0.0
    assert sol.converged
    assert not sol.nontrivial


def test_overflowing_restarts_stop_as_nonfinite_without_a_warning():
    # at T = 1e150, mu = 0.25 lies far above mu_star (5.3e-226): the first
    # step of every random start overflows Phi, while the zero start converges
    spec = ProblemSpec(alpha=0.75, T=1e150, n=512, k_max=32, nonlinearity=power_sum(1.5, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = minimize(spec, 0.25)
    assert [c["stop"] for c in sol.candidates] == ["grad_tol"] + ["nonfinite"] * 7
    assert all(math.isfinite(c["energy"]) and c["iters"] == 1 for c in sol.candidates)
    assert (sol.energy, sol.norm_alpha, sol.converged) == (0.0, 0.0, True)


def test_overflowing_start_stops_at_once(assembly_mid, nl_two_power):
    x0 = np.full(assembly_mid.space.k_max, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _descend(x0, 0.25, nl_two_power, assembly_mid, 1.0, SolverConfig(), 1e-3)
    assert (run["stop"], run["iters"], run["backtracks"]) == ("nonfinite", 1, 0)
    assert not math.isfinite(run["energy"])


def test_nonfinite_restart_never_wins_the_record(monkeypatch):
    # with no converged run the record is the best finite one, not a -inf energy
    real = solver._descend
    runs = []

    def descend(*args):
        runs.append(real(*args))
        if len(runs) == 2:
            runs[-1] = dict(runs[-1], energy=-math.inf, stop="nonfinite")
        return runs[-1]

    monkeypatch.setattr(solver, "_descend", descend)
    # serial restarts, so that the spy runs in this process and fills runs
    monkeypatch.setattr(solver, "_available_cpus", lambda: 1)
    spec = ProblemSpec(
        alpha=0.75,
        T=1.0,
        n=256,
        k_max=16,
        nonlinearity=affine_power(3.0),
        solver=SolverConfig(max_iters=1),
    )
    sol = minimize(spec, 0.1)
    assert not any(c["converged"] for c in sol.candidates)
    assert sol.candidates[1]["stop"] == "nonfinite"
    finite = [r for r in runs if math.isfinite(r["energy"])]
    best = min(finite, key=lambda r: (r["energy"], r["norm_alpha"]))
    assert best is not runs[1]
    assert np.array_equal(sol.coeffs.coeffs, best["x"])


def test_conditions_reject_signed_datum_outside_catalog():
    # the peaks of its potential are unknown, so its window maximum is too
    with pytest.raises(HypothesisError, match="'linear'"):
        evaluate_conditions(_linear_datum(), 0.75, 1.0)


# ------------------------------------------------------------ certificates


def test_certify_full_quartet(problem_mid, sol_mid):
    crep = evaluate_conditions(problem_mid.nonlinearity, 0.75, 1.0)
    cert = certify(sol_mid, problem_mid, crep)
    assert cert.inf_norm_bound
    assert cert.negative_energy
    assert cert.residual_ok
    assert cert.interior
    assert cert.residual_tol == pytest.approx(residual_tolerance(0.75, 512))


def test_certify_flags_tampered_records(problem_mid, sol_mid):
    crep = evaluate_conditions(problem_mid.nonlinearity, 0.75, 1.0)
    bad_res = dataclasses.replace(sol_mid, residual=1.0)
    assert certify(bad_res, problem_mid, crep).residual_ok is False
    bad_inf = dataclasses.replace(sol_mid, norm_inf=sol_mid.gamma_bar + 1.0)
    assert certify(bad_inf, problem_mid, crep).inf_norm_bound is False
    bad_phi = dataclasses.replace(sol_mid, phi=sol_mid.r_radius + 1.0)
    assert certify(bad_phi, problem_mid, crep).interior is False


def test_certify_trivial_record(problem_mid):
    crep = evaluate_conditions(problem_mid.nonlinearity, 0.75, 1.0)
    cert = certify(minimize(problem_mid, 0.0), problem_mid, crep)
    assert cert.negative_energy is False
    assert cert.residual_ok


def test_weak_residual_matches_record(problem_mid, sol_mid):
    assert weak_residual(sol_mid, problem_mid) == sol_mid.residual


def _map_by_direct_kernel(c, mu, nl, model):
    # the first-order map with both integrals by the per-row direct product-trapezoid sum
    grid, order = model.grid, 1.0 - model.alpha
    left = abel_left_ref(c @ model.caputo_left_images, order, grid.h)
    right = abel_left_ref((c @ model.caputo_right_images)[::-1].copy(), order, grid.h)[::-1]
    forcing = mu * cumulative_trapezoid(nl.f(c @ model.basis), grid.h)
    return left - right + forcing


# the example config, and the benchmark's refine level with the largest grid
@pytest.mark.parametrize(
    "overrides, mu_frac",
    [({}, None), ({"alpha": 0.6, "n": 16384, "k_max": 16}, 0.5)],
    ids=["example", "refine_n16384"],
)
def test_weak_residual_matches_direct_kernel(overrides, mu_frac):
    # the map takes its integrals by FFT; measured 1.6e-15 of max|map| and
    # 1.3e-15 relative in the residual at n = 16384
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "example.json"
    problem = ProblemSpec.from_config({**json.loads(path.read_text()), **overrides})
    nl = problem.nonlinearity
    mu = 0.25
    if mu_frac is not None:
        mu = mu_frac * evaluate_conditions(nl, problem.alpha, problem.T).mu_star
    model, assembly = problem.build()
    rec = minimize(problem, mu, model=model, assembly=assembly)
    assert rec.nontrivial
    c = np.asarray(rec.coeffs.coeffs)
    ref = _map_by_direct_kernel(c, mu, nl, model)
    got = weak_residual_values(c, mu, nl, model)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    ref_residual = solver._residual_from_values(ref)
    assert rec.residual == pytest.approx(ref_residual, rel=1e-13, abs=0.0)


def test_weak_residual_at_order_one_skips_the_integrals(classical_setup):
    spec, sol, model, _ = classical_setup
    c = np.asarray(sol.coeffs.coeffs)
    nl = spec.nonlinearity
    dl, dr = c @ model.caputo_left_images, c @ model.caputo_right_images
    forcing = 0.25 * cumulative_trapezoid(nl.f(c @ model.basis), model.grid.h)
    assert np.array_equal(weak_residual_values(c, 0.25, nl, model), dl - dr + forcing)


def test_residual_tolerance_formula():
    assert residual_tolerance(0.75, 1024) == pytest.approx(0.05 * (1.0 / 1024) ** 0.25)
    assert residual_tolerance(0.75, 1024, T=2.0) == pytest.approx(0.05 * (2.0 / 1024) ** 0.25)
    # order one removes the fractional penalty entirely
    assert residual_tolerance(1.0, 1024) == pytest.approx(0.05)
    assert residual_tolerance(0.75, 4096) < residual_tolerance(0.75, 512)


def test_minimize_takes_the_model_from_the_assembly(problem_small, monkeypatch):
    # given an assembly alone, minimize solves on its space and builds nothing
    model, assembly = problem_small.build()
    with_model = minimize(problem_small, 0.1, model=model, assembly=assembly)

    def refuse(self):
        raise AssertionError("the problem was rebuilt")

    monkeypatch.setattr(ProblemSpec, "build", refuse)
    alone = minimize(problem_small, 0.1, assembly=assembly)
    assert alone.json_str() == with_model.json_str()


def test_minimize_refuses_a_model_other_than_the_assemblys(problem_small):
    # a model of another alpha would mix its norms and residual into the record
    _, assembly = problem_small.build()
    foreign = dataclasses.replace(problem_small, alpha=0.6).build()[0]
    twin = problem_small.build()[0]  # equal in value, but not the assembly's space
    for model in (foreign, twin):
        with pytest.raises(ValueError, match="assembly.space"):
            minimize(problem_small, 0.1, model=model, assembly=assembly)
    with pytest.raises(ValueError, match="assembly.space"):
        minimize(problem_small, 0.1, model=twin)  # the assembly built here has its own


def test_solver_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SolverConfig(seed=-1)
    assert SolverConfig(seed=0).seed == 0


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1e-8])
def test_solver_config_rejects_a_grad_tol_that_is_not_positive_and_finite(tol):
    # with grad_tol = inf every restart stopped at its start as "converged"
    with pytest.raises(ValueError, match="grad_tol must be a positive finite number"):
        SolverConfig(grad_tol=tol)
    assert SolverConfig(grad_tol=1e300).grad_tol == 1e300


def test_solver_config_defaults_round_trip():
    cfg = SolverConfig()
    assert cfg.grad_tol == 1e-8
    assert cfg.restarts == 8
    assert cfg.seed == 0


def test_solver_constants_keep_their_values():
    # line-search and sublevel constants are class constants, not settings
    assert SolverConfig.armijo_c == 1e-4
    assert SolverConfig.backtrack_factor == 0.5
    assert SolverConfig.sublevel_margin == 0.99
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["grad_tol", "max_iters", "restarts", "seed"]


def test_solver_config_replace_keeps_other_fields():
    # dataclasses.replace is the one way to vary a setting; it re-validates
    assert not hasattr(SolverConfig, "replace")
    base = SolverConfig(grad_tol=1e-9, max_iters=123, restarts=3)
    cfg = dataclasses.replace(base, seed=3)
    assert (cfg.grad_tol, cfg.max_iters, cfg.restarts, cfg.seed) == (1e-9, 123, 3, 3)
    assert dataclasses.replace(SolverConfig(), seed=3) == SolverConfig(seed=3)
    with pytest.raises(ValueError, match="max_iters"):
        dataclasses.replace(SolverConfig(), max_iters=0)
    with pytest.raises(ValueError, match="seed"):
        dataclasses.replace(SolverConfig(), seed=1.5)
