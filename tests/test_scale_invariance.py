"""Scale invariance: a problem on [0, T] against T = 1, and a datum lam f against f.

Under u_T(t) = v(t / T), Phi(u_T) = T**(1 - 2 alpha) Phi(v) and
Psi(u_T) = T Psi(v), so u_T solves the problem at (T, mu) exactly when v
solves it at (1, mu T**(2 alpha)).  The discrete problem (h = T / n) keeps
this to roundoff, the conditions report to its last digits, and the
solver to its stopping test.  The T tests run on the example datum; the
datum scaling runs on both shipped configs.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from fracvar import conditions as cond
from fracvar.energy import Nonlinearity
from fracvar.problem import ProblemSpec
from fracvar.solver import certify, minimize

# the verdicts that read F alone; sg_holds and sinf_holds compare F with
# kappa_alpha, the threshold at mu = 1, and mu = 1 at T is mu = T**(2 alpha)
# at T = 1, so they may change with T: kappa_alpha's scaling is checked instead
_VERDICTS = ("sup_at_boundary", "s0_holds", "zero_holds")
_CERTIFICATES = ("inf_norm_bound", "negative_energy", "residual_ok", "interior")


def _solved(problem, T):
    """(record, certificates) at 0.5 mu_star on the copy of problem over [0, T]."""
    problem = dataclasses.replace(problem, T=T)
    report = cond.evaluate_conditions(problem.nonlinearity, problem.alpha, T)
    sol = minimize(problem, 0.5 * report.mu_star)
    return sol, certify(sol, problem, report)


@pytest.fixture(scope="module")
def solved_at_one(problem_mid):
    return _solved(problem_mid, 1.0)


@pytest.mark.parametrize("T", [1e-6, 1e-3, 1e3, 1e6])
def test_conditions_scale_with_T(problem_mid, T):
    nl, a = problem_mid.nonlinearity, problem_mid.alpha
    at_one = cond.evaluate_conditions(nl, a, 1.0)
    rep = cond.evaluate_conditions(nl, a, T)
    assert rep.mu_star * T ** (2.0 * a) == pytest.approx(at_one.mu_star, rel=1e-13)
    assert rep.sup_ratio == pytest.approx(at_one.sup_ratio, rel=1e-13)
    assert rep.gamma_bar == pytest.approx(at_one.gamma_bar, rel=1e-13)
    assert rep.kappa_alpha / T ** (2.0 * a) == pytest.approx(at_one.kappa_alpha, rel=1e-13)
    for name in _VERDICTS:
        assert getattr(rep, name) == getattr(at_one, name), name


# T = 1e6 is left out: there the solver's absolute grad_tol stops the
# restarts early and phi drifts 5.2e-3 from T = 1's.  It belongs with a
# stop relative to the scale of J (ROADMAP item 2).
@pytest.mark.parametrize("T", [1e-6, 1e-3, 1e3])
def test_records_and_certificates_scale_with_T(problem_mid, solved_at_one, T):
    sol1, certs1 = solved_at_one
    sol, certs = _solved(problem_mid, T)
    scale = T ** (1.0 - 2.0 * problem_mid.alpha)  # of Phi, J and the weak residual's map
    assert sol.energy / scale == pytest.approx(sol1.energy, rel=1e-7)
    assert sol.phi / scale == pytest.approx(sol1.phi, rel=2e-4)
    assert certs.residual_tol / scale == pytest.approx(certs1.residual_tol, rel=1e-13)
    for name in _CERTIFICATES:
        assert getattr(certs, name) == getattr(certs1, name), name


def _shipped_datum(name):
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / name
    return ProblemSpec.from_config(json.loads(path.read_text())).nonlinearity


def _scaled(nl, lam):
    """lam f as a Nonlinearity over the same callables; kind and params keep its peaks."""
    return Nonlinearity(
        nl.kind,
        lambda x: lam * nl.f(x),
        lambda x: lam * nl.F(x),
        nl.nonnegative,
        nl.vanishes_at_zero,
        nl.params,
    )


# Under f -> lam f, F -> lam F and every ratio gamma^2 / max F scales by
# 1 / lam, so mu -> mu / lam.  Solves are left out: a signed-table solve
# alone takes 7-10 s.  The limit verdicts are left out too: they compare
# the last probe with the absolute DIVERGENCE_THRESHOLD, so they are not
# scale-free.
@pytest.mark.parametrize("config", ["example.json", "signed_table.json"])
@pytest.mark.parametrize("lam", [1e-5, 1e-3, 1e3])
def test_conditions_scale_with_the_datum(config, lam):
    nl = _shipped_datum(config)
    at_one = cond.evaluate_conditions(nl, 0.75, 1.0)
    rep = cond.evaluate_conditions(_scaled(nl, lam), 0.75, 1.0)
    assert rep.mu_star * lam == pytest.approx(at_one.mu_star, rel=1e-13)
    assert rep.sup_ratio * lam == pytest.approx(at_one.sup_ratio, rel=1e-13)
    assert rep.gamma_bar == pytest.approx(at_one.gamma_bar, rel=1e-13)
    assert rep.sup_at_boundary == at_one.sup_at_boundary
