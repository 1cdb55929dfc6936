"""Discrete space: norms, the embedding constant, and the exact
inequality audit."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from fracvar.energy import build_assembly
from fracvar.frac_kernel import euler_gamma
from fracvar.solver import minimize, weak_residual
from fracvar.space import (
    SpaceConfig,
    SpaceModel,
    SpectralElement,
    audit_embeddings,
    build_space,
    embedding_constant,
    norms,
    unit_mode,
)

from oracles import embedding_constant_ref, kappa_ref
from probes import decayed_coeffs


# ------------------------------------------------------------- constants


def test_embedding_constant_against_reference():
    for a in np.linspace(0.55, 1.0, 10):
        for T in (0.5, 1.0, 2.0):
            c = embedding_constant(float(a), T)
            assert c == pytest.approx(embedding_constant_ref(float(a), T), rel=1e-13)


def test_reference_values_at_075():
    assert embedding_constant(0.75, 1.0) == pytest.approx(1.1540674772329393, rel=1e-12)


def test_kappa_identity_on_random_pairs():
    rng = np.random.default_rng(9)
    from fracvar.conditions import kappa_alpha

    for _ in range(50):
        a = float(rng.uniform(0.55, 1.0))
        T = float(rng.uniform(0.25, 4.0))
        c = embedding_constant(a, T)
        k = kappa_alpha(a, T)
        assert abs(k - c * c * T / abs(math.cos(math.pi * a))) <= 1e-12 * k
        assert k == pytest.approx(kappa_ref(a, T), rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SpaceConfig(alpha=0.5, T=1.0, n=256, k_max=16)
    with pytest.raises(ValueError):
        SpaceConfig(alpha=1.1, T=1.0, n=256, k_max=16)
    with pytest.raises(ValueError):
        SpaceConfig(alpha=0.75, T=-1.0, n=256, k_max=16)
    with pytest.raises(ValueError):
        SpaceConfig(alpha=0.75, T=1.0, n=0, k_max=16)
    with pytest.raises(ValueError, match="n / 4"):
        SpaceConfig(alpha=0.75, T=1.0, n=64, k_max=64)


# ----------------------------------------------------------------- norms


def test_first_mode_norm_at_order_one(model_classical):
    # |e_1|_alpha at alpha=1 is the H^1 seminorm of sin(pi t): pi/sqrt(2)
    nn = norms(unit_mode(32, 1), model_classical)
    assert nn.norm_alpha == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
    assert nn.norm_l2 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert nn.norm_inf == pytest.approx(1.0, rel=1e-12)


def test_boundary_values_vanish(model_mid):
    rng = np.random.default_rng(4)
    u = model_mid.synthesize(decayed_coeffs(rng, 32))
    assert abs(u[0]) < 1e-12
    assert abs(u[-1]) < 1e-12


@given(scale=st.floats(-100.0, 100.0))
def test_norms_are_homogeneous(model_mid, scale):
    rng = np.random.default_rng(6)
    c = decayed_coeffs(rng, 32)
    base = norms(SpectralElement(c), model_mid)
    if scale == 0.0:
        return
    scaled = norms(SpectralElement(scale * c), model_mid)
    assert scaled.norm_alpha == pytest.approx(abs(scale) * base.norm_alpha, rel=1e-12)
    assert scaled.norm_l2 == pytest.approx(abs(scale) * base.norm_l2, rel=1e-12)
    assert scaled.norm_inf == pytest.approx(abs(scale) * base.norm_inf, rel=1e-12)


def test_sup_norm_controlled_by_alpha_norm(model_mid):
    # the embedding that everything downstream leans on, checked directly
    c = embedding_constant(model_mid.alpha, model_mid.config.T)
    rng = np.random.default_rng(12)
    for _ in range(100):
        u = SpectralElement(decayed_coeffs(rng, 32, amp=float(rng.uniform(0.01, 10.0))))
        nn = norms(u, model_mid)
        assert nn.norm_inf <= c * nn.norm_alpha * (1.0 + 1e-10) + 1e-12


# ----------------------------------------------------------------- audit


def _audit_by_scipy(model):
    """The audit's four numbers from scipy's generalized eigh and a dense solve."""
    cfg = model.config
    dl, dr, w, B = model.caputo_left_images, model.caputo_right_images, model.weights, model.basis
    gram = (dl * w) @ dl.T
    pairing = (dl * w) @ dr.T
    phi = scipy.linalg.eigh(-0.5 * (pairing + pairing.T), gram, eigvals_only=True)
    l2 = scipy.linalg.eigh((B * w) @ B.T, gram, eigvals_only=True)[-1]
    sup = np.max(np.sum(B * scipy.linalg.solve(gram, B, assume_a="pos"), axis=0))
    cos_a = abs(math.cos(math.pi * cfg.alpha))
    return (
        math.sqrt(l2) * euler_gamma(cfg.alpha + 1.0) / cfg.T**cfg.alpha,
        math.sqrt(sup) / embedding_constant(cfg.alpha, cfg.T),
        cos_a * phi[-1],
        phi[0] / cos_a,
    )


@pytest.mark.parametrize(
    "alpha, T, n, k_max",
    [(0.6, 1.0, 256, 16), (0.75, 1.0, 1024, 64), (0.9, 2.0, 512, 32), (1.0, 0.5, 256, 64)],
)
def test_audit_agrees_with_generalized_eigh(alpha, T, n, k_max):
    model = build_space(SpaceConfig(alpha=alpha, T=T, n=n, k_max=k_max))
    rep = audit_embeddings(model)
    got = (rep.tightest_ratio_a, rep.tightest_ratio_b, rep.tightest_ratio_c, rep.coercivity_ratio)
    assert got == pytest.approx(_audit_by_scipy(model), rel=1e-10)
    assert max(got[:3]) <= 1.0 + 1e-12


def test_audit_clean_at_mid_resolution():
    # the exact ratios bound every sampled element, and each clause holds with room
    model = build_space(SpaceConfig(alpha=0.75, T=1.0, n=2048, k_max=16))
    rep = audit_embeddings(model)
    asm = build_assembly(model)
    l2_const = 1.0 / euler_gamma(1.75)
    c = embedding_constant(0.75, 1.0)
    cos_a = abs(math.cos(math.pi * 0.75))
    rng = np.random.default_rng(5)
    worst = [0.0, 0.0, 0.0]
    least = math.inf
    for trial in range(200):
        # flat to steeply decaying spectra: flat ones come closest to the bounds
        u = SpectralElement(decayed_coeffs(rng, 16, power=float(trial % 4)))
        na, nl2, ninf = norms(u, model)
        phi = asm.phi(u.coeffs)
        worst = np.maximum(worst, [nl2 / (l2_const * na), ninf / (c * na), cos_a * phi / na**2])
        least = min(least, phi / (cos_a * na * na))
    exact = np.array([rep.tightest_ratio_a, rep.tightest_ratio_b, rep.tightest_ratio_c])
    assert np.all(worst <= exact * (1.0 + 1e-12))
    assert least >= rep.coercivity_ratio * (1.0 - 1e-12)
    assert np.all(exact < 1.0) and 0.0 < rep.coercivity_ratio <= 1.0


@pytest.mark.parametrize("T", [1.0, 2.0])
def test_audit_closed_forms_at_alpha_one(T):
    # at alpha = 1: ||u|| <= (T/pi) ||u'|| is sharp on sin(pi t/T); Phi(u) = ||u'||^2;
    # ||u||_inf <= sqrt(T)/2 ||u'||, sharp only in the limit of infinitely many modes
    b = []
    for n, k_max in ((256, 16), (1024, 64)):
        rep = audit_embeddings(build_space(SpaceConfig(alpha=1.0, T=T, n=n, k_max=k_max)))
        assert abs(math.pi * rep.tightest_ratio_a - 1.0) <= 1e-12
        assert abs(rep.tightest_ratio_c - 1.0) <= 1e-12
        assert abs(rep.coercivity_ratio - 1.0) <= 1e-12
        b.append(rep.tightest_ratio_b)
    assert 0.49 < b[0] < b[1] < 0.5


def test_spectral_element_validation(model_mid):
    with pytest.raises(ValueError, match="element has 8 coefficients, model holds 32 modes"):
        norms(SpectralElement(np.ones(8)), model_mid)
    with pytest.raises(ValueError):
        SpectralElement(np.array([]))
    with pytest.raises(ValueError):
        SpectralElement(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        SpectralElement(np.array([1.0, np.inf]))
    e = SpectralElement(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        e.coeffs[0] = 5.0


def test_unit_mode_layout():
    e = unit_mode(8, 3)
    assert e.coeffs.shape == (8,)
    assert e.coeffs[2] == 1.0
    assert np.sum(np.abs(e.coeffs)) == 1.0
    with pytest.raises(ValueError):
        unit_mode(8, 0)
    with pytest.raises(ValueError):
        unit_mode(8, 9)


def _with_nan(model, field, **methods):
    """A copy of model whose array field is NaN, of a subclass with the given methods."""
    arrays = {f.name: getattr(model, f.name) for f in dataclasses.fields(SpaceModel)}
    arrays[field] = np.full_like(arrays[field], np.nan)
    return type("Hidden", (SpaceModel,), methods)(**arrays)


@pytest.mark.parametrize(
    "alpha, n, k_max", [(0.75, 512, 32), (0.6, 4096, 16), (0.55, 2048, 16), (1.0, 64, 8)]
)
def test_right_images_mirror_left_images(alpha, n, k_max):
    # reflecting t -> T - t turns a left Caputo derivative into the right one
    # (which carries the orientation sign) and maps sin(k pi t / T) to
    # (-1)**(k+1) times itself, so each right image row is the reversed left
    # row times (-1)**(k+1); the opposite sign misses by 2
    model = build_space(SpaceConfig(alpha=alpha, T=1.0, n=n, k_max=k_max))
    left, right = model.caputo_left_images, model.caputo_right_images
    for k in range(1, k_max + 1):
        row = right[k - 1]
        mirrored = (-1) ** (k + 1) * left[k - 1][::-1]
        assert np.max(np.abs(row - mirrored)) <= 1e-12 * np.max(np.abs(row)), k


def test_vector_reads_of_basis_and_right_images_go_through_the_model(
    problem_mid, model_mid, assembly_mid
):
    # the raw array is NaN and only the methods see the real one, so any read
    # that bypasses synthesize, analyze or right_images changes the bytes
    B, R = model_mid.basis, model_mid.caputo_right_images
    no_basis = _with_nan(
        model_mid, "basis", synthesize=lambda self, c: c @ B, analyze=lambda self, y: B @ y
    )
    no_right = _with_nan(model_mid, "caputo_right_images", right_images=lambda self, c: c @ R)

    sol = minimize(problem_mid, 0.25, assembly=assembly_mid)
    routed = minimize(problem_mid, 0.25, assembly=build_assembly(no_basis))
    assert routed.json_str() == sol.json_str()
    res = weak_residual(sol, problem_mid, model_mid)
    assert weak_residual(sol, problem_mid, no_basis) == res
    assert weak_residual(sol, problem_mid, no_right) == res
    assert norms(sol.coeffs, no_basis) == norms(sol.coeffs, model_mid)


def test_analyze_is_the_adjoint_of_synthesize(model_mid):
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(model_mid.k_max)
        y = rng.standard_normal(model_mid.config.n + 1)
        u = model_mid.synthesize(c)
        assert float(y @ u) == pytest.approx(float(c @ model_mid.analyze(y)), rel=1e-13)
        assert u[0] == 0.0 and u[-1] == 0.0
