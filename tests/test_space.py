"""Discrete space: norms, the embedding constant, and the randomized
inequality audit."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracvar.space import (
    SpaceConfig,
    SpectralElement,
    audit_embeddings,
    build_space,
    embedding_constant,
    norms,
    synthesize,
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
    u = SpectralElement(decayed_coeffs(rng, 32))
    gf = synthesize(u, model_mid)
    assert abs(gf.values[0]) < 1e-12
    assert abs(gf.values[-1]) < 1e-12


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
    c = model_mid.embedding_constant
    rng = np.random.default_rng(12)
    for _ in range(100):
        u = SpectralElement(decayed_coeffs(rng, 32, amp=float(rng.uniform(0.01, 10.0))))
        nn = norms(u, model_mid)
        assert nn.norm_inf <= c * nn.norm_alpha * (1.0 + 1e-10) + 1e-12


# ----------------------------------------------------------------- audit


def test_audit_clean_at_mid_resolution():
    model = build_space(SpaceConfig(alpha=0.75, T=1.0, n=2048, k_max=16))
    rep = audit_embeddings(model, trials=200, seed=0)
    assert rep.violations_a == 0
    assert rep.violations_b == 0
    assert rep.violations_c == 0
    assert 0.0 < rep.tightest_ratio_a < 1.0
    assert 0.0 < rep.tightest_ratio_b < 1.0
    assert rep.offenders == []


def test_audit_is_seed_deterministic():
    model = build_space(SpaceConfig(alpha=0.75, T=1.0, n=1024, k_max=16))
    r1 = audit_embeddings(model, trials=50, seed=3)
    r2 = audit_embeddings(model, trials=50, seed=3)
    assert r1.json_str() == r2.json_str()
    assert json.loads(r1.json_str())["seed"] == 3


def test_spectral_element_validation():
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
