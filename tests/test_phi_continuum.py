"""The assembled Phi matrix against the continuum form it discretizes.

The oracle (tests/oracles.py) evaluates the paper's functional on the
sine modes through their Fourier transforms, with no grid; the
discrete M_s must converge to it as the grid is refined.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fracvar.energy import build_assembly
from fracvar.space import SpaceConfig, build_space

from oracles import phi_matrix_continuum

K_MAX = 8
_ODD = (np.arange(1, K_MAX + 1)[:, None] + np.arange(1, K_MAX + 1)) % 2 == 1


def _discrete(alpha: float, n: int) -> np.ndarray:
    model = build_space(SpaceConfig(alpha=alpha, T=1.0, n=n, k_max=K_MAX))
    return build_assembly(model).symmetric


def _rel_err(discrete: np.ndarray, continuum: np.ndarray) -> float:
    return float(np.max(np.abs(discrete - continuum)) / np.max(np.abs(continuum)))


@pytest.mark.parametrize("T", [1.0, 2.5])
def test_continuum_oracle_is_dirichlet_energy_at_order_one(T):
    # alpha = 1: Phi(sin(a_k t)) = int_0^T a_k^2 cos^2(a_k t) dt = a_k^2 T / 2
    a = np.arange(1, K_MAX + 1) * math.pi / T
    M = phi_matrix_continuum(1.0, T, K_MAX)
    assert _rel_err(M, np.diag(a * a * T / 2.0)) < 1e-12


@pytest.mark.parametrize("alpha", [0.6, 0.75])
def test_phi_matrix_converges_at_order_two_minus_alpha(alpha):
    continuum = phi_matrix_continuum(alpha, 1.0, K_MAX)
    err = {n: _rel_err(_discrete(alpha, n), continuum) for n in (256, 512, 1024)}
    for coarse, fine in ((256, 512), (512, 1024)):
        assert math.log2(err[coarse] / err[fine]) == pytest.approx(2.0 - alpha, abs=0.15)
    assert math.log(err[256] / err[1024], 4.0) == pytest.approx(2.0 - alpha, abs=0.15)
    assert err[1024] < 1e-3


@pytest.mark.parametrize("alpha", [0.6, 0.75])
def test_phi_matrix_is_block_diagonal_by_mode_parity(alpha):
    continuum = phi_matrix_continuum(alpha, 1.0, K_MAX)
    for M in (continuum, _discrete(alpha, 256), _discrete(alpha, 1024)):
        assert np.max(np.abs(M[_ODD])) <= 1e-14 * np.max(np.abs(M))
