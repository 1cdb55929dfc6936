"""Independent reference implementations used only by the tests.

Everything here but the per-row Abel kernel deliberately avoids the
package's own numerics: the constants come from mpmath at 30 digits, the
boundary value oracle is a classical banded Newton iteration on the
second-order form.  abel_left_ref is the other kind of oracle: the
kernel's former one-function body, kept verbatim (with the package's own
gamma), so tests can hold the stacked kernel to it bit for bit.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.linalg import solve_banded

from fracvar.frac_kernel import Grid, euler_gamma

mpmath.mp.dps = 30


def embedding_constant_ref(alpha: float, T: float) -> float:
    """T^(alpha - 1/2) / (Gamma(alpha) * sqrt(2 alpha - 1)) at 30 digits."""
    a = mpmath.mpf(alpha)
    t = mpmath.mpf(T)
    return float(t ** (a - mpmath.mpf(1) / 2) / (mpmath.gamma(a) * mpmath.sqrt(2 * a - 1)))


def kappa_ref(alpha: float, T: float) -> float:
    a = mpmath.mpf(alpha)
    t = mpmath.mpf(T)
    c = t ** (a - mpmath.mpf(1) / 2) / (mpmath.gamma(a) * mpmath.sqrt(2 * a - 1))
    return float(c * c * t / abs(mpmath.cos(mpmath.pi * a)))


def gamma_ref(x: float) -> float:
    return float(mpmath.gamma(x))


def fd_newton_bvp(f, lam: float, n: int, tol: float = 1e-12):
    """Damped Newton for w'' + lam f(w) = 0, w(0) = w(1) = 0.

    Central differences on n+1 uniform nodes, Jacobian by finite
    differences of f, tridiagonal solves.  The sine start keeps the
    iterates one-signed, which matters for data with infinite slope at
    the origin.  Returns (nodes, solution).
    """
    h = 1.0 / n
    t = np.linspace(0.0, 1.0, n + 1)
    w = 0.001 * np.sin(np.pi * t)
    eps = 1e-7
    for _ in range(200):
        wi = w[1:-1]
        F = (w[:-2] - 2 * wi + w[2:]) / h**2 + lam * f(wi)
        base = np.max(np.abs(F))
        if base < tol:
            break
        fp = (f(wi + eps) - f(wi - eps)) / (2 * eps)
        ab = np.zeros((3, n - 1))
        ab[0, 1:] = 1.0 / h**2
        ab[1, :] = -2.0 / h**2 + lam * fp
        ab[2, :-1] = 1.0 / h**2
        d = solve_banded((1, 1), ab, -F)
        s = 1.0
        while s > 1e-6:
            w2 = w.copy()
            w2[1:-1] = wi + s * d
            F2 = (w2[:-2] - 2 * w2[1:-1] + w2[2:]) / h**2 + lam * f(w2[1:-1])
            if np.max(np.abs(F2)) < base:
                break
            s *= 0.5
        w[1:-1] = wi + s * d
    return t, w


def abel_left_ref(values: np.ndarray, gamma: float, h: float) -> np.ndarray:
    """The per-row product-trapezoidal left Abel integral, as it was."""
    n = len(values) - 1
    gp1 = gamma + 1.0
    out = np.zeros(n + 1)

    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        shrink = np.expm1(gp1 * np.log1p(-1.0 / i))  # i**(g+1) term, relative
        grow = np.expm1(gp1 * np.log1p(1.0 / i))
    # c_m = (m+1)**(g+1) - 2 m**(g+1) + (m-1)**(g+1), stabilized
    conv_kernel = i ** gp1 * (grow + shrink)
    # w0_i = (i-1)**(g+1) - i**g (i - g - 1), stabilized the same way
    boundary = gp1 * i ** gamma + i ** gp1 * shrink

    acc = values[1:].copy()
    acc += boundary * values[0]
    if n >= 2:
        interior = np.convolve(values[1:n], conv_kernel[: n - 1])[: n - 1]
        acc[1:] += interior
    out[1:] = (h ** gamma / euler_gamma(gamma + 2.0)) * acc
    return out


def space_arrays_ref(alpha: float, T: float, n: int, k_max: int) -> dict:
    """Every array field of a SpaceModel, built the per-row way."""
    grid = Grid(T, n)
    t = grid.nodes
    k = np.arange(1, k_max + 1, dtype=float)[:, None]
    phase = k * math.pi * t[None, :] / T
    basis = np.sin(phase)
    basis[:, 0] = 0.0
    basis[:, -1] = 0.0
    basis_deriv = (k * math.pi / T) * np.cos(phase)
    if alpha == 1.0:
        left, right = basis_deriv.copy(), -basis_deriv
    else:
        g, h = 1.0 - alpha, grid.h
        left = np.vstack([abel_left_ref(row, g, h) for row in basis_deriv])
        right = -np.vstack([abel_left_ref(row[::-1].copy(), g, h)[::-1] for row in basis_deriv])
    weights = np.full(n + 1, grid.h)
    weights[0] = 0.5 * grid.h
    weights[-1] = 0.5 * grid.h
    return {
        "basis": basis,
        "caputo_left_images": left,
        "caputo_right_images": right,
        "weights": weights,
    }
