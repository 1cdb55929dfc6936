"""Independent reference implementations used only by the tests.

Everything here but the per-row Abel kernel deliberately avoids the
package's own numerics: the constants come from mpmath at 30 digits, the
boundary value oracle is a classical banded Newton iteration on the
second-order form, and the Phi matrix oracle integrates the Fourier
transforms of the sine modes.  abel_left_ref is the other kind of
oracle: the kernel's former one-function body, kept verbatim (with the
package's own gamma), so tests can hold the stacked kernel to it bit
for bit.  table_potential_ref is one more of that kind: the table
potential's former form, which evaluates both outer rays over the whole
input and picks with np.where.
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


def table_potential_ref(xs: np.ndarray, fs: np.ndarray, f0: float):
    """The table potential F of energy._piecewise_quadratic_potential, as it was."""
    z, above = np.searchsorted(xs, 0.0, side="left"), np.searchsorted(xs, 0.0, side="right")
    xs = np.concatenate([xs[:z], [0.0], xs[above:]])
    fs = np.concatenate([fs[:z], [f0], fs[above:]])
    nseg = len(xs) - 1
    slopes = np.diff(fs) / np.diff(xs)
    panel = 0.5 * (fs[:-1] + fs[1:]) * np.diff(xs)
    knot_int = np.concatenate([-np.cumsum(panel[:z][::-1])[::-1], [0.0], np.cumsum(panel[z:])])

    near = np.arange(nseg)
    near[:z] += 1
    anchor, f_anchor, i_anchor = xs[near], fs[near], knot_int[near]

    def F(x):
        x = np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, nseg - 1)
        dx = x - anchor[j]
        out = i_anchor[j] + dx * f_anchor[j] + 0.5 * dx * dx * slopes[j]
        out = np.where(x < xs[0], knot_int[0] + (x - xs[0]) * fs[0], out)
        return np.where(x > xs[-1], knot_int[-1] + (x - xs[-1]) * fs[-1], out)

    return F


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


def phi_matrix_continuum(alpha: float, T: float, k_max: int) -> np.ndarray:
    """The continuum Phi matrix of the first k_max sine modes, independent of any grid.

    Extended by zero outside [0, T], an element's Caputo pairing is
    cos(pi alpha) times the |xi|^(2 alpha) seminorm of its Fourier transform
    (Ervin and Roop 2006, Lemma 2.4), so
        M[j, k] = -(cos(pi alpha) / pi) Re int_0^inf xi^(2 alpha) phihat_j conj(phihat_k)
    with phihat_k = a_k (1 - (-1)^k e^(-i xi T)) / (a_k^2 - xi^2), a_k = k pi / T.
    Up to a common phase, phihat_k = i^k g_k with the real, pole-free
    g_k = a_k T sinc((xi T - k pi) / 2 pi) / (a_k + xi), so the real part is
    cos((j - k) pi / 2) g_j g_k: zero for odd j + k.

    One Gauss-Legendre rule, 48 nodes per pi/T panel (24 are too few at
    the branch point), covers [0, X = 32 k_max pi / T] for every pair in
    one product.  Beyond X
    the even-parity integrand is
        2 a_j a_k xi^(2 alpha) (1 - (-1)^k cos(xi T)) / ((xi^2 - a_j^2)(xi^2 - a_k^2)),
    integrated in closed form term by term in powers of 1/xi^2, the cosine
    part by parts (X T is a multiple of 2 pi).  The xi^(2 alpha) branch
    point at 0 limits the first panel: entries are good to about 1e-10
    relative to the largest.
    """
    j = np.arange(1, k_max + 1)
    a = j * math.pi / T
    panels = 32 * k_max
    x, wx = np.polynomial.legendre.leggauss(48)
    h = math.pi / T
    xi = (h * np.arange(panels)[:, None] + 0.5 * h * (x + 1.0)).ravel()
    w = np.tile(0.5 * h * wx, panels) * xi ** (2.0 * alpha)
    g = a[:, None] * T * np.sinc((xi * T - j[:, None] * math.pi) / (2.0 * math.pi))
    g /= a[:, None] + xi
    body = ((g * w) @ g.T) * np.cos((j[:, None] - j) * math.pi / 2.0)

    X = panels * h
    a2j, a2k = a[:, None] ** 2, a**2
    sign_k = (-1.0) ** j
    tail = np.zeros((k_max, k_max))
    for m in range(4):
        # 1 / ((xi^2 - a_j^2)(xi^2 - a_k^2)) = sum_m e_m xi^(-4 - 2m)
        e_m = sum(a2j**i * a2k ** (m - i) for i in range(m + 1))
        p = 2.0 * alpha - 4.0 - 2 * m
        # int_X^inf xi^q cos(xi T) = -q X^(q-1) / T^2 - q (q-1) / T^2 * (same at q - 2)
        cos_part, coef, q = 0.0, 1.0, p
        for _ in range(3):
            cos_part += coef * (-q * X ** (q - 1.0) / T**2)
            coef *= -q * (q - 1.0) / T**2
            q -= 2.0
        tail += e_m * (-(X ** (p + 1.0)) / (p + 1.0) - sign_k * cos_part)
    tail *= 2.0 * np.outer(a, a) * ((j[:, None] + j) % 2 == 0)
    return -math.cos(math.pi * alpha) / math.pi * (body + tail)
