"""Sine-spectral model of the zero-trace fractional energy space.

Elements are finite combinations of sin(k pi t / T).  The basis and the
left/right Caputo images of its exact derivatives are computed once per
configuration and cached in an immutable model, so norm and energy
evaluations reduce to dense linear algebra against the cached arrays.
Models are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codec import JsonCodec
from .frac_kernel import Grid, GridFunction, caputo_images, check_order, euler_gamma
# imported but not called: perfbench/tracing.py patches space.caputo_left
# and space.caputo_right, and a traced run raises AttributeError without them
from .frac_kernel import caputo_left, caputo_right

__all__ = [
    "SpaceConfig",
    "SpaceModel",
    "SpectralElement",
    "Norms",
    "AuditReport",
    "build_space",
    "norms",
    "unit_mode",
    "embedding_constant",
    "audit_embeddings",
]


@dataclass(frozen=True)
class SpaceConfig:
    """Resolution and order parameters for a spectral model.

    k_max is capped at n / 4 so the highest retained mode keeps at least
    four grid points per half-wave under the product-trapezoidal rule.
    """

    alpha: float
    T: float
    n: int
    k_max: int

    def __post_init__(self) -> None:
        check_order(self.alpha, differentiation=True)  # validates the range
        Grid(self.T, self.n)  # validates T and n
        if not (isinstance(self.k_max, int) and self.k_max >= 4):
            raise ValueError(f"k_max must be an integer >= 4, got {self.k_max!r}")
        if 4 * self.k_max > self.n:
            raise ValueError(
                f"k_max = {self.k_max} too large for n = {self.n}: need k_max <= n / 4"
            )


@dataclass(frozen=True, eq=False)
class SpaceModel:
    """Immutable cache of basis data for one SpaceConfig.

    Arrays are laid out mode-major: basis[k - 1] holds the nodal samples
    of sin(k pi t / T).  caputo_left_images / caputo_right_images are the
    order-alpha one-sided derivative images of each basis function,
    produced by frac_kernel.caputo_images from the analytic derivatives,
    which the model does not keep.  synthesize, its adjoint analyze and
    right_images are the only readers of basis and caputo_right_images
    at the level of vectors; build_assembly and audit_embeddings read
    the whole matrices.
    """

    config: SpaceConfig
    grid: Grid
    basis: np.ndarray
    caputo_left_images: np.ndarray
    caputo_right_images: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("basis", "caputo_left_images", "caputo_right_images", "weights"):
            getattr(self, name).setflags(write=False)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Nodal values of the element with coefficients c; both ends exactly 0."""
        return c @ self.basis

    def analyze(self, y: np.ndarray) -> np.ndarray:
        """Adjoint of synthesize: the k_max sums of y against each mode's nodal samples."""
        return self.basis @ y

    def right_images(self, c: np.ndarray) -> np.ndarray:
        """Nodal values of the right Caputo derivative of the element with coefficients c."""
        return c @ self.caputo_right_images

    @property
    def k_max(self) -> int:
        return self.config.k_max

    @property
    def alpha(self) -> float:
        return self.config.alpha


@dataclass(frozen=True, eq=False)
class SpectralElement:
    """Coefficient vector against the cached sine basis."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def unit_mode(k_max: int, k: int) -> SpectralElement:
    """Element with unit weight on the k-th mode (1-based), zeros elsewhere."""
    if not 1 <= k <= k_max:
        raise ValueError(f"mode number {k} outside 1..{k_max}")
    coeffs = np.zeros(k_max)
    coeffs[k - 1] = 1.0
    return SpectralElement(coeffs)


def embedding_constant(alpha: float, T: float) -> float:
    """Sup-norm embedding constant T**(alpha - 1/2) / (Gamma(alpha) sqrt(2 alpha - 1))."""
    alpha = check_order(alpha, differentiation=True)
    return T ** (alpha - 0.5) / (euler_gamma(alpha) * math.sqrt(2.0 * alpha - 1.0))


def build_space(config: SpaceConfig) -> SpaceModel:
    """Assemble the cached spectral model for one configuration.

    Deterministic: equal configs give bitwise-identical models.  Cost is
    dominated by the 2 * k_max Caputo images, built in one caputo_images
    call, the one caller of the direct sum: about k_max * n**2 / 2
    multiply-adds per side from k_max * (n + 1) >= 60,000 samples, twice
    that below.  From k_max * (n + 1)**2 >= 1.5e8, with two CPUs and the
    BLAS at one thread, one side is built in a child forked for the call,
    so the build takes about half as long (refine's n = 4096 to 16384 levels; sweep's
    (1024, 64) and every shipped config stay in this process).  Every
    image is bit-identical to a per-row build, forked or not, as the
    benchmark's phi/psi references require (ROADMAP items 2-3; see
    frac_kernel.caputo_images).
    """
    grid = Grid(config.T, config.n)
    t = grid.nodes
    k = np.arange(1, config.k_max + 1, dtype=float)[:, None]
    phase = k * math.pi * t[None, :] / config.T

    basis = np.sin(phase)
    # hard zeros at the ends: sin(k pi) in floats is only ~1e-16 k
    basis[:, 0] = 0.0
    basis[:, -1] = 0.0
    basis_deriv = (k * math.pi / config.T) * np.cos(phase)

    left, right = caputo_images(GridFunction(grid, basis_deriv), config.alpha)

    return SpaceModel(
        config=config,
        grid=grid,
        basis=basis,
        caputo_left_images=left,
        caputo_right_images=right,
        weights=grid.weights,
    )


def _check_element(u: SpectralElement, model: SpaceModel) -> np.ndarray:
    if u.coeffs.shape != (model.k_max,):
        raise ValueError(
            f"element has {u.coeffs.size} coefficients, model holds {model.k_max} modes"
        )
    return u.coeffs


class Norms(NamedTuple):
    """(norm_alpha, norm_l2, norm_inf) with attribute access."""

    norm_alpha: float
    norm_l2: float
    norm_inf: float


def norms(u: SpectralElement, model: SpaceModel) -> Norms:
    """Energy seminorm, L2 norm, and nodal sup norm of an element.

    norm_alpha is the L2 weight of the left Caputo image, the quantity the
    assembled energy form is compared against.  All three use the cached
    trapezoid weights, all three are absolutely homogeneous.
    """
    coeffs = _check_element(u, model)
    dleft = coeffs @ model.caputo_left_images
    synth = model.synthesize(coeffs)
    w = model.weights
    norm_alpha = math.sqrt(float(w @ (dleft * dleft)))
    norm_l2 = math.sqrt(float(w @ (synth * synth)))
    norm_inf = float(np.max(np.abs(synth)))
    return Norms(norm_alpha, norm_l2, norm_inf)


@dataclass(frozen=True)
class AuditReport(JsonCodec):
    """Exact worst cases of the norm inequalities over every element.

    tightest_ratio_a/b/c are the largest values, over all coefficient
    vectors, of each left side over its bound in audit_embeddings; a
    ratio of at most 1 + 1e-12 means that inequality holds for every
    element of the model.  coercivity_ratio is the smallest value of
    Phi(u) / (|cos(pi alpha)| norm_alpha**2), the margin build_assembly
    checks against 1 - coercivity_slack.
    """

    tightest_ratio_a: float
    tightest_ratio_b: float
    tightest_ratio_c: float
    coercivity_ratio: float


def audit_embeddings(model: SpaceModel) -> AuditReport:
    """Exact check of the three norm inequalities the theory rests on:

      (a)  norm_l2  <= T**alpha / Gamma(alpha + 1) * norm_alpha
      (b)  norm_inf <= embedding_constant(alpha, T) * norm_alpha
      (c)  Phi(u) <= norm_alpha**2 / |cos(pi alpha)|

    norm_alpha**2 is the Gram form x' G x, so with L the Cholesky factor
    of G each worst case is a generalized eigenvalue or a dual norm: (a)
    is sqrt(lambda_max(B W B', G)), (b) the largest ||L^-1 b_i|| over the
    basis columns b_i at the nodes, (c) lambda_max(M_s, G).  The model
    must pass build_assembly's coercivity check, or ResolutionError is
    raised.
    """
    # deferred: energy imports space
    from .energy import _pencil_eigvalsh, build_assembly

    asm = build_assembly(model)
    cfg = model.config
    l2_const = cfg.T ** cfg.alpha / euler_gamma(cfg.alpha + 1.0)
    cos_a = abs(math.cos(math.pi * cfg.alpha))
    L = np.linalg.cholesky(asm.gram)
    B = model.basis
    l2 = _pencil_eigvalsh(L, (B * model.weights) @ B.T)[-1]
    sup = np.max(np.sum(np.linalg.solve(L, B) ** 2, axis=0))
    phi = _pencil_eigvalsh(L, asm.symmetric)
    return AuditReport(
        tightest_ratio_a=math.sqrt(l2) / l2_const,
        tightest_ratio_b=math.sqrt(sup) / embedding_constant(cfg.alpha, cfg.T),
        tightest_ratio_c=float(cos_a * phi[-1]),
        coercivity_ratio=float(phi[0] / cos_a),
    )
