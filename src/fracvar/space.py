"""Sine-spectral model of the zero-trace fractional energy space.

Elements are finite combinations of sin(k pi t / T).  The basis and the
left/right Caputo images of its exact derivatives are computed once per
configuration and cached in an immutable model, so norm and energy
evaluations reduce to dense linear algebra against the cached arrays.
Models are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codec import OMIT, JsonCodec
from .frac_kernel import (
    FracOrder,
    Grid,
    GridFunction,
    caputo_left,
    caputo_right,
    euler_gamma,
)

__all__ = [
    "SpaceConfig",
    "SpaceModel",
    "SpectralElement",
    "Norms",
    "AuditReport",
    "build_space",
    "synthesize",
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
        FracOrder.derivative(self.alpha)  # validates the range
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
    produced by the kernel operators from the analytic derivatives, which
    the model does not keep.
    """

    config: SpaceConfig
    grid: Grid
    basis: np.ndarray
    caputo_left_images: np.ndarray
    caputo_right_images: np.ndarray
    weights: np.ndarray
    embedding_constant: float

    def __post_init__(self) -> None:
        for name in ("basis", "caputo_left_images", "caputo_right_images", "weights"):
            getattr(self, name).setflags(write=False)

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
    alpha = FracOrder.derivative(alpha).value
    return T ** (alpha - 0.5) / (euler_gamma(alpha) * math.sqrt(2.0 * alpha - 1.0))


def build_space(config: SpaceConfig) -> SpaceModel:
    """Assemble the cached spectral model for one configuration.

    Deterministic: equal configs give bitwise-identical models.  Cost is
    dominated by the 2 * k_max Caputo images, built in one stacked call
    per side.  From k_max * (n + 1) >= 60,000 samples each side computes
    only the kept triangle of its convolutions, about k_max * n**2 / 2
    multiply-adds; below that it runs the full per-row convolution,
    about k_max * n**2.  Every image is bit-identical to a per-row build
    whichever loop runs, as the benchmark's phi/psi references require
    (ROADMAP item 1; see frac_kernel._abel_left).
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

    order = FracOrder.derivative(config.alpha)
    derivs = GridFunction(grid, basis_deriv)
    left = caputo_left(derivs, order).values
    right = caputo_right(derivs, order).values

    weights = np.full(grid.n + 1, grid.h)
    weights[0] = 0.5 * grid.h
    weights[-1] = 0.5 * grid.h

    c = embedding_constant(config.alpha, config.T)
    return SpaceModel(
        config=config,
        grid=grid,
        basis=basis,
        caputo_left_images=left,
        caputo_right_images=right,
        weights=weights,
        embedding_constant=c,
    )


def _check_element(u: SpectralElement, model: SpaceModel) -> np.ndarray:
    if u.coeffs.shape != (model.k_max,):
        raise ValueError(
            f"element has {u.coeffs.size} coefficients, model holds {model.k_max} modes"
        )
    return u.coeffs


def synthesize(u: SpectralElement, model: SpaceModel) -> GridFunction:
    """Nodal values of the element; boundary values are exactly 0."""
    coeffs = _check_element(u, model)
    return GridFunction(model.grid, coeffs @ model.basis)


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
    synth = coeffs @ model.basis
    w = model.weights
    norm_alpha = math.sqrt(float(w @ (dleft * dleft)))
    norm_l2 = math.sqrt(float(w @ (synth * synth)))
    norm_inf = float(np.max(np.abs(synth)))
    return Norms(norm_alpha, norm_l2, norm_inf)


@dataclass
class AuditReport(JsonCodec):
    """Outcome of a randomized embedding audit.

    violations_* count trials where an inequality failed beyond the
    audit tolerance 1e-8 * (1 + norm_alpha**2); tightest_ratio_* record
    how close the sharpest trial came to each bound (1.0 means touching).
    Offending coefficient vectors are kept on the report but stay out of
    the JSON payload.
    """

    violations_a: int
    violations_b: int
    violations_c: int
    tightest_ratio_a: float
    tightest_ratio_b: float
    seed: int
    offenders: list = field(default_factory=list, repr=False, metadata=OMIT)


def audit_embeddings(
    model: SpaceModel,
    trials: int,
    seed: int = 0,
    scales: tuple = (0.1, 1.0, 10.0),
) -> AuditReport:
    """Randomized check of the three norm inequalities the theory rests on.

    For each trial element u (random coefficients rescaled so norm_alpha
    cycles through `scales`):

      (a)  norm_l2  <= T**alpha / Gamma(alpha + 1) * norm_alpha + tol
      (b)  norm_inf <= embedding_constant * norm_alpha + tol
      (c)  |cos(pi alpha)| * norm_alpha**2 - tol <= Phi(u)
                                  <= norm_alpha**2 / |cos(pi alpha)| + tol

    Coefficients decay like k^-3: the inequalities are continuum facts,
    and for smooth elements their margins dominate quadrature error,
    which a flat spectrum would instead surface.  The lower bound in (c)
    approaches equality at high frequency, so that clause alone adds the
    coercivity_slack resolution term to tol; (a), (b) and the upper half
    of (c) keep order-one margins and the plain tol.  Phi is evaluated
    through the energy module on an assembly built for this model.
    Violations are reported, never raised.
    """
    # deferred: energy imports space
    from .energy import build_assembly, coercivity_slack, eval_phi

    if trials < 1:
        raise ValueError("audit needs at least one trial")
    asm = build_assembly(model)
    cfg = model.config
    l2_const = cfg.T ** cfg.alpha / euler_gamma(cfg.alpha + 1.0)
    cos_a = abs(math.cos(math.pi * cfg.alpha))

    rng = np.random.default_rng(seed)
    report = AuditReport(0, 0, 0, 0.0, 0.0, seed)
    decay = np.arange(1.0, model.k_max + 1.0) ** -3
    for trial in range(trials):
        raw = rng.standard_normal(model.k_max) * decay
        probe = SpectralElement(raw)
        base = norms(probe, model).norm_alpha
        target = scales[trial % len(scales)]
        u = SpectralElement(raw * (target / base))
        na, nl2, ninf = norms(u, model)
        tol = 1e-8 * (1.0 + na * na)
        # the lower bound in (c) is tight at high frequency, so it gets the
        # same resolution slack the assembly check uses on top of tol
        tol_c = tol + cos_a * na * na * coercivity_slack(cfg.alpha, cfg.n, model.k_max)
        phi = eval_phi(u, asm)

        ok_a = nl2 <= l2_const * na + tol
        ok_b = ninf <= model.embedding_constant * na + tol
        ok_c = (cos_a * na * na - tol_c <= phi) and (phi <= na * na / cos_a + tol)
        if not ok_a:
            report.violations_a += 1
        if not ok_b:
            report.violations_b += 1
        if not ok_c:
            report.violations_c += 1
        if not (ok_a and ok_b and ok_c):
            report.offenders.append(u.coeffs.copy())
        report.tightest_ratio_a = max(report.tightest_ratio_a, nl2 / (l2_const * na))
        report.tightest_ratio_b = max(
            report.tightest_ratio_b, ninf / (model.embedding_constant * na)
        )
    return report
