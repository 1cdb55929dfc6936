"""Energy functionals over the spectral model.

Phi is the quadratic form built from minus the weighted pairing of left
and right Caputo images, Psi integrates a nonlinearity's potential along
the synthesized element, and J(mu) = Phi - mu * Psi is the functional the
solver descends.  The symmetrized pairing matrix is cached with the Gram
matrix of the left images; an exact lower-bound check at assembly time
guards against under-resolved discretizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResolutionError
from .space import SpaceModel

__all__ = [
    "Nonlinearity",
    "power_sum",
    "affine_power",
    "sqrt_plus",
    "zero_datum",
    "table_datum",
    "from_tag",
    "potential_peaks",
    "NONLINEARITY_TAGS",
    "EnergyAssembly",
    "build_assembly",
]

_FLAG_PROBE = np.concatenate([np.linspace(-10.0, 10.0, 81), [0.0]])
_FLAG_PROBE.setflags(write=False)  # every datum's f and F read it


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """A continuous right-hand side f with its potential F(x) = int_0^x f.

    f and F are vectorized callables.  Both are probed on [-10, 10] at
    construction, and a wrong shape or a non-finite sample is rejected.
    The two flags are structural claims consumed by the admissibility
    checks; they are checked against the samples of f, so a mislabeled
    datum fails fast.
    """

    kind: str
    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    nonnegative: bool
    vanishes_at_zero: bool
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # an overflow or a pole shows as a non-finite sample, not a warning
        with np.errstate(all="ignore"):
            samples = np.asarray(self.f(_FLAG_PROBE), dtype=float)
            potential = np.asarray(self.F(_FLAG_PROBE), dtype=float)
        for name, values in (("f", samples), ("F", potential)):
            if values.shape != _FLAG_PROBE.shape or not np.isfinite(values).all():
                raise ValueError(
                    f"nonlinearity {self.kind!r}: {name} must map arrays to finite arrays"
                )
        scale = 1.0 + float(np.abs(samples).max())
        if self.nonnegative and float(samples.min()) < -1e-10 * scale:
            raise ValueError(
                f"nonlinearity {self.kind!r} claims f >= 0 but probes found "
                f"min f = {samples.min():.3e}"
            )
        f0 = float(samples[-1])  # the probe ends at 0
        if self.vanishes_at_zero and abs(f0) > 1e-10:
            raise ValueError(
                f"nonlinearity {self.kind!r} claims f(0) = 0 but f(0) = {f0:.3e}"
            )
        if abs(float(potential[-1])) > 1e-12:
            raise ValueError(f"nonlinearity {self.kind!r}: potential must vanish at 0")


def _operand(p: float) -> np.ndarray:
    """p as a 0-d float64 array, for a potential's exponents and divisors.

    The golden section of the conditions layer calls F on one point at a
    time, where converting a Python float costs each ufunc call about a
    quarter of its time; the 0-d array skips that.  The values are the
    same float64 either way, and no exponent passed here (1 < r < 2 < s,
    q > 2) is one that numpy shortcuts for a Python number (0, +-1, 0.5,
    2), so each power is the np.power call it was with the float, bit
    for bit.
    """
    return np.array(p, dtype=float)


def power_sum(r: float, s: float) -> Nonlinearity:
    """f(x) = x**(r-1) + x**(s-1) for x >= 0, zero otherwise; 1 < r < 2 < s."""
    if not 1.0 < r < 2.0 < s:
        raise ValueError(f"power_sum needs 1 < r < 2 < s, got r={r}, s={s}")
    r_, s_ = _operand(r), _operand(s)

    def f(x):
        xp = np.maximum(np.asarray(x, dtype=float), 0.0)
        return xp ** (r - 1.0) + xp ** (s - 1.0)

    def F(x):
        xp = np.maximum(np.asarray(x, dtype=float), 0.0)
        return xp ** r_ / r_ + xp ** s_ / s_

    return Nonlinearity("power_sum", f, F, True, True, {"r": r, "s": s})


def affine_power(q: float) -> Nonlinearity:
    """f(x) = 1 + |x|**(q-2) x with q > 2: nonzero at the origin, superquadratic tail."""
    if not q > 2.0:
        raise ValueError(f"affine_power needs q > 2, got q={q}")
    q_ = _operand(q)

    def f(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + np.abs(x) ** (q - 2.0) * x

    def F(x):
        x = np.asarray(x, dtype=float)
        return x + np.abs(x) ** q_ / q_

    return Nonlinearity("affine_power", f, F, False, False, {"q": q})


def sqrt_plus() -> Nonlinearity:
    """f(x) = sqrt(x) for x >= 0, zero otherwise."""

    def f(x):
        return np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0))

    def F(x):
        return (2.0 / 3.0) * np.maximum(np.asarray(x, dtype=float), 0.0) ** 1.5

    return Nonlinearity("sqrt_plus", f, F, True, True, {})


def zero_datum() -> Nonlinearity:
    """The trivial right-hand side."""

    def f(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Nonlinearity("zero", f, f, True, True, {})


def _piecewise_quadratic_potential(xs: np.ndarray, fs: np.ndarray, f0: float):
    """Exact antiderivative (vanishing at 0) of the interpolant of (xs, fs).

    f0 is the interpolant at 0; the knot (0, f0) joins the table (or
    replaces its knot at 0), which leaves the interpolant and its constant
    continuation as they were.  Per segment the interpolant is linear, so
    the potential is a quadratic.  The knot integrals accumulate outward
    from the knot at 0 and each segment's quadratic is expanded about its
    end nearer 0, keeping roundoff relative to the value itself; a form
    anchored at a far knot loses everything below one ulp of the
    cumulative.  Outside the knots f continues constant and the potential
    linearly; F writes those two rays only into the points beyond the
    first and last knot.
    """
    z, above = np.searchsorted(xs, 0.0, side="left"), np.searchsorted(xs, 0.0, side="right")
    xs = np.concatenate([xs[:z], [0.0], xs[above:]])
    fs = np.concatenate([fs[:z], [f0], fs[above:]])
    nseg = len(xs) - 1
    slopes = np.diff(fs) / np.diff(xs)
    panel = 0.5 * (fs[:-1] + fs[1:]) * np.diff(xs)
    knot_int = np.concatenate([-np.cumsum(panel[:z][::-1])[::-1], [0.0], np.cumsum(panel[z:])])

    # per segment: the end nearer 0, f there, and the integral from 0 to it
    near = np.arange(nseg)
    near[:z] += 1
    anchor, f_anchor, i_anchor = xs[near], fs[near], knot_int[near]

    # searching the inner knots gives the segment j with xs[j] <= x < xs[j + 1],
    # the first below xs[1] and the last from xs[-2] on, NaN included
    inner = xs[1:-1]
    x_lo, x_hi, k_lo, k_hi, f_lo, f_hi = xs[0], xs[-1], knot_int[0], knot_int[-1], fs[0], fs[-1]

    def F(x):
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(inner, x, side="right")
        dx = x - anchor[j]
        # a 0-d x gives a scalar here; as a 0-d array it takes the masked writes
        out = np.asarray(i_anchor[j] + dx * f_anchor[j] + 0.5 * dx * dx * slopes[j])
        lo, hi = x < x_lo, x > x_hi
        out[lo] = k_lo + (x[lo] - x_lo) * f_lo
        out[hi] = k_hi + (x[hi] - x_hi) * f_hi
        return out

    return F


def table_datum(xs, fs) -> Nonlinearity:
    """Nonlinearity from sample pairs, linearly interpolated.

    Outside the knot range f continues with its edge values.  The
    potential is the exact antiderivative of the interpolant, so probes
    of F near 0 see the interpolant's behavior, not integration noise,
    whether or not 0 is a knot.  Non-finite knots or samples are
    rejected.  Both flags are read from the samples (every fs >= 0;
    |f(0)| <= 1e-10).
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 2:
        raise ValueError("table needs matching 1-d arrays with at least two knots")
    if not np.isfinite(xs).all():
        raise ValueError("table abscissae must be finite")
    if not np.isfinite(fs).all():
        raise ValueError("table samples must be finite")
    if not (np.diff(xs) > 0).all():
        raise ValueError("table abscissae must be strictly increasing")

    def f(x):
        return np.interp(np.asarray(x, dtype=float), xs, fs)

    f0 = float(np.interp(0.0, xs, fs))
    F = _piecewise_quadratic_potential(xs, fs, f0)
    return Nonlinearity(
        "table",
        f,
        F,
        bool((fs >= 0.0).all()),
        abs(f0) <= 1e-10,
        {"xs": xs.tolist(), "fs": fs.tolist()},
    )


NONLINEARITY_TAGS = {
    "power_sum": power_sum,
    "affine_power": affine_power,
    "sqrt_plus": sqrt_plus,
    "zero": zero_datum,
    "table": table_datum,
}


def from_tag(kind: str, **params) -> Nonlinearity:
    """Build a catalog nonlinearity from its tag and parameters."""
    try:
        factory = NONLINEARITY_TAGS[kind]
    except KeyError:
        raise ValueError(
            f"unknown nonlinearity kind {kind!r}; known: {sorted(NONLINEARITY_TAGS)}"
        ) from None
    return factory(**params)


def potential_peaks(nl: Nonlinearity) -> np.ndarray | None:
    """Interior local maxima of F: the points where f crosses from + to -.

    Read from kind and params alone, so any copy of a catalog datum that
    keeps those two has the same peaks.  A table's peaks are the zeros
    of its interpolant on the segments with f_a > 0 >= f_b; nonnegative
    data and affine_power have none (the one critical point of
    affine_power, -1, is a minimum).  A signed datum outside the catalog
    gives None.
    """
    if nl.nonnegative or nl.kind == "affine_power":
        return np.empty(0)
    if nl.kind != "table":
        return None
    xs = np.asarray(nl.params["xs"], dtype=float)
    fs = np.asarray(nl.params["fs"], dtype=float)
    a = np.flatnonzero((fs[:-1] > 0.0) & (fs[1:] <= 0.0))
    return xs[a] + fs[a] / (fs[a] - fs[a + 1]) * (xs[a + 1] - xs[a])


@dataclass(frozen=True, eq=False)
class EnergyAssembly:
    """Cached matrices of the energy form over one space model.

    symmetric is M_s = (M + M') / 2 for the pairing M[j][k] =
    -sum_i w_i DL_j(t_i) DR_k(t_i), gram the same pairing of DL with
    itself.  Phi of an element is the M_s quadratic form of its coefficients.
    """

    space: SpaceModel
    symmetric: np.ndarray
    gram: np.ndarray

    def __post_init__(self) -> None:
        for name in ("symmetric", "gram"):
            getattr(self, name).setflags(write=False)

    def phi(self, c: np.ndarray) -> float:
        """Phi of the element with coefficients c: the M_s quadratic form."""
        return float(c @ self.symmetric @ c)

    def psi(self, synth: np.ndarray, nl: Nonlinearity) -> float:
        """Psi of the element with nodal values synth: the trapezoid integral of F."""
        return float(self.space.weights @ np.asarray(nl.F(synth), dtype=float))

    def objective(self, mu: float, nl: Nonlinearity):
        """J_mu = Phi - mu Psi and its gradient, as (energy, gradient).

        energy(c, phi=None) returns (J, synthesis), reusing Phi of c when
        given; gradient(c, synthesis) returns (M_s + M_s) c - mu B (w f(u)),
        the exact derivative of the discrete energy (M_s + M_s is M + M').
        The synthesis c B and the adjoint B y are the space's synthesize
        and analyze.
        """
        synthesize, analyze = self.space.synthesize, self.space.analyze
        w = self.space.weights
        M_sum = self.symmetric + self.symmetric
        phi_of, psi_of, f = self.phi, self.psi, nl.f

        def energy(c: np.ndarray, phi: float | None = None):
            synth = synthesize(c)
            if phi is None:
                phi = phi_of(c)
            return phi - mu * psi_of(synth, nl), synth

        def gradient(c: np.ndarray, synth: np.ndarray) -> np.ndarray:
            return M_sum @ c - mu * analyze(w * np.asarray(f(synth), dtype=float))

        return energy, gradient


_SLACK_COEFF = 4.0


def coercivity_slack(alpha: float, n: int, k_max: int) -> float:
    """Relative slack for the discrete left/right pairing lower bound.

    The pairing equals |cos(pi alpha)| times the Gram form only up to the
    quadrature error of the derivative images, which for the top mode
    scales like (k_max/n)^(2-alpha).  Measured against the exact worst
    case of build_assembly, the constant is below 2 across alpha in
    [0.6, 0.9] and 3.3 to 3.6 at alpha 0.55, so 4 admits those grids
    while an actual sign defect (order one) trips the check.  Towards
    alpha = 1/2 it grows (4.0 to 4.4 at 0.54, about 8 at 0.52), so
    there every grid tested, up to n = 16384, raises.
    """
    return _SLACK_COEFF * (k_max / n) ** (2.0 - alpha)


def build_assembly(model: SpaceModel) -> EnergyAssembly:
    """Assemble and verify the energy matrices for a model.

    The verification requires x' M_s x >= |cos(pi alpha)| x' G x for
    every coefficient vector x, up to the resolution slack of
    coercivity_slack plus a 1e-12 roundoff guard.  It reads the worst x
    exactly: the smallest eigenvalue of the pencil (M_s, |cos(pi alpha)| G),
    reduced to a symmetric problem by the Cholesky factor of G.  A deeper
    violation means the discretization cannot support the coercivity the
    continuum form guarantees, and raises ResolutionError.
    """
    dl = model.caputo_left_images
    dr = model.caputo_right_images
    w = model.weights
    bilinear = -np.einsum("ji,i,ki->jk", dl, w, dr)
    symmetric = 0.5 * (bilinear + bilinear.T)
    gram = np.einsum("ji,i,ki->jk", dl, w, dl)

    cos_a = abs(math.cos(math.pi * model.alpha))
    slack = coercivity_slack(model.alpha, model.config.n, model.k_max)
    worst = _pencil_eigvalsh(np.linalg.cholesky(gram), symmetric)[0] / cos_a
    if worst < 1.0 - slack - 1e-12:
        raise ResolutionError(
            f"energy form lost coercivity at alpha={model.alpha}, "
            f"n={model.config.n}, k_max={model.k_max}: min Phi(u) / (|cos(pi alpha)| "
            f"|u|_alpha^2) = {worst:.6e} < 1 - {slack:.2e}; the measured constant "
            f"(1 - min) / (k_max/n)^(2-alpha) = {_SLACK_COEFF * (1.0 - worst) / slack:.3g} "
            f"exceeds the slack's {_SLACK_COEFF:g}, and both sides shrink at the same rate, "
            "so a finer grid does not pass to leading order"
        )
    return EnergyAssembly(model, symmetric, gram)


def _pencil_eigvalsh(L: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the pencil (A, L L') for symmetric A: those of L^-1 A L^-T."""
    return np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, A).T))
