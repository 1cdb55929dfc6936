"""Admissibility thresholds for the parametric problem.

Everything here is scalar bookkeeping ahead of any solve: the constant
kappa_alpha, the supremum of gamma^2 / max_{|xi| <= gamma} F(xi) over a
log-spaced probe grid, the induced parameter threshold mu_star,
tri-state probes for the limit conditions at 0+ and at infinity, and the
closed forms available for the two-power catalog datum.  The admissible
interval (0, mu_star) for nonnegative data is a field of the report,
ConditionReport.lambda_right_endpoint, not a separate computation.

The window maximum max_{|xi| <= gamma} F(xi) is exact, not sampled: it
is attained at +-gamma, at 0, or at one of F's interior local maxima
(the points where f crosses from + to -), which the catalog supplies
through energy.potential_peaks.

Numerical probes cannot certify limits, so every limit verdict is a
TriState and a supremum attained at the edge of the probe grid is
flagged rather than extrapolated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .codec import JsonCodec
from .energy import Nonlinearity, potential_peaks
from .errors import HypothesisError
from .frac_kernel import check_order, euler_gamma

__all__ = [
    "TriState",
    "SupRatio",
    "LimitProbes",
    "ExampleForms",
    "ConditionReport",
    "kappa_alpha",
    "sup_ratio",
    "limit_probes",
    "example_closed_forms",
    "evaluate_conditions",
]

PROBE_GAMMA_MIN = 1e-6
PROBE_GAMMA_MAX = 1e6
COARSE_POINTS = 2001
DIVERGENCE_THRESHOLD = 1e6
SMALL_PROBE_DEPTH = 14
LARGE_PROBE_DEPTH = 8
_REFINE_REL_TOL = 1e-8
_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# the probe grids, built once and shared by every report, so the arrays
# a datum sees are read-only: the coarse grid with its squares and the
# abscissae the trace keeps, and the two limit ladders xi = 10^-k, 10^k
_COARSE_GAMMAS = _read_only(np.geomspace(PROBE_GAMMA_MIN, PROBE_GAMMA_MAX, COARSE_POINTS))
_COARSE_SQUARES = _read_only(_COARSE_GAMMAS ** 2)
_TRACE_GAMMAS = _COARSE_GAMMAS[::40].tolist()
_SMALL_LADDER = _read_only(np.array([10.0 ** -k for k in range(1, SMALL_PROBE_DEPTH + 1)]))
_LARGE_LADDER = _read_only(np.array([10.0 ** k for k in range(1, LARGE_PROBE_DEPTH + 1)]))


class TriState(str, enum.Enum):
    """Verdict of a numerical probe of an analytic condition."""

    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


def kappa_alpha(alpha: float, T: float) -> float:
    """T^(2 alpha) / (Gamma(alpha)^2 |cos(pi alpha)| (2 alpha - 1)), finite and positive.

    A T that overflows it (1e300) or underflows it to 0 (1e-300) raises ValueError.
    """
    a = check_order(alpha, differentiation=True)
    if not T > 0.0:
        raise ValueError(f"interval length must be positive, got T={T}")
    g = euler_gamma(a)
    try:
        kappa = T ** (2.0 * a) / (g * g * abs(math.cos(math.pi * a)) * (2.0 * a - 1.0))
    except OverflowError:
        kappa = math.inf
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa_alpha at alpha={a}, T={T} is {kappa!r}; rescale T")
    return kappa


@dataclass(frozen=True)
class SupRatio:
    """Supremum of gamma^2 / max_{|xi| <= gamma} F over the probe grid.

    value may be +inf (the 1/0 convention when max F vanishes).
    at_boundary marks a supremum attained at the edge of the grid, where
    the true supremum may lie outside the probed range.
    """

    value: float
    gamma_bar: float
    at_boundary: bool = False


def _golden_max(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section maximizer of g on log-spaced [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    x1 = b - _INVGOLD * (b - a)
    x2 = a + _INVGOLD * (b - a)
    g1, g2 = g(math.exp(x1)), g(math.exp(x2))
    while b - a > _REFINE_REL_TOL:
        if g1 < g2:
            a, x1, g1 = x1, x2, g2
            x2 = a + _INVGOLD * (b - a)
            g2 = g(math.exp(x2))
        else:
            b, x2, g2 = x2, x1, g1
            x1 = b - _INVGOLD * (b - a)
            g1 = g(math.exp(x1))
    return math.exp(0.5 * (a + b))


def _grid_sup(gammas: np.ndarray, ratios: np.ndarray, g: Callable[[float], float]):
    """Best probe plus golden-section refinement of its bracket.

    Returns a SupRatio. Infinite ratios short-circuit to the first such
    probe; a best probe at either grid edge is reported as attained at
    the boundary and left unrefined.
    """
    if np.isinf(ratios).any():
        i = int(np.argmax(np.isinf(ratios)))
        return SupRatio(math.inf, float(gammas[i]), i in (0, len(gammas) - 1))
    i = int(np.argmax(ratios))
    if i in (0, len(gammas) - 1):
        return SupRatio(float(ratios[i]), float(gammas[i]), True)
    gbar = _golden_max(g, float(gammas[i - 1]), float(gammas[i + 1]))
    best, arg = float(ratios[i]), float(gammas[i])
    refined = g(gbar)
    if refined > best:
        best, arg = refined, gbar
    return SupRatio(best, arg, False)


def _window_max(nl: Nonlinearity) -> Callable[[np.ndarray], np.ndarray]:
    """The map gammas -> max_{|xi| <= gamma} F(xi), exact at every gamma.

    The maximum over [-gamma, gamma] is attained at an endpoint, at 0
    (F(0) = 0), or at an interior local maximum p of F with |p| <= gamma.
    The peak values are read once, as a running max ordered by |p|, so
    each gamma costs F(+-gamma), read in one call of F, and one lookup.
    Two kinds need F(gamma) alone.  Nonnegative data have no peaks and F
    is nondecreasing from F(0) = 0.  affine_power has no peaks either, and its F(+-gamma) =
    |gamma|**q / q +- gamma share the power term, so F(gamma) >= F(-gamma)
    holds after rounding too, and F(gamma) > 0.
    """
    F = nl.F
    if nl.nonnegative or nl.kind == "affine_power":
        return lambda gammas: np.asarray(F(gammas), dtype=float)
    peaks = potential_peaks(nl)
    if peaks is None:
        raise HypothesisError(
            f"signed datum {nl.kind!r} has no known peaks of its potential, "
            "so max F over [-gamma, gamma] cannot be computed"
        )
    order = np.argsort(np.abs(peaks))
    radii = np.abs(peaks)[order]
    # inner[k]: max of F(0) = 0 and the k peaks nearest the origin
    inner = np.maximum.accumulate(
        np.concatenate(([0.0], np.asarray(F(peaks[order]), dtype=float)))
    )

    def window_max(gammas: np.ndarray) -> np.ndarray:
        both = np.asarray(F(np.concatenate([gammas, -gammas])), dtype=float)
        ends = np.maximum(both[: len(gammas)], both[len(gammas) :])
        return np.maximum(ends, inner[np.searchsorted(radii, gammas, side="right")])

    return window_max


def sup_ratio(nl: Nonlinearity) -> SupRatio:
    """Supremum over gamma > 0 of gamma^2 / max_{|xi| <= gamma} F(xi).

    Coarse pass on a 2001-point log grid; the winning bracket is refined
    by golden section. Both read the exact window maximum, so every
    probed ratio is exact up to rounding and only the probe grid limits
    the supremum. A signed datum outside the catalog raises
    HypothesisError.
    """
    return _grid_sup(*_coarse_scan(nl))


def _coarse_scan(nl: Nonlinearity):
    """(gammas, ratios, g): the coarse grid, its ratios, and the ratio at one gamma."""
    gammas = _COARSE_GAMMAS
    window_max = _window_max(nl)
    window = window_max(gammas)
    # 1/0 convention: a window max <= 0 gives +inf; a subnormal one overflows to the same inf
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.where(window > 0.0, _COARSE_SQUARES / window, np.inf)

    def g(gamma: float) -> float:
        e = float(window_max(np.array([gamma]))[0])
        return gamma * gamma / e if e > 0.0 else math.inf

    return gammas, ratios, g


@dataclass(frozen=True)
class LimitProbes:
    """Tri-state verdicts for the three limit conditions."""

    s0: TriState
    sinf: TriState
    zero: TriState


def _trend(values: list[float]) -> tuple[bool, bool]:
    """(no genuine decrease, no genuine increase) under a relative tolerance."""
    no_dec = no_inc = True
    for a, b in zip(values, values[1:]):
        if math.isinf(a) or math.isinf(b):
            if b < a:
                no_dec = False
            if b > a:
                no_inc = False
            continue
        tol = 1e-9 * max(abs(a), abs(b), 1e-300)
        if b - a < -tol:
            no_dec = False
        if b - a > tol:
            no_inc = False
    return no_dec, no_inc


def _divergence_verdict(values: list[float], threshold: float) -> TriState:
    # certifying a limit = +inf needs growth at every probe, not just a big tail
    no_dec, no_inc = _trend(values)
    if no_dec and not no_inc and values[-1] > threshold:
        return TriState.HOLDS
    if no_inc and max(values) < threshold:
        return TriState.FAILS
    return TriState.INCONCLUSIVE


def _threshold_verdict(values: list[float], threshold: float) -> TriState:
    # limsup against a finite threshold: a flat sequence is decided by level
    no_dec, no_inc = _trend(values)
    if no_dec and values[-1] > threshold:
        return TriState.HOLDS
    if no_inc and all(math.isfinite(v) for v in values) and max(values) < threshold:
        return TriState.FAILS
    return TriState.INCONCLUSIVE


def limit_probes(nl: Nonlinearity, kappa: float) -> LimitProbes:
    """Probe the limit conditions on geometric ladders of xi.

    s0 probes f(xi)/xi -> +inf and zero probes F(xi)/xi^2 -> +inf, both
    as xi -> 0+ along xi = 10^-k; sinf probes limsup xi^2/F(xi) > kappa
    as xi -> +inf along xi = 10^k, with a nonpositive F read as ratio
    +inf. holds needs the probe sequence trending the right way past the
    threshold, fails needs it bounded the wrong way, and anything else
    is inconclusive.
    """
    small, large = _SMALL_LADDER.tolist(), _LARGE_LADDER.tolist()
    f_small = np.asarray(nl.f(_SMALL_LADDER), dtype=float).tolist()
    F_small = np.asarray(nl.F(_SMALL_LADDER), dtype=float).tolist()
    F_large = np.asarray(nl.F(_LARGE_LADDER), dtype=float).tolist()
    s0_seq = [v / x for v, x in zip(f_small, small)]
    zero_seq = [v / (x * x) for v, x in zip(F_small, small)]
    sinf_seq = [x * x / v if v > 0.0 else math.inf for v, x in zip(F_large, large)]

    return LimitProbes(
        s0=_divergence_verdict(s0_seq, DIVERGENCE_THRESHOLD),
        sinf=_threshold_verdict(sinf_seq, kappa),
        zero=_divergence_verdict(zero_seq, DIVERGENCE_THRESHOLD),
    )


class ExampleForms(NamedTuple):
    """Closed forms for the two-power datum f = xi^(r-1) + xi^(s-1)."""

    gamma_bar: float
    mu_bound: Callable[[float, float], float]


def example_closed_forms(r: float, s: float) -> ExampleForms:
    """Maximizing radius and parameter bound for the two-power datum.

    gamma_bar = (s(2-r)/(r(s-2)))^(1/(s-r)) is the stationary point of
    gamma^2/F(gamma); mu_bound(alpha, T) is the ratio there divided by
    kappa_alpha. Must match the generic optimizer on power_sum(r, s).
    """
    if not 1.0 < r < 2.0 < s:
        raise ValueError(f"closed forms need 1 < r < 2 < s, got r={r}, s={s}")
    gbar = (s * (2.0 - r) / (r * (s - 2.0))) ** (1.0 / (s - r))

    def mu_bound(alpha, T: float) -> float:
        return (
            r * s * gbar ** (2.0 - r)
            / (kappa_alpha(alpha, T) * (s + r * gbar ** (s - r)))
        )

    return ExampleForms(gbar, mu_bound)


@dataclass(frozen=True)
class ConditionReport(JsonCodec):
    """Everything the admissibility analysis produced for one datum.

    probes keeps every 40th (gamma, ratio) pair of the coarse scan that
    the supremum was taken over, with the refined argmax
    (gamma_bar, sup_ratio) appended last, so gamma_bar attains the
    maximal ratio among the retained pairs. Every ratio, signed data
    included, reads the exact window maximum of F. lambda_right_endpoint,
    the right end of the admissible interval, is mu_star for nonnegative
    data and None otherwise; sup_at_boundary flags it.
    """

    kappa_alpha: float
    sup_ratio: float
    gamma_bar: float
    sup_at_boundary: bool
    mu_star: float
    lambda_right_endpoint: float | None
    sg_holds: TriState
    s0_holds: TriState
    sinf_holds: TriState
    zero_holds: TriState
    probes: tuple[tuple[float, float], ...] = field(repr=False)


def evaluate_conditions(nl: Nonlinearity, alpha, T: float) -> ConditionReport:
    """Assemble the full admissibility report for one datum.

    sg_holds is decided by comparing the probed supremum with
    kappa_alpha: a probe exceeding it certifies the condition (a grid
    supremum only underestimates), while a sub-threshold supremum
    attained at the grid edge stays inconclusive.
    """
    kappa = kappa_alpha(alpha, T)
    gammas, ratios, g = _coarse_scan(nl)
    sup = _grid_sup(gammas, ratios, g)
    mu = sup.value / kappa

    if sup.value > kappa:
        sg = TriState.HOLDS
    elif sup.at_boundary:
        sg = TriState.INCONCLUSIVE
    else:
        sg = TriState.FAILS

    # the admissible interval (0, mu_star) is defined for nonnegative data only
    lam = mu if nl.nonnegative else None

    lim = limit_probes(nl, kappa)

    trace = list(zip(_TRACE_GAMMAS, ratios[::40].tolist()))
    trace.append((sup.gamma_bar, sup.value))

    return ConditionReport(
        kappa_alpha=kappa,
        sup_ratio=sup.value,
        gamma_bar=sup.gamma_bar,
        sup_at_boundary=sup.at_boundary,
        mu_star=mu,
        lambda_right_endpoint=lam,
        sg_holds=sg,
        s0_holds=lim.s0,
        sinf_holds=lim.sinf,
        zero_holds=lim.zero,
        probes=tuple(trace),
    )
