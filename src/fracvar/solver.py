"""Constrained local minimization of the energy J_mu.

The minimizer lives in the open sublevel set Phi < r fixed by the ratio
argmax gamma_bar.  Descent is projected Barzilai-Borwein with Armijo
backtracking; the projection is a radial rescale, exact because Phi is a
positive-definite quadratic form of the coefficients.  Verification is
separate from search: the weak residual measures deviation of the
reconstructed first-order map from a constant, and certify() turns one
record into explicit pass/fail certificates.  minimize shares its
restarts with children it forks for the call, which inherit its data;
the records are the serial ones bit for bit.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import conditions as cond
from .codec import JsonCodec, custom
from .energy import EnergyAssembly, Nonlinearity
from .errors import FracvarError
from .frac_kernel import (
    FracOrder,
    GridFunction,
    cumulative_trapezoid,
    rl_left_integral,
    rl_right_integral,
)
from .space import SpaceModel, SpectralElement, build_space, embedding_constant, norms

if TYPE_CHECKING:
    from .problem import ProblemSpec

__all__ = [
    "SolverConfig",
    "SolutionRecord",
    "CertificateSet",
    "sublevel_radius",
    "minimize",
    "weak_residual",
    "weak_residual_values",
    "residual_tolerance",
    "certify",
    "RESIDUAL_TOL_COEFF",
]

# calibrated against the alpha = 1 oracle and an alpha = 0.75 refinement
# study (scripts/calibrate_residual_tol.py); covers both with ~10x slack
RESIDUAL_TOL_COEFF = 0.05

_START_AMPLITUDES = (1e-3, 1e-2, 1e-1)
_TIE_TOL = 1e-10
# per-restart fields a record keeps; stop is "grad_tol", "max_iters", "line_search"
# or "nonfinite" (a projection, energy or gradient overflowed or became NaN)
_CANDIDATE_KEYS = ("energy", "norm_alpha", "grad_norm", "iters", "converged", "stop", "backtracks")


def _is_real(value) -> bool:
    """True for an int or float that is not a bool: what a JSON number decodes to."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-8
    max_iters: int = 5000
    restarts: int = 8
    seed: int = 0
    # fixed line-search and sublevel constants, not settings
    armijo_c: ClassVar[float] = 1e-4
    backtrack_factor: ClassVar[float] = 0.5
    sublevel_margin: ClassVar[float] = 0.99

    def __post_init__(self) -> None:
        if not (_is_real(self.grad_tol) and 0.0 < self.grad_tol < math.inf):
            raise ValueError(f"grad_tol must be a positive finite number, got {self.grad_tol!r}")
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def sublevel_radius(gamma_bar: float, alpha, T: float) -> float:
    """r = |cos(pi alpha)| gamma_bar^2 / c^2, the energy cap of the search set.

    Also equals T gamma_bar^2 / kappa_alpha, which the tests pin.
    """
    a = FracOrder.derivative(alpha).value
    if not gamma_bar > 0.0:
        raise ValueError(f"gamma_bar must be positive, got {gamma_bar}")
    c = embedding_constant(a, T)
    return abs(math.cos(math.pi * a)) * gamma_bar * gamma_bar / (c * c)


@dataclass(frozen=True)
class SolutionRecord(JsonCodec):
    """One solve at one mu, with everything the reports need.

    energy is phi - mu*psi by construction.  nontrivial is the certified
    conjunction: converged, norm_alpha above 1e-6, negative energy.
    candidates keeps the per-restart outcomes so a sweep can distinguish
    minimizer switching from discretization artifacts.
    """

    coeffs: SpectralElement = field(metadata=custom(lambda u: u.coeffs.tolist(), SpectralElement))
    mu: float
    norm_alpha: float
    norm_inf: float
    phi: float
    psi: float
    energy: float
    residual: float
    converged: bool
    nontrivial: bool
    restarts_used: int
    gamma_bar: float
    r_radius: float
    candidates: tuple[dict, ...] = field(repr=False)
    node_values: tuple[float, ...] = field(repr=False)


@np.errstate(all="ignore")
def _descend(
    x0: np.ndarray,
    mu: float,
    nl: Nonlinearity,
    assembly: EnergyAssembly,
    cap: float,
    cfg: SolverConfig,
    t0: float,
) -> dict:
    """One projected BB descent from x0.

    Each point is synthesized once and its Phi formed once: the
    projection returns Phi with the point (recomputed only after a
    radial rescale), the trial energy reuses it, and the accepted
    point's gradient reuses the trial's synthesis.  A non-finite Phi,
    energy or gradient ends the run as "nonfinite" at the last finite
    iterate, without a floating-point warning.  Returns the final x
    with its energy, phi, grad_norm, iters, backtracks (step shrinks)
    and stop reason.
    """
    energy, gradient = assembly.objective(mu, nl)
    phi_of = assembly.phi
    grad_tol, armijo_c, shrink = cfg.grad_tol, cfg.armijo_c, cfg.backtrack_factor
    t_min, t_max = 1e-18 * t0, 1e6 * t0

    def project(x: np.ndarray):
        p = phi_of(x)
        if cap <= p < math.inf and p > 0.0:  # an overflowed Phi is kept, and stops the run
            x = x * math.sqrt(cap / p)
            p = phi_of(x)
        return x, p

    x, phi = project(x0)
    Jx, synth = energy(x, phi)
    g = gradient(x, synth)
    x_prev = g_prev = None
    it = backtracks = 0
    stop = "max_iters"
    for it in range(1, cfg.max_iters + 1):
        gn = math.sqrt(float(g @ g))
        if not (math.isfinite(gn) and math.isfinite(Jx)):
            stop = "nonfinite"
            break
        if gn <= grad_tol and phi < cap:
            stop = "grad_tol"
            break
        if x_prev is not None:
            dx = x - x_prev
            dg = g - g_prev
            denom = float(dx @ dg)
            t = float(dx @ dx) / denom if denom > 0.0 else t0
            t = min(max(t, 1e-14), t_max)
        else:
            t = t0
        while t > t_min:
            v, phi_v = project(x - t * g)
            decrease = float(g @ (x - v))
            if decrease > 0.0:
                Jv, synth = energy(v, phi_v)  # a non-finite phi_v makes Jv non-finite
                if not math.isfinite(Jv):
                    stop = "nonfinite"
                    break
                if Jv <= Jx - armijo_c * decrease:
                    break
            elif not (math.isfinite(phi_v) and math.isfinite(decrease)):
                stop = "nonfinite"
                break
            t *= shrink
            backtracks += 1
        else:  # the step shrank below t_min without an Armijo decrease
            stop = "line_search"
            break
        if stop == "nonfinite":
            break
        x_prev, g_prev = x, g
        x, Jx, phi = v, Jv, phi_v
        g = gradient(x, synth)
    gn = math.sqrt(float(g @ g))
    return dict(x=x, energy=Jx, phi=phi, grad_norm=gn, iters=it, backtracks=backtracks, stop=stop)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_restarts(starts: list, descend) -> list[dict]:
    """descend(x0) for each start, in start order, shared with forked children.

    This process and min(len(starts), available CPUs) - 1 forked children
    take the next unclaimed start from one shared counter.  Each child
    pickles back its {index: run}, or the exception a run raised, which is
    raised here as it is; a child that sent no whole result (it died, or
    its exception does not pickle) raises FracvarError.  Every child is
    reaped before this returns, and killed first if this raises.  Serial
    with one worker, no fork start method, or in a daemonic process.
    """
    workers = min(len(starts), _available_cpus())
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return [descend(x0) for x0 in starts]
    # the next unclaimed start, in an anonymous shared map: it holds no file
    # descriptor, while a multiprocessing.Value's heap keeps one for good
    claimed = memoryview(mmap.mmap(-1, 8)).cast("q")
    lock = multiprocessing.get_context("fork").Lock()

    def share() -> dict:
        runs = {}
        while True:
            with lock:
                i, claimed[0] = claimed[0], claimed[0] + 1
            if i >= len(starts):
                return runs
            runs[i] = descend(starts[i])

    children = []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: its share sent back, then out at once
                try:
                    with os.fdopen(w, "wb") as out:
                        try:
                            result = share()
                        except BaseException as exc:
                            result = exc
                        pickle.dump(result, out)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        runs = share()
        for _, reader in children:
            try:
                result = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise FracvarError("a restart worker process died") from exc
            if isinstance(result, BaseException):
                raise result
            runs.update(result)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader in children:
            reader.close()
            os.waitpid(pid, 0)
    return [runs[i] for i in range(len(starts))]


def _checked_mu(mu) -> float:
    """mu as a float; ValueError unless it is finite and nonnegative."""
    mu = float(mu)
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    return mu


def minimize(
    problem: "ProblemSpec",
    mu: float,
    *,
    model: SpaceModel | None = None,
    assembly: EnergyAssembly | None = None,
    gamma_bar: float | None = None,
) -> SolutionRecord:
    """Multi-start constrained minimization of J_mu.

    Starts are the zero vector plus seeded random directions scaled to
    alpha-norm amplitudes cycling through 1e-3, 1e-2, 1e-1; small starts
    matter because for small mu the nontrivial minimum has small norm
    and a large-amplitude start can slide back to zero.  Among converged
    runs the lowest energy wins; ties within 1e-10 go to the smaller
    norm.  With no converged run the best finite iterate is returned
    with converged=False rather than raising, so sweeps survive bad
    points.  model is assembly.space, built when no assembly is given;
    any other model is a ValueError.  The restarts run in this process
    and in children forked for the call (_run_restarts); the record is
    the same bytes as serial restarts give.
    """
    mu = _checked_mu(mu)
    cfg = problem.solver
    if assembly is None:
        _, assembly = problem.build()
    if model is not None and model is not assembly.space:
        raise ValueError("model must be assembly.space, the space the assembly was built on")
    model = assembly.space
    nl = problem.nonlinearity
    if gamma_bar is None:
        gamma_bar = cond.sup_ratio(nl).gamma_bar
    r = sublevel_radius(gamma_bar, model.alpha, model.config.T)
    cap = cfg.sublevel_margin * r

    k = model.k_max
    G = assembly.gram
    lam_max = float(np.linalg.eigvalsh(assembly.symmetric + assembly.symmetric.T).max())
    t0 = 1.0 / lam_max

    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(k)]
    for j in range(1, cfg.restarts):
        d = rng.standard_normal(k)
        na = math.sqrt(float(d @ G @ d))
        starts.append(d * (_START_AMPLITUDES[(j - 1) % len(_START_AMPLITUDES)] / na))
    runs = _run_restarts(starts, lambda x0: _descend(x0, mu, nl, assembly, cap, cfg, t0))
    with np.errstate(all="ignore"):  # a nonfinite restart's own numbers may overflow
        for run in runs:
            x = run["x"]
            run["converged"] = run["grad_norm"] <= cfg.grad_tol and run["phi"] < cap
            run["norm_alpha"] = math.sqrt(max(float(x @ G @ x), 0.0))

        pool = (
            [r_ for r_ in runs if r_["converged"]]
            or [r_ for r_ in runs if math.isfinite(r_["energy"])]
            or runs
        )
        best = min(pool, key=lambda r_: (r_["energy"], r_["norm_alpha"]))
        for r_ in pool:
            if (
                r_ is not best
                and abs(r_["energy"] - best["energy"]) <= _TIE_TOL
                and r_["norm_alpha"] < best["norm_alpha"]
            ):
                best = r_

        u = SpectralElement(best["x"])
        nm = norms(u, model)
        synth = u.coeffs @ model.basis
        phi = assembly.phi(u.coeffs)
        psi = assembly.psi(synth, nl)
        energy = phi - mu * psi
        res = _residual_from_values(weak_residual_values(best["x"], mu, nl, model))
        node_values = tuple(synth.tolist())
    converged = bool(best["converged"])
    candidates = tuple({key: r_[key] for key in _CANDIDATE_KEYS} for r_ in runs)
    return SolutionRecord(
        coeffs=u,
        mu=mu,
        norm_alpha=nm.norm_alpha,
        norm_inf=nm.norm_inf,
        phi=phi,
        psi=psi,
        energy=energy,
        residual=res,
        converged=converged,
        nontrivial=converged and nm.norm_alpha > 1e-6 and energy < 0.0,
        restarts_used=cfg.restarts,
        gamma_bar=float(gamma_bar),
        r_radius=float(r),
        candidates=candidates,
        node_values=node_values,
    )


def weak_residual_values(
    coeffs, mu: float, nl: Nonlinearity, model: SpaceModel
) -> np.ndarray:
    """Nodal values of the first-order map whose constancy marks a solution.

    The map is the left fractional integral of order 1 - alpha of the
    left Caputo image, minus the right integral of the right image, plus
    the running integral of mu f(u).  At alpha = 1 both integrals are
    the identity and the map reduces to 2 u' + mu int f(u).
    """
    c = np.asarray(coeffs, dtype=float)
    grid = model.grid
    dl = c @ model.caputo_left_images
    dr = c @ model.caputo_right_images
    if model.alpha == 1.0:
        left, right = dl, dr
    else:
        order = 1.0 - model.alpha
        left = rl_left_integral(GridFunction(grid, dl), order).values
        right = rl_right_integral(GridFunction(grid, dr), order).values
    synth = c @ model.basis
    forcing = mu * cumulative_trapezoid(np.asarray(nl.f(synth), dtype=float), grid.h)
    return left - right + forcing


def _residual_from_values(map_vals: np.ndarray) -> float:
    # first/last 3 nodes carry the quadrature's boundary layer
    interior = map_vals[3 : len(map_vals) - 3]
    return float(np.max(np.abs(interior - interior.mean())))


def weak_residual(
    sol: SolutionRecord,
    problem: "ProblemSpec",
    model: SpaceModel | None = None,
) -> float:
    """Constancy deviation of the solution's first-order map.

    max_i |map(t_i) - mean(map)| over interior nodes, three trimmed at
    each end.  Pass the model when it is already built; otherwise the
    space is rebuilt from the problem (the energy assembly is not needed).
    """
    if model is None:
        model = build_space(problem.space_config)
    vals = weak_residual_values(
        np.asarray(sol.coeffs.coeffs), sol.mu, problem.nonlinearity, model
    )
    return _residual_from_values(vals)


def residual_tolerance(alpha, n: int, T: float = 1.0) -> float:
    """Accepted residual at resolution n: coeff * h^(1 - alpha).

    The reduced exponent reflects the endpoint-singular kernels; the
    coefficient is calibrated, not guessed.
    """
    a = FracOrder.derivative(alpha).value
    h = T / float(n)
    return RESIDUAL_TOL_COEFF * h ** (1.0 - a)


@dataclass(frozen=True)
class CertificateSet(JsonCodec):
    """Pass/fail certificates for one record.

    negative_energy is None when the hypotheses that would guarantee a
    nontrivial negative-energy minimum are not established (mu >= mu*,
    or f(0) = 0 without the zero-limit condition); no claim is made
    either way in that case.
    """

    inf_norm_bound: bool
    negative_energy: bool | None
    residual_ok: bool
    interior: bool
    residual_tol: float


def certify(
    sol: SolutionRecord,
    problem: "ProblemSpec",
    conditions_report: cond.ConditionReport,
) -> CertificateSet:
    """Check a converged record against its guarantees.

    inf_norm_bound: sup norm within gamma_bar plus slack; residual_ok:
    weak residual under the calibrated resolution tolerance; interior:
    Phi strictly inside the sublevel radius.
    """
    tol = residual_tolerance(problem.alpha, problem.n, problem.T)
    assert_negativity = (
        sol.mu < conditions_report.mu_star
        and (
            conditions_report.zero_holds == cond.TriState.HOLDS
            or not problem.nonlinearity.vanishes_at_zero
        )
    )
    return CertificateSet(
        inf_norm_bound=sol.norm_inf <= sol.gamma_bar + 1e-6,
        negative_energy=(sol.energy < 0.0) if assert_negativity else None,
        residual_ok=sol.residual <= tol,
        interior=sol.phi < sol.r_radius,
        residual_tol=tol,
    )
