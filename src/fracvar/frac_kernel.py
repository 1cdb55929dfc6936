"""Discrete fractional operators on uniform grids.

Left and right Riemann-Liouville integrals of positive order, and the
Caputo derivatives of order alpha in (1/2, 1] built on top of them.  The
quadrature is a product-trapezoidal rule: on every panel the weakly
singular kernel (t - s)**(gamma - 1) is integrated in closed form against
the piecewise-linear interpolant of the data, so the singularity never
meets a sampled integrand.  Evaluating an operator at all n + 1 nodes
keeps the first n - 1 outputs of one length-(n-1) convolution.

The operators take that convolution by FFT, the fast product quadrature
of Hairer, Lubich and Schlichte (1985): O(n log n) per function, equal
to the direct sum to roundoff, and a stack of functions on one grid
shares one kernel.  kernel_verify and the weak residual call them.
caputo_images, which only build_space calls, forms the sum directly,
because the benchmark's references pin the bits of its images (ROADMAP
item 3 moves it to the FFT).  Above a work crossover it builds its two
sides at once, one in a child forked for the call (forked.forked_map);
each row's bits come from its own dot products, so they are the same in
either process.

The order-alpha Caputo derivative consumes samples of u' rather than u;
at alpha = 1 both one-sided derivatives reduce exactly to +/- u' and the
quadrature path is bypassed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forked import _available_cpus, _blas_threads, forked_map

__all__ = [
    "GAMMA_MAX_ARGUMENT",
    "MIN_COS_MARGIN",
    "Grid",
    "GridFunction",
    "check_order",
    "euler_gamma",
    "rl_left_integral",
    "rl_right_integral",
    "caputo_left",
    "caputo_right",
    "caputo_images",
    "cumulative_trapezoid",
]

# float64 overflows just above gamma(171.62)
GAMMA_MAX_ARGUMENT = 171.0

# differentiation orders too close to 1/2 make 1/|cos(pi a)| blow up
MIN_COS_MARGIN = 1e-6

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def euler_gamma(x: float) -> float:
    """Gamma function for real x in (0, 171].

    Lanczos approximation (g = 7, nine coefficients) on [0.5, 171], with
    the reflection formula covering (0, 0.5).  Relative error stays below
    1e-12 on (0, 20]; beyond that the log-domain evaluation keeps the
    result finite up to the float64 ceiling.

    Raises
    ------
    ValueError
        If x <= 0 or x > 171.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma argument must be positive, got {x}")
    if x > GAMMA_MAX_ARGUMENT:
        raise ValueError(f"gamma argument {x} exceeds {GAMMA_MAX_ARGUMENT}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * _lanczos(1.0 - x))
    return _lanczos(x)


def _lanczos(x: float) -> float:
    z = x - 1.0
    series = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    if x <= 20.0:
        return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * series
    # log domain avoids overflow in t**(z + 0.5) for large x
    log_value = (
        0.5 * math.log(2.0 * math.pi)
        + (z + 0.5) * math.log(t)
        - t
        + math.log(series)
    )
    return math.exp(log_value)


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, T] into n panels (n + 1 nodes)."""

    T: float
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 16):
            raise ValueError(f"grid needs an integer n >= 16, got {self.n!r}")
        if not (float(self.T) > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"grid length T must be positive finite, got {self.T!r}")

    @property
    def h(self) -> float:
        return self.T / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)

    @property
    def weights(self) -> np.ndarray:
        """Composite trapezoid weights on the nodes: h inside, h / 2 at both ends."""
        w = np.full(self.n + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal samples of a real function on a Grid.  Values are immutable.

    values has shape (n+1,) for one function, or (rows, n+1) for a stack
    of functions on the same grid.  The operators below act row by row
    and give every row of a stack the bits it gets on its own; a stack
    shares one kernel evaluation and one batched FFT (see _abel_left).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.grid.n + 1:
            raise ValueError(
                f"expected {self.grid.n + 1} samples per row, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function samples must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def check_order(order: float, *, differentiation: bool) -> float:
    """order as a float, checked as a differentiation or an integration order.

    Integration orders are any positive reals.  Differentiation orders
    live in (1/2, 1] and must keep |cos(pi * alpha)| >= 1e-6, since the
    energy estimates degrade like 1/|cos(pi * alpha)| near alpha = 1/2.
    """
    v = float(order)
    if not math.isfinite(v):
        raise ValueError(f"order must be finite, got {order!r}")
    if differentiation:
        if not (0.5 < v <= 1.0):
            raise ValueError(f"differentiation order must lie in (1/2, 1], got {v}")
        if abs(math.cos(math.pi * v)) < MIN_COS_MARGIN:
            raise ValueError(
                f"differentiation order {v} is too close to 1/2: "
                f"|cos(pi a)| < {MIN_COS_MARGIN}"
            )
    elif not v > 0.0:
        raise ValueError(f"integration order must be positive, got {v}")
    return v


# rows * (n + 1) from which the per-node loop beats per-row np.convolve
# (measured crossover 3e4 to 6e4, 1 BLAS thread)
_STACKED_MIN_SAMPLES = 60_000
# bytes of rows per tile of the per-node loop, so row prefixes stay in L2
_TILE_BYTES = 1 << 20
# rows * (n + 1)**2 from which caputo_images builds its two sides at once,
# one in a forked child: forking, pickling a side back and reaping cost a
# few ms, and a side takes about 0.04 s at n = 4096, 16 rows (2.7e8) and
# 0.01 s at n = 2048 (6.7e7); measured on a 2-core VM, one BLAS thread
_FORKED_MIN_WORK = 1.5e8


def _product_weights(n: int, gamma: float, h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The product-trapezoidal rule's kernel c_m, boundary weights w0_i and scale.

    Returns (c, w0, h**g / Gamma(g + 2)) with c[m - 1] = c_m and
    w0[i - 1] = w0_i for m, i = 1..n; _product_trapezoid says how they
    combine.  c_m is a second difference of m**(g+1); it is evaluated
    through expm1/log1p because the plain form cancels ~8 digits at
    m ~ 1e4.
    """
    gp1 = gamma + 1.0
    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        shrink = np.expm1(gp1 * np.log1p(-1.0 / i))  # i**(g+1) term, relative
        grow = np.expm1(gp1 * np.log1p(1.0 / i))
    # c_m = (m+1)**(g+1) - 2 m**(g+1) + (m-1)**(g+1), stabilized
    conv_kernel = i ** gp1 * (grow + shrink)
    # w0_i = (i-1)**(g+1) - i**g (i - g - 1), stabilized the same way
    boundary = gp1 * i ** gamma + i ** gp1 * shrink
    return conv_kernel, boundary, h ** gamma / euler_gamma(gamma + 2.0)


def _product_trapezoid(values: np.ndarray, gamma: float, h: float, convolve) -> np.ndarray:
    """Product-trapezoidal left Abel integral at every node, row by row.

    values holds one function (shape (n+1,)) or a stack of functions on
    one grid (shape (rows, n+1)); the result has the same shape.
    out[i] = 1/Gamma(gamma) * integral_0^{t_i} (t_i - s)**(gamma-1) u(s) ds
    with u replaced by its piecewise-linear interpolant.  The panel
    integrals collapse to a boundary weight, a convolution kernel in the
    node distance, and a unit weight on the current node:

        out[i] = h**g / Gamma(g + 2) * (w0_i u_0 + sum_j c_{i-j} u_j + u_i)

    The weights are computed once per call and shared by every row.
    convolve(body, kernel) returns np.convolve(row, kernel)[:m] for every
    row of the (rows, m) body, m = n - 1: the kept outputs of the sum.
    """
    stack = np.atleast_2d(values)
    n = stack.shape[1] - 1
    conv_kernel, boundary, scale = _product_weights(n, gamma, h)
    out = np.zeros(stack.shape)
    acc = stack[:, 1:] + boundary * stack[:, :1]
    if n >= 2:
        acc[:, 1:] += convolve(stack[:, 1:n], conv_kernel[: n - 1])
    out[:, 1:] = scale * acc
    return out.reshape(np.shape(values))


def _per_row_convolution(body: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """np.convolve(row, kernel)[:m] for every row of body, one full convolution each."""
    m = body.shape[1]
    return np.array([np.convolve(row, kernel)[:m] for row in body])


def _kept_convolution(body: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """np.convolve(row, kernel)[:m] for every row of body, bit for bit.

    Output k of the full convolution is one dot of row[:k+1] with the
    last k + 1 entries of the reversed kernel; np.vecdot makes the same
    dot call on the same operands, so only the kept m outputs are formed.
    (np.convolve sums kernels of at most 11 points another way; Grid's
    n >= 16 keeps m >= 15.)
    """
    rows, m = body.shape
    rev = kernel[::-1].copy()
    tile = max(1, _TILE_BYTES // (8 * m))
    kept = np.empty((rows, m))
    for lo in range(0, rows, tile):
        block, dest = body[lo : lo + tile], kept[lo : lo + tile]
        for k in range(m):
            np.vecdot(block[:, : k + 1], rev[m - 1 - k :], out=dest[:, k])
    return kept


def _fft_convolution(body: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """np.convolve(row, kernel)[:m] for every row of body, to roundoff, by FFT.

    Both are zero-padded to L = 2**ceil(log2(2m - 1)), long enough that
    the circular convolution does not wrap into the kept outputs.  A zero
    row gives exact zeros.
    """
    m = body.shape[1]
    L = 1 << (2 * m - 2).bit_length()
    spectrum = np.fft.rfft(body, L, axis=1) * np.fft.rfft(kernel, L)
    return np.fft.irfft(spectrum, L, axis=1)[:, :m]


def _abel_left(values: np.ndarray, gamma: float, h: float) -> np.ndarray:
    """The left Abel integral of every row by the fast product quadrature.

    _product_trapezoid with the convolution taken by _fft_convolution:
    O(n log n) per row, and equal to the direct sum to roundoff, not bit
    for bit (tests hold it within 1e-14 of max|value|).  Each row of a
    stack gets the bits of a call on its own.  A right integral is the
    left one of the reversed samples, reversed back.
    """
    return _product_trapezoid(values, gamma, h, _fft_convolution)


def rl_left_integral(u: GridFunction, order: float) -> GridFunction:
    """Left Riemann-Liouville integral of positive order.

    Parameters
    ----------
    u : GridFunction
        Samples of the integrand, or a stack of integrands on one grid
        (one per row, each treated as if passed alone).
    order : float
        Integration order gamma > 0.

    Returns
    -------
    GridFunction
        Nodal values of the fractional integral, shaped like u; the value
        at t = 0 is 0.
    """
    gamma = check_order(order, differentiation=False)
    return GridFunction(u.grid, _abel_left(u.values, gamma, u.grid.h))


def rl_right_integral(u: GridFunction, order: float) -> GridFunction:
    """Right Riemann-Liouville integral, by reflection of the left rule.

    Mirror symmetry is exact: the result equals the left integral of the
    reversed samples, reversed back.  The value at t = T is 0.
    """
    gamma = check_order(order, differentiation=False)
    mirrored = _abel_left(u.values[..., ::-1].copy(), gamma, u.grid.h)
    return GridFunction(u.grid, mirrored[..., ::-1])


def caputo_left(u_prime: GridFunction, order: float) -> GridFunction:
    """Left Caputo derivative of order alpha, from samples of u'.

    For alpha < 1 this is the left RL integral of order 1 - alpha applied
    to u'; at alpha = 1 it returns u' unchanged.
    """
    alpha = check_order(order, differentiation=True)
    if alpha == 1.0:
        return GridFunction(u_prime.grid, u_prime.values)
    return rl_left_integral(u_prime, 1.0 - alpha)


def caputo_right(u_prime: GridFunction, order: float) -> GridFunction:
    """Right Caputo derivative of order alpha, from samples of u'.

    Carries the one-dimensional orientation sign: at alpha = 1 it returns
    -u', and for alpha < 1 it is minus the right RL integral of order
    1 - alpha applied to u'.
    """
    alpha = check_order(order, differentiation=True)
    if alpha == 1.0:
        return GridFunction(u_prime.grid, -u_prime.values)
    mirrored = rl_right_integral(u_prime, 1.0 - alpha)
    return GridFunction(u_prime.grid, -mirrored.values)


def caputo_images(u_prime: GridFunction, order: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right Caputo images of every row, with the sum formed directly.

    caputo_left and caputo_right of u_prime, each row bit for bit the
    per-row np.convolve of the rule.  Only build_space calls it: its
    images feed phi and psi, whose benchmark references come from solves
    that stop short of their minimizer, so a roundoff change moves them
    past their 1e-6 tolerance.  ROADMAP item 3 moves it to the FFT with
    re-recorded references, and deletes _kept_convolution,
    _per_row_convolution, _STACKED_MIN_SAMPLES and _TILE_BYTES.

    Each kept output is one BLAS dot of a row prefix with the reversed
    kernel's tail.  From rows * (n + 1) >= _STACKED_MIN_SAMPLES samples
    _kept_convolution forms only the n - 1 kept outputs, one np.vecdot
    per node shared by all rows; smaller stacks take per-row np.convolve,
    twice the multiply-adds but no per-node Python call.  np.convolve
    makes the same cblas_ddot call on the same operands as np.vecdot, so
    both give the same bits (tests check 1 and 2 BLAS threads).

    From rows * (n + 1)**2 >= _FORKED_MIN_WORK, with CPUs for two
    processes' BLAS threads (two CPUs with the BLAS capped at one thread,
    as OPENBLAS_NUM_THREADS=1 does), this process builds one side while a
    child forked for the call builds the other and pickles it back
    (forked.forked_map).  The work is split by side, not by rows: fewer
    rows per np.vecdot call would only add calls.  Below that crossover,
    with fewer CPUs, no fork start method or in a daemonic process, both
    sides are built here.  Either way the images are the same bits.
    """
    alpha = check_order(order, differentiation=True)
    values = u_prime.values
    if alpha == 1.0:
        return values, -values
    gamma, h = 1.0 - alpha, u_prime.grid.h
    if values.size < _STACKED_MIN_SAMPLES:
        convolve = _per_row_convolution
    else:
        convolve = _kept_convolution

    def side(right: bool) -> np.ndarray:
        if not right:
            return _product_trapezoid(values, gamma, h, convolve)
        mirrored = _product_trapezoid(values[..., ::-1].copy(), gamma, h, convolve)
        return -mirrored[..., ::-1]

    work = values.size * values.shape[-1]  # rows * (n + 1)**2
    # each process's BLAS threads need CPUs of their own: on 2 CPUs with two
    # BLAS threads, a forked n = 16384 build took 7-25 s against 1 s serially
    workers = _available_cpus() // _blas_threads() if work >= _FORKED_MIN_WORK else 1
    left, right = forked_map(side, (False, True), workers, label="Caputo image")
    return left, right


def cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid antiderivative with zero at the first node."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * h * (values[1:] + values[:-1]), out=out[1:])
    return out
