"""Operator-level checks: closed-form power rules, reflection symmetry,
linearity, and the classical limit at order one."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracvar.frac_kernel import (
    Grid,
    GridFunction,
    caputo_left,
    caputo_right,
    check_order,
    cumulative_trapezoid,
    euler_gamma,
    rl_left_integral,
    rl_right_integral,
)

from oracles import abel_left_ref
from probes import smooth_with_deriv


@pytest.fixture(scope="module")
def grid():
    return Grid(T=1.0, n=1024)


# ---------------------------------------------------------------- orders


def test_integration_order_accepts_positive_reals():
    assert check_order(0.3, differentiation=False) == 0.3
    assert check_order(2.5, differentiation=False) == 2.5
    assert type(check_order(1, differentiation=False)) is float


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, math.nan])
def test_integration_order_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        check_order(bad, differentiation=False)


@pytest.mark.parametrize("bad", [0.5, 0.3, 1.0 + 1e-9, 2.0])
def test_differentiation_order_range(bad):
    with pytest.raises(ValueError, match=r"must lie in \(1/2, 1\]"):
        check_order(bad, differentiation=True)


def test_differentiation_order_cos_margin():
    # orders this close to 1/2 make the coercivity constant collapse
    with pytest.raises(ValueError, match="close to 1/2"):
        check_order(0.5 + 1e-8, differentiation=True)
    assert check_order(0.51, differentiation=True) == 0.51


def test_grid_function_shape_and_finiteness(grid):
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(grid.n))
    bad = np.zeros(grid.n + 1)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(grid, bad)


# ------------------------------------------------------------ power rules


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
def test_left_integral_of_constant(grid, gamma):
    # piecewise-linear data is integrated exactly by the product rule
    out = rl_left_integral(GridFunction(grid, np.ones(grid.n + 1)), gamma)
    t = grid.nodes
    exact = t**gamma / euler_gamma(gamma + 1.0)
    assert np.max(np.abs(out.values - exact)) < 1e-13


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
def test_left_integral_of_identity(grid, gamma):
    out = rl_left_integral(GridFunction(grid, grid.nodes.copy()), gamma)
    t = grid.nodes
    exact = t ** (gamma + 1.0) / euler_gamma(gamma + 2.0)
    assert np.max(np.abs(out.values - exact)) < 1e-13


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_left_integral_power_rule_converges(p):
    # t^p is curved, so the rule is second order, not exact
    gamma = 0.5
    errs = []
    for n in (256, 512, 1024):
        g = Grid(T=1.0, n=n)
        out = rl_left_integral(GridFunction(g, g.nodes**p), gamma)
        exact = euler_gamma(p + 1.0) / euler_gamma(p + 1.0 + gamma) * g.nodes ** (p + gamma)
        errs.append(np.max(np.abs(out.values - exact)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 8.0  # at least order 1.5 over two halvings


def test_right_integral_mirrors_left(grid):
    # data symmetric under t -> T - t must produce mirrored images
    gamma = 0.6
    t = grid.nodes
    left = rl_left_integral(GridFunction(grid, t.copy()), gamma)
    right = rl_right_integral(GridFunction(grid, (grid.T - t)), gamma)
    assert np.max(np.abs(right.values - left.values[::-1])) < 1e-13


def test_caputo_left_power_rule(grid):
    # d/dt^alpha of t is t^(1-alpha)/Gamma(2-alpha); pass the exact slope
    alpha = 0.75
    out = caputo_left(GridFunction(grid, np.ones(grid.n + 1)), alpha)
    exact = grid.nodes ** (1.0 - alpha) / euler_gamma(2.0 - alpha)
    assert np.max(np.abs(out.values - exact)) < 1e-13


def test_caputo_right_power_rule(grid):
    alpha = 0.75
    # u = T - t has u' = -1; the right derivative of u is (T-t)^(1-a)/Gamma(2-a)
    out = caputo_right(GridFunction(grid, -np.ones(grid.n + 1)), alpha)
    exact = (grid.T - grid.nodes) ** (1.0 - alpha) / euler_gamma(2.0 - alpha)
    assert np.max(np.abs(out.values - exact)) < 1e-13


def test_quadratic_probe_is_second_order():
    gamma = 0.5
    errs = {}
    for n in (64, 128, 256, 512):
        g = Grid(T=1.0, n=n)
        out = rl_left_integral(GridFunction(g, g.nodes**2), gamma)
        exact = euler_gamma(3.0) / euler_gamma(3.0 + gamma) * g.nodes ** (2.0 + gamma)
        errs[n] = abs(out.values[-1] - exact[-1])
    # successive halvings shrink the endpoint error by ~4
    assert errs[64] / errs[128] > 3.0
    assert errs[128] / errs[256] > 3.0
    assert errs[256] / errs[512] > 3.0


# -------------------------------------------------------- classical limit


def test_caputo_at_order_one_copies_slope(grid):
    rng = np.random.default_rng(1)
    _, up = smooth_with_deriv(rng, grid)
    left = caputo_left(GridFunction(grid, up), 1.0)
    right = caputo_right(GridFunction(grid, up), 1.0)
    assert np.array_equal(left.values, up)
    assert np.array_equal(right.values, -up)


# --------------------------------------------------------------- algebra


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_left_integral_is_linear(a, b):
    g = Grid(T=1.0, n=256)
    rng = np.random.default_rng(3)
    u, _ = smooth_with_deriv(rng, g)
    v, _ = smooth_with_deriv(rng, g)
    gamma = 0.6
    lhs = rl_left_integral(GridFunction(g, a * u + b * v), gamma).values
    rhs = a * rl_left_integral(GridFunction(g, u), gamma).values + b * rl_left_integral(
        GridFunction(g, v), gamma
    ).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * (1.0 + abs(a) + abs(b))


# ------------------------------------------------------ fast quadrature

# the operators take the rule by FFT: the direct sum to roundoff, not bit
# for bit; on standard normal rows they measured at most 3e-15 of max|ref|
# (n <= 16384, gamma <= 0.99)
FFT_REL_TOL = 1e-14


def _assert_operators_match_oracle(stack, gamma):
    grid = Grid(1.0, stack.shape[1] - 1)
    u = GridFunction(grid, stack)
    # the Caputo pair at alpha = 1 - gamma / 2, a differentiation order for every gamma < 1
    alpha = 1.0 - gamma / 2.0
    sides = (
        (rl_left_integral(u, gamma).values, rl_right_integral(u, gamma).values, gamma, 1.0),
        (caputo_left(u, alpha).values, caputo_right(u, alpha).values, 1.0 - alpha, -1.0),
    )
    for left, right, g, sign in sides:
        for r, row in enumerate(stack):
            # the right rule is the left one of the reversed samples, reversed back
            mirrored = abel_left_ref(row[::-1].copy(), g, grid.h)[::-1]
            for got, ref in ((left[r], abel_left_ref(row, g, grid.h)), (right[r], sign * mirrored)):
                assert np.max(np.abs(got - ref)) <= FFT_REL_TOL * np.max(np.abs(ref)), (g, r)


@given(
    rows=st.integers(1, 40),
    n=st.integers(16, 4096),
    gamma=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_quadrature_matches_oracle(rows, n, gamma, seed):
    stack = np.random.default_rng(seed).standard_normal((rows, n + 1))
    _assert_operators_match_oracle(stack, gamma)


@pytest.mark.parametrize("gamma", [0.4, 0.99])
def test_fft_quadrature_matches_oracle_at_refine_size(gamma):
    # n = 16384 is the largest grid of the benchmark's refine workload
    stack = np.random.default_rng(11).standard_normal((2, 16385))
    _assert_operators_match_oracle(stack, gamma)


def test_fft_quadrature_keeps_zero_rows_exact():
    # a zero record's residual is exactly 0.0 only if zero images stay zero
    grid = Grid(1.0, 1024)
    stack = np.zeros((3, 1025))
    stack[1] = np.random.default_rng(2).standard_normal(1025)
    u = GridFunction(grid, stack)
    for op, order in (
        (rl_left_integral, 0.25),
        (rl_right_integral, 0.25),
        (caputo_left, 0.75),
        (caputo_right, 0.75),
    ):
        out = op(u, order).values
        assert np.array_equal(out[0], np.zeros(1025)), op
        assert np.array_equal(out[2], np.zeros(1025)), op
        assert np.any(out[1] != 0.0), op


def test_cumulative_trapezoid_matches_prefix_sums():
    vals = np.array([0.0, 1.0, 4.0, 9.0])
    out = cumulative_trapezoid(vals, 0.5)
    assert out[0] == 0.0
    assert out[-1] == pytest.approx(0.5 * (0.5 + 2.5 + 6.5))


def test_euler_gamma_against_stdlib():
    for x in np.linspace(0.1, 10.0, 199):
        assert euler_gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)
    with pytest.raises(ValueError, match="must be positive"):
        euler_gamma(0)
    with pytest.raises(ValueError, match="exceeds 171.0"):
        euler_gamma(172)
