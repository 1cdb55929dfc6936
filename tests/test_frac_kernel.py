"""Operator-level checks: closed-form power rules, reflection symmetry,
linearity, and the classical limit at order one."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracvar.frac_kernel import (
    FracOrder,
    Grid,
    GridFunction,
    caputo_left,
    caputo_right,
    cumulative_trapezoid,
    euler_gamma,
    rl_left_integral,
    rl_right_integral,
)

from probes import smooth_with_deriv


@pytest.fixture(scope="module")
def grid():
    return Grid(T=1.0, n=1024)


# ---------------------------------------------------------------- orders


def test_integration_order_accepts_positive_reals():
    assert FracOrder(0.3).value == 0.3
    assert FracOrder(2.5).value == 2.5
    assert FracOrder(1.0).differentiation is False


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, math.nan])
def test_integration_order_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        FracOrder(bad)


@pytest.mark.parametrize("bad", [0.5, 0.3, 1.0 + 1e-9, 2.0])
def test_differentiation_order_range(bad):
    with pytest.raises(ValueError):
        FracOrder(bad, differentiation=True)


def test_differentiation_order_cos_margin():
    # orders this close to 1/2 make the coercivity constant collapse
    with pytest.raises(ValueError, match="close to 1/2"):
        FracOrder(0.5 + 1e-8, differentiation=True)
    FracOrder(0.51, differentiation=True)


def test_ops_reject_mistagged_orders(grid):
    u = GridFunction(grid, grid.nodes.copy())
    with pytest.raises(ValueError, match="integration order"):
        rl_left_integral(u, FracOrder(0.75, differentiation=True))
    with pytest.raises(ValueError, match="differentiation order"):
        caputo_left(u, FracOrder(0.75))


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
    out = rl_left_integral(GridFunction(grid, np.ones(grid.n + 1)), FracOrder(gamma))
    t = grid.nodes
    exact = t**gamma / euler_gamma(gamma + 1.0)
    assert np.max(np.abs(out.values - exact)) < 1e-13


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
def test_left_integral_of_identity(grid, gamma):
    out = rl_left_integral(GridFunction(grid, grid.nodes.copy()), FracOrder(gamma))
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
        out = rl_left_integral(GridFunction(g, g.nodes**p), FracOrder(gamma))
        exact = euler_gamma(p + 1.0) / euler_gamma(p + 1.0 + gamma) * g.nodes ** (p + gamma)
        errs.append(np.max(np.abs(out.values - exact)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 8.0  # at least order 1.5 over two halvings


def test_right_integral_mirrors_left(grid):
    # data symmetric under t -> T - t must produce mirrored images
    gamma = 0.6
    t = grid.nodes
    left = rl_left_integral(GridFunction(grid, t.copy()), FracOrder(gamma))
    right = rl_right_integral(GridFunction(grid, (grid.T - t)), FracOrder(gamma))
    assert np.max(np.abs(right.values - left.values[::-1])) < 1e-13


def test_caputo_left_power_rule(grid):
    # d/dt^alpha of t is t^(1-alpha)/Gamma(2-alpha); pass the exact slope
    alpha = 0.75
    out = caputo_left(GridFunction(grid, np.ones(grid.n + 1)), FracOrder.derivative(alpha))
    exact = grid.nodes ** (1.0 - alpha) / euler_gamma(2.0 - alpha)
    assert np.max(np.abs(out.values - exact)) < 1e-13


def test_caputo_right_power_rule(grid):
    alpha = 0.75
    # u = T - t has u' = -1; the right derivative of u is (T-t)^(1-a)/Gamma(2-a)
    out = caputo_right(GridFunction(grid, -np.ones(grid.n + 1)), FracOrder.derivative(alpha))
    exact = (grid.T - grid.nodes) ** (1.0 - alpha) / euler_gamma(2.0 - alpha)
    assert np.max(np.abs(out.values - exact)) < 1e-13


def test_quadratic_probe_is_second_order():
    gamma = 0.5
    errs = {}
    for n in (64, 128, 256, 512):
        g = Grid(T=1.0, n=n)
        out = rl_left_integral(GridFunction(g, g.nodes**2), FracOrder(gamma))
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
    one = FracOrder(1.0, differentiation=True)
    left = caputo_left(GridFunction(grid, up), one)
    right = caputo_right(GridFunction(grid, up), one)
    assert np.array_equal(left.values, up)
    assert np.array_equal(right.values, -up)


# --------------------------------------------------------------- algebra


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_left_integral_is_linear(a, b):
    g = Grid(T=1.0, n=256)
    rng = np.random.default_rng(3)
    u, _ = smooth_with_deriv(rng, g)
    v, _ = smooth_with_deriv(rng, g)
    gamma = FracOrder(0.6)
    lhs = rl_left_integral(GridFunction(g, a * u + b * v), gamma).values
    rhs = a * rl_left_integral(GridFunction(g, u), gamma).values + b * rl_left_integral(
        GridFunction(g, v), gamma
    ).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * (1.0 + abs(a) + abs(b))


def test_cumulative_trapezoid_matches_prefix_sums():
    vals = np.array([0.0, 1.0, 4.0, 9.0])
    out = cumulative_trapezoid(vals, 0.5)
    assert out[0] == 0.0
    assert out[-1] == pytest.approx(0.5 * (0.5 + 2.5 + 6.5))


def test_euler_gamma_against_stdlib():
    for x in np.linspace(0.1, 10.0, 199):
        assert euler_gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)
