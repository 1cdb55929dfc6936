"""Energy assembly: the datum catalog, the exact table antiderivative,
quadratic-form bookkeeping, and the gradient."""

from __future__ import annotations

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar.energy import (
    _FLAG_PROBE,
    Nonlinearity,
    affine_power,
    build_assembly,
    coercivity_slack,
    from_tag,
    power_sum,
    sqrt_plus,
    table_datum,
    zero_datum,
)
from fracvar.errors import ResolutionError
from fracvar.space import SpaceConfig, SpectralElement, build_space, norms, unit_mode

from oracles import table_potential_ref
from probes import decayed_coeffs


# --------------------------------------------------------------- catalog


def test_catalog_flags():
    assert power_sum(1.5, 3.0).nonnegative is True
    assert power_sum(1.5, 3.0).vanishes_at_zero is True
    assert affine_power(4.0).nonnegative is False
    assert affine_power(4.0).vanishes_at_zero is False
    assert sqrt_plus().nonnegative is True
    assert zero_datum().vanishes_at_zero is True


def test_power_sum_pointwise():
    # one-sided datum: clipped to zero on the negative half-line
    nl = power_sum(1.5, 3.0)
    x = np.array([0.0, 1.0, -1.0, 4.0])
    f = nl.f(x)
    assert f[0] == 0.0
    assert f[1] == pytest.approx(2.0)
    assert f[2] == 0.0
    assert f[3] == pytest.approx(4.0**0.5 + 16.0)
    F = nl.F(x)
    assert F[1] == pytest.approx(1.0 / 1.5 + 1.0 / 3.0)
    assert F[2] == 0.0


def test_catalog_potentials_take_the_bits_of_their_float_forms():
    # F holds its exponents and divisors as 0-d arrays; on whole arrays and
    # on the one-point arrays of the golden section it gives the float form
    g = np.geomspace(1e-6, 1e6, 2001)
    x = np.concatenate([g, -g, np.linspace(-10.0, 10.0, 81), [0.0, -0.0]])

    def power_form(r, s):
        return lambda x: np.maximum(x, 0.0) ** r / r + np.maximum(x, 0.0) ** s / s

    def affine_form(q):
        return lambda x: x + np.abs(x) ** q / q

    cases = [(power_sum(r, s).F, power_form(r, s))
             for r, s in ((1.5, 3.0), (1.05, 2.1), (1.95, 6.0), (1.1646396340384622, 3))]
    cases += [(affine_power(q).F, affine_form(q)) for q in (2.1, 3, 4.5)]
    for F, ref in cases:
        assert np.array_equal(F(x), ref(x))
        assert all(F(np.array([v]))[0] == ref(np.array([v]))[0] for v in x[::37])


def test_power_sum_validation():
    with pytest.raises(ValueError):
        power_sum(1.0, 3.0)
    with pytest.raises(ValueError):
        power_sum(1.5, 2.0)
    with pytest.raises(ValueError):
        power_sum(2.5, 3.0)


def test_from_tag_dispatch():
    nl = from_tag("power_sum", r=1.5, s=3.0)
    assert nl.kind == "power_sum"
    assert nl.params == {"r": 1.5, "s": 3.0}
    assert from_tag("zero").kind == "zero"
    with pytest.raises(ValueError):
        from_tag("polynomial")
    with pytest.raises(TypeError):
        from_tag("power_sum", r=1.5)


def test_sqrt_plus_clips_negative_part():
    nl = sqrt_plus()
    x = np.array([-4.0, 0.0, 4.0])
    assert np.array_equal(nl.f(x), np.array([0.0, 0.0, 2.0]))
    assert nl.F(np.array([9.0]))[0] == pytest.approx(2.0 / 3.0 * 27.0)
    assert nl.F(np.array([-9.0]))[0] == 0.0


# ----------------------------------------------------------------- table


def test_table_is_exact_for_linear_data():
    # f = 2x tabulated on three knots; the potential must be x^2 exactly
    nl = table_datum([-2.0, 0.0, 2.0], [-4.0, 0.0, 4.0])
    x = np.array([1.0, -1.0, 2.0, 0.5, 0.0])
    assert np.array_equal(nl.F(x), x * x)


def test_table_survives_huge_knots():
    # anchored accumulation: F near 0 must not inherit O(knot^2) roundoff
    nl = table_datum([-1e7, 0.0, 1e7], [-1e7, 0.0, 1e7])
    assert nl.F(np.array([1e-14]))[0] == pytest.approx(5e-29, rel=1e-12)
    assert nl.F(np.array([0.0]))[0] == 0.0


def test_table_away_from_zero_keeps_F_exact_near_zero():
    # every knot far right of 0: f = 1 continues to 0, so F(x) = x there;
    # a difference of two integrals the size of the knots would give 0
    nl = table_datum([1e7, 2e7], [1.0, 1.0])
    x = np.array([1e-14, -1e-14])
    np.testing.assert_allclose(nl.F(x), x, rtol=1e-15, atol=0.0)


def _exact_table_potential(xs, fs, x):
    """int_0^x of the table's interpolant, in rational arithmetic."""
    xs = [Fraction(v) for v in xs]
    fs = [Fraction(v) for v in fs]
    x = Fraction(x)

    def f(t):
        if t <= xs[0]:
            return fs[0]
        if t >= xs[-1]:
            return fs[-1]
        j = max(i for i in range(len(xs) - 1) if xs[i] <= t)
        return fs[j] + (t - xs[j]) * (fs[j + 1] - fs[j]) / (xs[j + 1] - xs[j])

    lo, hi = min(x, Fraction(0)), max(x, Fraction(0))
    points = sorted({lo, hi, *(v for v in xs if lo < v < hi)})
    # the interpolant is linear between consecutive points: trapezoids are exact
    total = sum((b - a) * (f(a) + f(b)) / 2 for a, b in zip(points, points[1:]))
    return total if x >= 0 else -total


@st.composite
def _tables_around_zero(draw):
    """(xs, fs): knots that straddle 0, contain 0, or lie on one side of it."""
    layout = draw(st.sampled_from(["straddle", "contains", "right", "left"]))
    mags = draw(st.lists(st.floats(1e-6, 1e7), min_size=2, max_size=6, unique=True))
    if layout == "right":
        xs = mags
    elif layout == "left":
        xs = [-m for m in mags]
    else:
        k = draw(st.integers(1, len(mags) - 1))
        xs = [-m for m in mags[:k]] + mags[k:] + ([0.0] if layout == "contains" else [])
    xs = sorted(xs)
    sample = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    fs = draw(st.lists(sample, min_size=len(xs), max_size=len(xs)))
    return xs, fs


# measured: at most 1.71 eps |x| max|fs| (2,600 random tables with 40
# points each, and 30,000 examples of this test); most of it is the
# rounding of f(0) that np.interp reads off a straddling segment
_POTENTIAL_ERROR_C = 4.0


@given(
    table=_tables_around_zero(),
    x=st.one_of(st.floats(1e-300, 1e3), st.floats(-1e3, -1e-300)),
)
def test_table_potential_is_exact_to_roundoff_relative_to_x(table, x):
    # inside and beyond the knots, near 0 and far from it
    xs, fs = table
    got = float(table_datum(xs, fs).F(np.array([x]))[0])
    err = abs(Fraction(got) - _exact_table_potential(xs, fs, x))
    bound = Fraction(_POTENTIAL_ERROR_C) * Fraction(np.finfo(float).eps) * Fraction(abs(x))
    assert err <= bound * max(Fraction(abs(v)) for v in fs)


@st.composite
def _tables_with_zero_samples(draw):
    """A table around zero with some of its samples set to +-0."""
    xs, fs = draw(_tables_around_zero())
    zeros = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=len(fs), max_size=len(fs)))
    return xs, [v if z is None else z for v, z in zip(fs, zeros)]


_SPECIAL_X = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300]


@settings(max_examples=200)
@given(
    table=st.one_of(_tables_around_zero(), _tables_with_zero_samples()),
    extra=st.lists(st.floats(), max_size=7),
)
def test_table_potential_matches_the_where_form_bit_for_bit(table, extra):
    # the rays written only beyond the knots give the values, sign bits and
    # shapes of the form that evaluated both rays everywhere
    xs, fs = (np.asarray(v, dtype=float) for v in table)
    new = table_datum(xs, fs).F
    old = table_potential_ref(xs, fs, float(np.interp(0.0, xs, fs)))
    x = np.array([*_SPECIAL_X, *xs, *(-xs), *extra])
    if x.size % 2:
        x = np.append(x, 0.5)
    with np.errstate(all="ignore"):
        for arg in (x, x.reshape(2, -1), *(np.array(v) for v in x), *x.tolist()):
            got, want = new(arg), old(arg)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True), (arg, got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (arg, got, want)


def test_table_tails_extend_linearly():
    nl = table_datum([0.0, 1.0], [1.0, 2.0])
    # inside: F(1) = 1.5; beyond the last knot f stays at 2
    assert nl.F(np.array([1.0]))[0] == pytest.approx(1.5)
    assert nl.F(np.array([3.0]))[0] == pytest.approx(1.5 + 2.0 * 2.0)
    # below the first knot f continues at f(0) = 1, so F(-1) = -1
    assert nl.F(np.array([-1.0]))[0] == pytest.approx(-1.0)


def test_table_nonnegativity_inference():
    assert table_datum([0.0, 1.0], [1.0, 2.0]).nonnegative is True
    assert table_datum([-2.0, 0.0, 2.0], [-4.0, 0.0, 4.0]).nonnegative is False
    # both flags are read from the samples; there is no override
    with pytest.raises(TypeError):
        table_datum([0.0, 1.0], [1.0, 2.0], nonnegative=False)
    # a false f >= 0 claim is caught by the construction-time probe
    signed = table_datum([-2.0, 0.0, 2.0], [-4.0, 0.0, 4.0])
    with pytest.raises(ValueError, match="claims f >= 0"):
        Nonlinearity("table", signed.f, signed.F, True, True, signed.params)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Nonlinearity("pole", lambda x: np.where(x == 0.0, np.inf, x), lambda x: x,
                              False, False), "f must map arrays to finite arrays"),
        (lambda: Nonlinearity("shift", lambda x: x + 1.0, lambda x: x * x / 2.0 + x, False, True),
         "claims f(0) = 0 but f(0) = 1.000e+00"),
        (lambda: Nonlinearity("lifted", lambda x: x, lambda x: x * x / 2.0 + 1.0, False, True),
         "potential must vanish at 0"),
        (lambda: affine_power(2.0), "affine_power needs q > 2"),
        # F returns a scalar, and F overflows near |x| = 10 while f stays finite
        (lambda: Nonlinearity("scalar", lambda x: x, lambda x: 0.0, False, True),
         "'scalar': F must map arrays to finite arrays"),
        (lambda: power_sum(1.5, 308.5), "'power_sum': F must map arrays to finite arrays"),
        (lambda: power_sum(1.5, 309.5), "'power_sum': f must map arrays to finite arrays"),
    ],
)
def test_datum_construction_rejects_a_false_claim(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the probes' overflows are rejections, not warnings
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


def test_datum_cannot_move_the_flag_probe_grid():
    grid = np.concatenate([np.linspace(-10.0, 10.0, 81), [0.0]])

    def shifts_its_argument(x):
        x += 100.0
        return x

    with pytest.raises(ValueError, match="read-only"):
        Nonlinearity("shifting", shifts_its_argument, lambda x: x * x / 2.0, False, False)
    # F is probed on the same grid
    with pytest.raises(ValueError, match="read-only"):
        Nonlinearity("shifting", lambda x: x, shifts_its_argument, False, False)
    assert np.array_equal(_FLAG_PROBE, grid)
    # on the unmoved grid f = x - 50 is still seen to go negative
    with pytest.raises(ValueError, match="claims f >= 0"):
        Nonlinearity("offset", lambda x: x - 50.0, lambda x: x * x / 2.0 - 50.0 * x, True, False)


def test_table_derivative_matches_data():
    xs = [-2.0, -0.5, 0.0, 1.0, 3.0]
    fs = [1.0, -2.0, 0.0, 4.0, -1.0]
    nl = table_datum(xs, fs)
    # F' = interpolated f at interior probe points
    for x in (-1.7, -0.2, 0.4, 2.2):
        h = 1e-6
        fd = (nl.F(np.array([x + h]))[0] - nl.F(np.array([x - h]))[0]) / (2 * h)
        assert fd == pytest.approx(float(nl.f(np.array([x]))[0]), abs=1e-8)


def test_table_validation():
    with pytest.raises(ValueError):
        table_datum([1.0], [1.0])
    with pytest.raises(ValueError):
        table_datum([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        table_datum([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        table_datum([0.0, 1.0], [1.0])
    # a bad sample outside the flag probe's [-10, 10] is caught too
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="table samples must be finite"):
            table_datum([20.0, 30.0, 40.0], [1.0, bad, 2.0])


# ------------------------------------------------------- quadratic forms


def test_phi_matches_both_matrix_routes(model_mid, assembly_mid):
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = decayed_coeffs(rng, 32, amp=float(rng.uniform(0.1, 3.0)))
        phi = assembly_mid.phi(c)
        assert phi == pytest.approx(float(c @ _pairing(model_mid) @ c), rel=1e-10, abs=1e-14)
        assert phi == pytest.approx(float(c @ assembly_mid.symmetric @ c), rel=1e-10, abs=1e-14)


def _pairing(model):
    """M[j][k] = -sum_i w_i DL_j(t_i) DR_k(t_i), formed as build_assembly forms it."""
    dl, dr, w = model.caputo_left_images, model.caputo_right_images, model.weights
    return -np.einsum("ji,i,ki->jk", dl, w, dr)


def test_gradient_matrix_is_pairing_plus_transpose(model_mid, assembly_mid):
    # the gradient's matrix M_s + M_s equals M + M' bit for bit: halving is exact
    M = _pairing(model_mid)
    assert np.array_equal(assembly_mid.symmetric, 0.5 * (M + M.T))
    _, gradient = assembly_mid.objective(0.0, zero_datum())
    basis = np.eye(32)
    cols = np.array([gradient(e, e @ model_mid.basis) for e in basis]).T
    assert np.array_equal(cols, M + M.T)
    assert [f.name for f in dataclasses.fields(assembly_mid)] == ["space", "symmetric", "gram"]


def test_gram_diagonal_is_mode_norms(model_mid, assembly_mid):
    d = np.diag(assembly_mid.gram)
    for k in (1, 7, 32):
        nn = norms(unit_mode(32, k), model_mid)
        assert d[k - 1] == pytest.approx(nn.norm_alpha**2, rel=1e-10)
    assert np.array_equal(assembly_mid.gram, assembly_mid.gram.T)


def test_alpha_norm_is_gram_quadratic_form(model_mid, assembly_mid):
    rng = np.random.default_rng(8)
    c = decayed_coeffs(rng, 32)
    na = norms(SpectralElement(c), model_mid).norm_alpha
    assert na * na == pytest.approx(float(c @ assembly_mid.gram @ c), rel=1e-12)


@given(mu=st.floats(0.0, 10.0), seed=st.integers(0, 10_000))
def test_energy_splits_exactly(assembly_mid, mu, seed):
    rng = np.random.default_rng(seed)
    c = decayed_coeffs(rng, 32)
    nl = power_sum(1.5, 3.0)
    energy, _ = assembly_mid.objective(mu, nl)
    J, synth = energy(c)
    split = assembly_mid.phi(c) - mu * assembly_mid.psi(synth, nl)
    assert abs(J - split) <= 1e-12 * (1.0 + abs(J))


def test_psi_of_zero_vanishes(assembly_mid):
    z = np.zeros(32)
    assert assembly_mid.psi(z @ assembly_mid.space.basis, power_sum(1.5, 3.0)) == 0.0
    assert assembly_mid.phi(z) == 0.0


# ------------------------------------------------------------ coercivity


def test_phi_dominates_alpha_norm(model_mid, assembly_mid):
    # upper side of the two-sided comparison; exact at this tolerance
    cos_a = abs(math.cos(math.pi * 0.75))
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = SpectralElement(decayed_coeffs(rng, 32, power=3.0))
        na2 = norms(u, model_mid).norm_alpha ** 2
        assert assembly_mid.phi(u.coeffs) <= na2 / cos_a + 1e-8 * (1.0 + na2)


def test_phi_coercive_at_fine_resolution():
    # lower bound is asymptotically tight, so the plain tolerance needs
    # head-room between k_max and n; 2048/16 leaves plenty
    model = build_space(SpaceConfig(alpha=0.75, T=1.0, n=2048, k_max=16))
    assembly = build_assembly(model)
    cos_a = abs(math.cos(math.pi * 0.75))
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = SpectralElement(decayed_coeffs(rng, 16, power=3.0))
        na2 = norms(u, model).norm_alpha ** 2
        assert assembly.phi(u.coeffs) >= cos_a * na2 - 1e-8 * (1.0 + na2)


def test_coercivity_slack_closed_form():
    assert coercivity_slack(0.75, 512, 32) == pytest.approx(4.0 * (32 / 512) ** 1.25)
    assert coercivity_slack(1.0, 512, 32) == pytest.approx(4.0 * (32 / 512) ** 1.0)
    # refining the grid at fixed k_max shrinks the allowance
    assert coercivity_slack(0.75, 2048, 16) < coercivity_slack(0.75, 512, 16)


def _pencil_min(model) -> float:
    """Smallest eigenvalue of (M_s, |cos(pi alpha)| G), by scipy's generalized eigh."""
    dl, dr, w = model.caputo_left_images, model.caputo_right_images, model.weights
    pairing = (dl * w) @ dr.T
    cos_a = abs(math.cos(math.pi * model.alpha))
    return scipy.linalg.eigh(
        -0.5 * (pairing + pairing.T), cos_a * (dl * w) @ dl.T, eigvals_only=True
    )[0]


def test_assembly_rejects_indefinite_phi_near_half():
    # M_s has negative eigenvalues here, so the discrete Phi is indefinite
    model = build_space(SpaceConfig(alpha=0.52, T=1.0, n=256, k_max=64))
    worst = _pencil_min(model)
    assert worst < 0.0
    with pytest.raises(ResolutionError, match="lost coercivity") as exc:
        build_assembly(model)
    # the message gives the measured error constant against the slack's 4, not
    # advice to refine: both shrink like (k_max/n)^(2-alpha)
    msg = str(exc.value)
    assert "refine" not in msg
    found = re.search(r"\(1 - min\) / \(k_max/n\)\^\(2-alpha\) = (\S+) exceeds the slack's 4,", msg)
    assert found, msg
    assert float(found.group(1)) == pytest.approx((1.0 - worst) / (64 / 256) ** 1.48, rel=1e-2)


def test_assembly_rejects_sign_flipped_pairing():
    model = build_space(SpaceConfig(alpha=0.75, T=1.0, n=256, k_max=16))
    flipped = dataclasses.replace(model, caputo_right_images=-model.caputo_right_images)
    with pytest.raises(ResolutionError, match="lost coercivity"):
        build_assembly(flipped)


@pytest.mark.parametrize("n", [4096, 16384])
def test_assembly_accepts_tightest_passing_grids(n):
    # the smallest margins measured: 1.8e-4 at n = 4096, 3.1e-5 at n = 16384
    model = build_space(SpaceConfig(alpha=0.55, T=1.0, n=n, k_max=16))
    margin = _pencil_min(model) - (1.0 - coercivity_slack(0.55, n, 16))
    assert 0.0 < margin < 2e-4
    build_assembly(model)


def test_assembly_check_agrees_with_generalized_eigh():
    decisions = []
    for alpha in (0.52, 0.54, 0.55, 0.75):
        for n, k_max in ((64, 16), (256, 64), (1024, 64)):
            model = build_space(SpaceConfig(alpha=alpha, T=1.0, n=n, k_max=k_max))
            expect = _pencil_min(model) < 1.0 - coercivity_slack(alpha, n, k_max) - 1e-12
            try:
                build_assembly(model)
                raised = False
            except ResolutionError:
                raised = True
            assert raised == expect, (alpha, n, k_max)
            decisions.append(raised)
    # the grid straddles the threshold
    assert any(decisions) and not all(decisions)


# -------------------------------------------------------------- gradient


def test_gradient_matches_central_differences(assembly_mid):
    cat = [
        power_sum(1.5, 3.0),
        affine_power(4.0),
        sqrt_plus(),
        table_datum([-2.0, 0.0, 2.0], [-4.0, 0.0, 4.0]),
    ]
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(50):
        nl = cat[trial % len(cat)]
        c = decayed_coeffs(rng, 32, amp=0.3)
        mu = float(rng.uniform(0.0, 1.0))
        energy, gradient = assembly_mid.objective(mu, nl)
        g = gradient(c, c @ assembly_mid.space.basis)
        eps = 1e-6
        scale = max(1.0, float(np.max(np.abs(g))))
        for k in range(0, 32, 7):
            e = np.zeros(32)
            e[k] = eps
            fd = (energy(c + e)[0] - energy(c - e)[0]) / (2 * eps)
            worst = max(worst, abs(fd - g[k]) / scale)
    assert worst <= 1e-5


def test_gradient_of_quadratic_part_is_matrix_product(assembly_mid):
    rng = np.random.default_rng(21)
    c = decayed_coeffs(rng, 32)
    _, gradient = assembly_mid.objective(0.0, zero_datum())
    g = gradient(c, c @ assembly_mid.space.basis)
    expect = 2.0 * assembly_mid.symmetric @ c
    assert np.max(np.abs(g - expect)) < 1e-12
