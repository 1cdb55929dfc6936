"""Admissibility machinery: kappa, the ratio supremum, closed forms for
the two-power datum, and the limit-condition probes."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from fracvar import conditions
from fracvar.conditions import (
    COARSE_POINTS,
    ConditionReport,
    TriState,
    evaluate_conditions,
    example_closed_forms,
    kappa_alpha,
    limit_probes,
    sup_ratio,
)
from fracvar.energy import (
    Nonlinearity,
    affine_power,
    potential_peaks,
    power_sum,
    sqrt_plus,
    table_datum,
    zero_datum,
)

from oracles import kappa_ref


# ----------------------------------------------------------------- kappa


def test_kappa_against_reference_grid():
    for a in np.linspace(0.55, 1.0, 12):
        for T in (0.5, 1.0, 2.0, 3.5):
            assert kappa_alpha(float(a), T) == pytest.approx(kappa_ref(float(a), T), rel=1e-13)


def test_kappa_frozen_value():
    assert kappa_alpha(0.75, 1.0) == pytest.approx(1.8835510808874978, rel=1e-12)
    with pytest.raises(ValueError, match="interval length must be positive"):
        kappa_alpha(0.75, 0.0)


def test_kappa_grows_toward_half():
    # the estimate blows up as alpha -> 1/2 through 1/|cos(pi a)|
    assert kappa_alpha(0.55, 1.0) > kappa_alpha(0.75, 1.0) > 0.0


# ------------------------------------------------------------- sup ratio


def test_two_power_sup_ratio_closed_form():
    sup = sup_ratio(power_sum(1.5, 3.0))
    # gamma^2/F maximized at gamma = 1 with value 1/(1/r + 1/s) = 1
    assert sup.value == pytest.approx(1.0, abs=1e-9)
    assert sup.gamma_bar == pytest.approx(1.0, abs=1e-6)
    assert sup.at_boundary is False


def test_generic_optimizer_matches_closed_form_sweep():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        r = float(rng.uniform(1.05, 1.95))
        s = float(rng.uniform(2.05, 6.0))
        forms = example_closed_forms(r, s)
        mu_closed = forms.mu_bound(0.75, 1.0)
        mu_generic = evaluate_conditions(power_sum(r, s), 0.75, 1.0).mu_star
        worst = max(worst, abs(mu_closed - mu_generic) / mu_closed)
        gb = sup_ratio(power_sum(r, s)).gamma_bar
        worst = max(worst, abs(gb - forms.gamma_bar) / forms.gamma_bar)
    assert worst <= 1e-6
    for r, s in ((1.0, 3.0), (1.5, 2.0), (2.5, 3.0)):
        with pytest.raises(ValueError, match="closed forms need 1 < r < 2 < s"):
            example_closed_forms(r, s)


def test_affine_power_sup_ratio_closed_form():
    # gamma^2 / (gamma + gamma^4/4) peaks at gamma = 2^(1/3)
    sup = sup_ratio(affine_power(4.0))
    assert sup.gamma_bar == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-6)
    assert sup.value == pytest.approx(2.0 ** (4.0 / 3.0) / 3.0, rel=1e-10)
    assert sup.at_boundary is False


def test_affine_window_uses_both_signs():
    # for sign-changing data the denominator is the window max of F, so
    # the plain F(gamma) ratio can only overestimate the probed one
    nl = affine_power(4.0)
    sup = sup_ratio(nl)
    g = sup.gamma_bar
    Fw = max(float(nl.F(np.array([g]))[0]), float(nl.F(np.array([-g]))[0]), 0.0)
    assert sup.value == pytest.approx(g * g / Fw, rel=1e-9)


def _F_points(nl) -> int:
    """Points at which evaluate_conditions evaluates the potential of nl."""
    seen = []

    def F(x):
        seen.append(np.size(x))
        return nl.F(x)

    counted = Nonlinearity(nl.kind, nl.f, F, nl.nonnegative, nl.vanishes_at_zero, dict(nl.params))
    evaluate_conditions(counted, 0.75, 1.0)
    return sum(seen)


def test_affine_window_reads_F_at_plus_gamma_only():
    # F(-gamma) never sets the affine window maximum, so an affine report
    # costs no more potential evaluations than a nonnegative one
    assert _F_points(affine_power(4.0)) <= _F_points(power_sum(1.5, 3.0))


def test_sqrt_plus_sup_hits_probe_boundary():
    # gamma^2/F grows like sqrt(gamma): no finite maximizer, flagged
    sup = sup_ratio(sqrt_plus())
    assert sup.at_boundary is True
    assert sup.value == pytest.approx(1.5 * math.sqrt(1e6), rel=1e-6)


def test_interior_peak_sets_the_window_max():
    # f = 1 on [0, 1], then falls linearly to -1 at xi = 2 and stays
    # there: F peaks at xi = 1.5 with F = 1 + 1/4 and F(+-gamma) < 1.25
    # past it, so from gamma = 1.5 on the window max is the interior peak
    # and the ratio gamma^2 / 1.25 peaks at the grid edge; without the
    # peak the window max would be 0 there and the ratio infinite
    sup = sup_ratio(table_datum([0.0, 1.0, 2.0], [1.0, 1.0, -1.0]))
    assert sup.at_boundary is True
    assert sup.value == pytest.approx(1e12 / 1.25, rel=1e-12)


def test_zero_datum_sup_is_infinite():
    sup = sup_ratio(zero_datum())
    assert math.isinf(sup.value)
    assert evaluate_conditions(zero_datum(), 0.75, 1.0).mu_star == math.inf


def test_linear_table_sup_is_constant_ratio():
    # f = x tabulated: F = x^2/2, ratio identically 2
    nl = table_datum([-1e9, 0.0, 1e9], [-1e9, 0.0, 1e9])
    sup = sup_ratio(nl)
    assert sup.value == pytest.approx(2.0, rel=1e-9)
    assert sup.at_boundary is True


# ------------------------------------------------------------- mu bounds


def test_mu_star_frozen_value():
    assert evaluate_conditions(power_sum(1.5, 3.0), 0.75, 1.0).mu_star == pytest.approx(
        0.5309120682454849, rel=1e-10
    )


def test_mu_star_scales_inversely_with_kappa():
    m1 = evaluate_conditions(power_sum(1.5, 3.0), 0.75, 1.0).mu_star
    m2 = evaluate_conditions(power_sum(1.5, 3.0), 0.75, 2.0).mu_star
    k1 = kappa_alpha(0.75, 1.0)
    k2 = kappa_alpha(0.75, 2.0)
    assert m1 * k1 == pytest.approx(m2 * k2, rel=1e-9)


def test_two_power_closed_forms():
    forms = example_closed_forms(1.5, 3.0)
    assert forms.gamma_bar == pytest.approx(1.0, abs=1e-12)
    assert forms.mu_bound(0.75, 1.0) == pytest.approx(1.0 / kappa_alpha(0.75, 1.0), rel=1e-12)


# ---------------------------------------------------------- limit probes


def test_limit_probe_verdicts_for_catalog():
    kappa = kappa_alpha(0.75, 1.0)
    ps = limit_probes(power_sum(1.5, 3.0), kappa)
    assert ps.s0 is TriState.HOLDS  # f(x)/x ~ x^(r-2) -> inf
    assert ps.zero is TriState.HOLDS
    assert ps.sinf is TriState.FAILS  # x^2/F ~ x^(2-s) -> 0 < kappa

    z = limit_probes(zero_datum(), kappa)
    assert z.s0 is TriState.FAILS
    assert z.zero is TriState.FAILS
    assert z.sinf is TriState.HOLDS  # F <= 0 reads as ratio +inf

    sq = limit_probes(sqrt_plus(), kappa)
    assert sq.s0 is TriState.HOLDS
    assert sq.sinf is TriState.HOLDS


def test_limit_probes_linear_growth_is_inconclusive_free():
    # f = x: f/x is exactly 1, bounded, so the small-x conditions fail
    kappa = kappa_alpha(0.75, 1.0)
    lp = limit_probes(table_datum([-1e9, 0.0, 1e9], [-1e9, 0.0, 1e9]), kappa)
    assert lp.s0 is TriState.FAILS
    assert lp.zero is TriState.FAILS
    assert lp.sinf is TriState.HOLDS  # constant ratio 2 sits above kappa(0.75, 1)


def test_zero_limit_holds_for_a_table_away_from_zero():
    # f = 1 near 0, read from knots at 1e7: F(xi) / xi^2 = 1 / xi diverges
    rep = evaluate_conditions(table_datum([1e7, 2e7], [1.0, 1.0]), 0.75, 1.0)
    assert rep.zero_holds is TriState.HOLDS


# --------------------------------------------------------------- reports


def test_evaluate_conditions_two_power():
    rep = evaluate_conditions(power_sum(1.5, 3.0), 0.75, 1.0)
    assert rep.kappa_alpha == pytest.approx(1.8835510808874978, rel=1e-12)
    assert rep.mu_star == pytest.approx(0.5309120682454849, rel=1e-10)
    assert rep.lambda_right_endpoint == pytest.approx(rep.mu_star, rel=1e-12)
    assert rep.sg_holds is TriState.FAILS  # probed sup 1.0 sits below kappa
    assert rep.s0_holds is TriState.HOLDS
    assert rep.zero_holds is TriState.HOLDS
    assert len(rep.probes) > 0


def test_evaluate_conditions_interval_at_the_probe_boundary():
    # gamma^2/F grows like sqrt(gamma): the interval's right end is mu_star,
    # read at the grid edge and flagged
    rep = evaluate_conditions(sqrt_plus(), 0.75, 1.0)
    assert rep.sup_at_boundary is True
    assert rep.lambda_right_endpoint == rep.mu_star
    assert rep.lambda_right_endpoint == pytest.approx(
        1.5e3 / kappa_alpha(0.75, 1.0), rel=1e-6
    )


def test_evaluate_conditions_signed_datum_has_no_interval():
    rep = evaluate_conditions(affine_power(4.0), 0.75, 1.0)
    assert rep.lambda_right_endpoint is None
    assert rep.mu_star == pytest.approx(
        (2.0 ** (4.0 / 3.0) / 3.0) / kappa_alpha(0.75, 1.0), rel=1e-9
    )


def test_sg_verdict_certifies_above_kappa():
    # probed sup 2 > kappa: a grid supremum only underestimates, so this
    # is a certificate even though the argmax sat on the probe edge
    rep = evaluate_conditions(table_datum([-1e9, 0.0, 1e9], [-1e9, 0.0, 1e9]), 0.75, 1.0)
    assert rep.sg_holds is TriState.HOLDS
    rep2 = evaluate_conditions(zero_datum(), 0.75, 1.0)
    assert rep2.sg_holds is TriState.HOLDS
    assert math.isinf(rep2.mu_star)


def test_condition_report_round_trips_through_json():
    rep = evaluate_conditions(power_sum(1.5, 3.0), 0.75, 1.0)
    doc = json.loads(rep.json_str())
    back = ConditionReport.from_jsonable(doc)
    assert back.kappa_alpha == rep.kappa_alpha
    assert back.mu_star == rep.mu_star
    assert back.sg_holds is rep.sg_holds
    assert back.probes == rep.probes
    # infinities survive the round trip
    zrep = evaluate_conditions(zero_datum(), 0.75, 1.0)
    zback = ConditionReport.from_jsonable(json.loads(zrep.json_str()))
    assert math.isinf(zback.mu_star)


# One datum per catalog kind, with both signs of table.
_REPORT_DATA = {
    "table_signed": lambda: table_datum([-3.0, -1.0, 0.0, 2.0], [1.5, -2.0, 0.0, 1.0]),
    "table_nonnegative": lambda: table_datum([-1.0, 0.0, 1.0, 3.0], [0.5, 0.0, 1.0, 4.0]),
    "affine_power": lambda: affine_power(4.0),
    "power_sum": lambda: power_sum(1.5, 3.0),
    "sqrt_plus": sqrt_plus,
    "zero": zero_datum,
}


@pytest.mark.parametrize("name", sorted(_REPORT_DATA))
def test_report_matches_standalone_quantities_exactly(name):
    # the report shares one supremum between its fields; each must equal
    # the standalone function to the bit
    nl = _REPORT_DATA[name]()
    rep = evaluate_conditions(nl, 0.7, 1.5)
    sup = sup_ratio(nl)
    assert rep.sup_ratio == sup.value
    assert rep.gamma_bar == sup.gamma_bar
    assert rep.sup_at_boundary == sup.at_boundary
    assert rep.mu_star == sup.value / kappa_alpha(0.7, 1.5)
    if nl.nonnegative:
        assert rep.lambda_right_endpoint == rep.mu_star
    else:
        assert rep.lambda_right_endpoint is None


@pytest.mark.parametrize("name", sorted(_REPORT_DATA))
def test_report_evaluates_each_probe_grid_once(name):
    nl = _REPORT_DATA[name]()
    asked = [0]
    calls = {"f": 0, "F": 0}

    def counting_F(x, F=nl.F):
        asked[0] += np.asarray(x).size
        calls["F"] += 1
        return F(x)

    def counting_f(x, f=nl.f):
        calls["f"] += 1
        return f(x)

    counted = dataclasses.replace(nl, f=counting_f, F=counting_F)
    asked[0] = 0  # replace() re-runs the construction probes
    evaluate_conditions(counted, 0.75, 1.0)
    # one coarse scan (F at +-gamma for signed data), F at each peak,
    # and a few dozen golden-section and limit probes
    assert asked[0] <= 2 * COARSE_POINTS + 200
    calls.update(f=0, F=0)
    limit_probes(counted, 1.0)
    assert calls == {"f": 1, "F": 2}


def _limit_probes_oracle(nl, kappa):
    # the scalar loop that limit_probes replaced: one call per abscissa
    def scalar(fn, x):
        return float(np.asarray(fn(np.array([x])))[0])

    small = [10.0 ** -k for k in range(1, conditions.SMALL_PROBE_DEPTH + 1)]
    s0_seq = [scalar(nl.f, x) / x for x in small]
    zero_seq = [scalar(nl.F, x) / (x * x) for x in small]
    sinf_seq = []
    for k in range(1, conditions.LARGE_PROBE_DEPTH + 1):
        x = 10.0 ** k
        Fx = scalar(nl.F, x)
        sinf_seq.append(x * x / Fx if Fx > 0.0 else math.inf)
    return conditions.LimitProbes(
        s0=conditions._divergence_verdict(s0_seq, conditions.DIVERGENCE_THRESHOLD),
        sinf=conditions._threshold_verdict(sinf_seq, kappa),
        zero=conditions._divergence_verdict(zero_seq, conditions.DIVERGENCE_THRESHOLD),
    )


def _limit_probe_data():
    data = [make() for make in _REPORT_DATA.values()]
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = int(rng.integers(3, 9))
        xs = np.sort(rng.uniform(-4.0, 4.0, m))
        data.append(table_datum(xs, rng.uniform(-2.0, 2.0, m)))
        data.append(table_datum(xs, rng.uniform(0.0, 3.0, m)))
        data.append(power_sum(float(rng.uniform(1.05, 1.95)), float(rng.uniform(2.1, 6.0))))
    return data


def test_batched_limit_probes_match_scalar_loop():
    for nl in _limit_probe_data():
        for kappa in (0.5, kappa_alpha(0.75, 1.0), 10.0):
            assert limit_probes(nl, kappa) == _limit_probes_oracle(nl, kappa), nl.params


def test_datum_cannot_move_the_limit_ladders():
    # the ladders are built once and shared by every report, as the flag
    # probe is; a datum that writes into its argument there fails loudly
    small = [10.0 ** -k for k in range(1, conditions.SMALL_PROBE_DEPTH + 1)]
    large = [10.0 ** k for k in range(1, conditions.LARGE_PROBE_DEPTH + 1)]

    def shifts_ladders(x):
        if x.shape in ((len(small),), (len(large),)):  # not the flag probe
            x += 100.0
        return x * x / 2.0

    for f, F in ((lambda x: x, shifts_ladders), (shifts_ladders, lambda x: x * x * x / 6.0)):
        nl = Nonlinearity("shifting", f, F, False, True)
        with pytest.raises(ValueError, match="read-only"):
            limit_probes(nl, 1.0)
    assert conditions._SMALL_LADDER.tolist() == small
    assert conditions._LARGE_LADDER.tolist() == large


# The catalog data, plus two draws whose probe trace at an earlier
# revision held ratios above sup_ratio: there the trace and the
# supremum read two different window maxima of F.
_TRACE_DATA = {
    **_REPORT_DATA,
    "power_sum_1.8_5": lambda: power_sum(1.8, 5.0),
    "affine_power_2.26": lambda: affine_power(2.260092636040421),
}


@pytest.mark.parametrize("name", sorted(_TRACE_DATA))
def test_probe_trace_is_the_scan_the_supremum_was_taken_over(name):
    nl = _TRACE_DATA[name]()
    rep = evaluate_conditions(nl, 0.75, 1.0)
    gammas, ratios, _ = conditions._coarse_scan(nl)
    assert list(rep.probes[:-1]) == list(zip(gammas[::40].tolist(), ratios[::40].tolist()))
    assert rep.probes[-1] == (rep.gamma_bar, rep.sup_ratio)
    assert all(r <= rep.sup_ratio for _, r in rep.probes)


# --------------------------------------------------------- window maximum


def _oracle_window_max(nl, xs):
    # plain running max of F over the sampled window [-x, x], floored by F(0) = 0
    both = np.maximum(np.asarray(nl.F(xs), dtype=float), np.asarray(nl.F(-xs), dtype=float))
    return np.maximum(np.maximum.accumulate(both), 0.0)


def _signed_tables():
    rng = np.random.default_rng(31)
    tables = []
    for _ in range(50):
        m = int(rng.integers(3, 9))
        xs = np.sort(rng.uniform(-4.0, 4.0, m))
        tables.append(table_datum(xs, rng.uniform(-2.0, 2.0, m)))
    return tables


# Every catalog kind; in table_peaked F rises to its maximum at xi = 1.5
# and falls after, so only the interior peak carries the window maximum
_WINDOW_DATA = {
    **{name: (lambda make=make: [make()]) for name, make in _REPORT_DATA.items()},
    "table_peaked": lambda: [table_datum([0.0, 1.0, 2.0], [1.0, 1.0, -1.0])],
    "signed_tables": _signed_tables,
}


@pytest.mark.parametrize("name", sorted(_WINDOW_DATA))
def test_window_max_matches_dense_oracle(name):
    xs = np.linspace(0.0, 6.0, 100001)
    h = float(xs[1] - xs[0])
    for nl in _WINDOW_DATA[name]():
        exact = conditions._window_max(nl)(xs)
        oracle = _oracle_window_max(nl, xs)
        # the oracle samples a subset of each window, so it cannot exceed
        # the exact maximum beyond roundoff
        scale = 1e-13 * (1.0 + np.abs(oracle))
        assert np.all(exact >= oracle - scale), nl.params
        # the window endpoints are oracle samples; an interior peak p has
        # f(p) = 0, so a sample within h of it is lower by at most L h^2 / 2,
        # L the steepest slope of the table; the other data have no peaks
        lip = 0.0
        if nl.kind == "table":
            fs, knots = nl.params["fs"], nl.params["xs"]
            lip = float(np.max(np.abs(np.diff(fs) / np.diff(knots))))
        assert np.all(exact - oracle <= 0.5 * lip * h * h + scale), nl.params


def test_table_peaks_are_downward_zeros_of_f():
    assert potential_peaks(table_datum([0.0, 1.0, 2.0], [1.0, 1.0, -1.0])).tolist() == [1.5]
    assert potential_peaks(affine_power(4.0)).size == 0
    assert potential_peaks(power_sum(1.5, 3.0)).size == 0
    found = 0
    for nl in _signed_tables():
        fs = np.asarray(nl.params["fs"])
        for p in potential_peaks(nl):
            found += 1
            assert abs(float(nl.f(np.array([p]))[0])) <= 1e-12 * (1.0 + np.max(np.abs(fs)))
            assert float(nl.f(np.array([p - 1e-9]))[0]) > 0.0
    assert found > 20


@pytest.mark.parametrize("name", ["table_signed", "affine_power"])
def test_positional_copy_gives_the_same_report(name):
    # a copy from the six positional fields keeps kind and params, so it
    # keeps the peaks the window maximum reads
    nl = _REPORT_DATA[name]()
    copy = Nonlinearity(nl.kind, nl.f, nl.F, nl.nonnegative, nl.vanishes_at_zero, dict(nl.params))
    assert evaluate_conditions(copy, 0.75, 1.0).json_str() == (
        evaluate_conditions(nl, 0.75, 1.0).json_str()
    )
