"""Harness: identity verification rows, sweeps and their verdicts, ray
scans, report emission, and the command line."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracvar import codec, harness
from fracvar.conditions import ConditionReport
from fracvar.energy import affine_power, from_tag, zero_datum
from fracvar.errors import HypothesisError
from fracvar.harness import (
    RayScanReport,
    SweepReport,
    cli_main,
    emit_report,
    kernel_verify,
    ray_scan,
    run_sweep,
)
from fracvar.problem import ProblemSpec
from fracvar.solver import _CANDIDATE_KEYS, CertificateSet, SolutionRecord, certify, minimize
from fracvar.space import AuditReport


# ---------------------------------------------------------- kernel rows


@pytest.fixture(scope="module")
def kv_rows():
    return kernel_verify(0.75, 1.0, 512)


def test_kernel_verify_all_rows_pass(kv_rows):
    for row in kv_rows:
        if row.at_least:
            assert row.measured >= row.threshold, row.name
        else:
            assert row.measured <= row.threshold, row.name


def test_kernel_verify_row_names_unique(kv_rows):
    names = [r.name for r in kv_rows]
    assert len(names) == len(set(names))
    kinds = " ".join(names)
    assert "power rule" in kinds
    assert "integration by parts" in kinds
    assert "composition" in kinds
    assert "linearity" in kinds
    assert "convergence" in kinds


def test_kernel_verify_convergence_row(kv_rows):
    order_rows = [r for r in kv_rows if r.at_least]
    assert len(order_rows) >= 1
    assert all(r.measured >= 1.5 for r in order_rows)


_H_SCALED_ROWS = ("integration by parts", "left composition", "right composition")


@pytest.mark.parametrize("T", [1e-20, 1e-6, 0.01, 0.1, 10.0, 100.0, 1e6, 1e20])
def test_kernel_verify_passes_and_reads_the_same_at_every_T(T):
    # the probes are functions of t / T and the h-scaled rows are measured in
    # their units, so a working kernel passes at any T with T = 1's figures
    for seed in range(8):
        rows = {r.name: r for r in kernel_verify(0.75, T, 512, seed=seed)}
        at_one = {r.name: r for r in kernel_verify(0.75, 1.0, 512, seed=seed)}
        assert all(r.ok for r in rows.values()), (seed, [r for r in rows.values() if not r.ok])
        for name in _H_SCALED_ROWS:
            assert rows[name].threshold == pytest.approx(at_one[name].threshold, rel=1e-12)
            assert rows[name].measured == pytest.approx(at_one[name].measured, rel=1e-6)


def test_kernel_verify_deterministic():
    a = kernel_verify(0.75, 1.0, 256)
    b = kernel_verify(0.75, 1.0, 256)
    assert [(r.name, r.measured) for r in a] == [(r.name, r.measured) for r in b]


# ---------------------------------------------------------------- sweeps


@pytest.fixture(scope="module")
def sweep_small(problem_small):
    return run_sweep(problem_small, 0.05, 0.5, 8)


def test_sweep_verdicts_all_pass(sweep_small):
    assert sweep_small.monotonicity_verdict
    assert sweep_small.negativity_verdict
    assert sweep_small.norm_decay_verdict
    assert not sweep_small.trivial_datum


def test_sweep_layout(sweep_small):
    assert len(sweep_small.mu_values) == 8
    assert len(sweep_small.records) == 8
    mus = np.asarray(sweep_small.mu_values)
    assert np.all(np.diff(mus) > 0)
    # geometric spacing: constant ratio between consecutive mu values
    ratios = mus[1:] / mus[:-1]
    assert np.max(ratios) - np.min(ratios) < 1e-9
    for mu, rec in zip(sweep_small.mu_values, sweep_small.records):
        assert rec.mu == mu


def test_sweep_energies_strictly_decreasing(sweep_small):
    energies = [r.energy for r in sweep_small.records]
    assert all(e < 0.0 for e in energies)
    assert all(b < a - 1e-10 * abs(a) for a, b in zip(energies, energies[1:]))


def test_sweep_norms_shrink_toward_zero(sweep_small):
    norms = [r.norm_alpha for r in sweep_small.records]
    # traversed toward mu -> 0 both coordinates of (norm, mu) decrease
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[0] < 0.25 * norms[-1]


def test_sweep_energies_certify_distinctness(sweep_small):
    energies = [r.energy for r in sweep_small.records if r.converged]
    assert len(set(energies)) == len(energies)


def test_sweep_records_are_minimize_on_reseeded_problems(problem_small, sweep_small):
    # run_sweep varies only the seed, by a fixed stride, through problem.solver
    model, assembly = problem_small.build()
    for i, (mu, rec) in enumerate(zip(sweep_small.mu_values, sweep_small.records)):
        seed = problem_small.solver.seed + 7919 * i
        point = dataclasses.replace(
            problem_small, solver=dataclasses.replace(problem_small.solver, seed=seed)
        )
        alone = minimize(
            point, mu, model=model, assembly=assembly, gamma_bar=sweep_small.conditions.gamma_bar
        )
        assert alone.json_str() == rec.json_str()
        assert alone.candidates == rec.candidates


def test_sweep_rejects_bad_ranges(problem_small):
    with pytest.raises(ValueError, match="count"):
        run_sweep(problem_small, 0.05, 0.5, 3)
    with pytest.raises(HypothesisError, match="0.5309120682454849"):
        run_sweep(problem_small, 0.05, 0.6, 8)
    with pytest.raises(ValueError, match="mu_min"):
        run_sweep(problem_small, 0.0, 0.5, 8)


def test_sweep_zero_datum_flags_trivial():
    spec = ProblemSpec(alpha=0.75, T=1.0, n=256, k_max=16, nonlinearity=zero_datum())
    rep = run_sweep(spec, 0.05, 0.5, 4)
    assert rep.trivial_datum
    assert not rep.negativity_verdict
    assert all(r.norm_alpha == 0.0 for r in rep.records)


# -------------------------------------------------------------- ray scans


def test_ray_scan_superquadratic_descends():
    spec = ProblemSpec(alpha=0.75, T=1.0, n=256, k_max=16, nonlinearity=affine_power(4.0))
    rs = ray_scan(spec, 0.1)
    assert rs.expected_exponent == pytest.approx(4.0)
    assert abs(rs.fitted_exponent - 4.0) <= 0.3
    assert rs.tail_negative
    assert rs.unbounded_verdict
    j = np.asarray(rs.values)
    tau = np.asarray(rs.taus)
    assert bool(np.any(j[tau <= 100.0] < -1e3))


def test_ray_scan_two_power_exponent(problem_small):
    rs = ray_scan(problem_small, 0.25)
    assert rs.expected_exponent == pytest.approx(3.0)
    assert abs(rs.fitted_exponent - 3.0) <= 0.3
    assert rs.unbounded_verdict


def test_ray_scan_defaults_to_25_points(problem_small):
    assert ray_scan(problem_small, 0.25) == ray_scan(problem_small, 0.25, 25)
    rs = ray_scan(problem_small, 0.25, 3)
    assert rs.taus == (0.1, 10.0, 1000.0)
    with pytest.raises(ValueError, match="count >= 3"):
        ray_scan(problem_small, 0.25, 2)


def test_ray_scan_zero_datum_stays_quadratic():
    spec = ProblemSpec(alpha=0.75, T=1.0, n=256, k_max=16, nonlinearity=zero_datum())
    rs = ray_scan(spec, 0.25)
    assert not rs.tail_negative
    assert not rs.unbounded_verdict
    # J(tau u) = tau^2 Phi(u): the fit recovers the quadratic ray exactly
    assert rs.fitted_exponent == pytest.approx(2.0, abs=1e-6)


# --------------------------------------------------------------- reports


def test_emit_sweep_csv_layout(tmp_path, sweep_small):
    out = tmp_path / "sweep.csv"
    paths = emit_report(sweep_small, out, format="csv")
    assert str(out) in paths
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "mu",
        "norm_alpha",
        "norm_inf",
        "phi",
        "psi",
        "energy",
        "residual",
        "converged",
        "restarts_used",
    ]
    assert len(rows) == 1 + 8
    assert float(rows[1][0]) == pytest.approx(0.05)


def test_emit_sweep_csv_is_reproducible(tmp_path, sweep_small):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_report(sweep_small, p1, format="csv")
    emit_report(sweep_small, p2, format="csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_sweep_json_round_trip(tmp_path, sweep_small):
    out = tmp_path / "sweep.json"
    emit_report(sweep_small, out, format="json")
    body = out.read_text()
    doc = json.loads(body)
    assert doc["monotonicity_verdict"] is True
    assert len(doc["records"]) == 8
    assert doc["records"][0]["mu"] == pytest.approx(0.05)
    assert SweepReport.from_jsonable(doc).json_str() + "\n" == body


def test_zero_datum_sweep_json_round_trip(tmp_path):
    # mu_star is +inf here, so the nested report carries the "inf" encoding
    spec = ProblemSpec(alpha=0.75, T=1.0, n=128, k_max=8, nonlinearity=zero_datum())
    out = tmp_path / "zero.json"
    emit_report(run_sweep(spec, 0.1, 1.0, 4), out, format="json")
    body = out.read_text()
    doc = json.loads(body)
    assert doc["conditions"]["mu_star"] == "inf"
    back = SweepReport.from_jsonable(doc)
    assert math.isinf(back.conditions.mu_star)
    assert back.json_str() + "\n" == body


# top-level JSON keys of every report, in field order; a new dataclass
# field must not reach the JSON without a change here
_REPORT_KEYS = {
    SweepReport: [
        "mu_values", "records", "monotonicity_verdict", "negativity_verdict",
        "norm_decay_verdict", "trivial_datum", "conditions",
    ],
    SolutionRecord: [
        "coeffs", "mu", "norm_alpha", "norm_inf", "phi", "psi", "energy", "residual",
        "converged", "nontrivial", "restarts_used", "gamma_bar", "r_radius",
        "candidates", "node_values",
    ],
    CertificateSet: ["inf_norm_bound", "negative_energy", "residual_ok", "interior", "residual_tol"],
    ConditionReport: [
        "kappa_alpha", "sup_ratio", "gamma_bar", "sup_at_boundary", "mu_star",
        "lambda_right_endpoint", "sg_holds", "s0_holds", "sinf_holds", "zero_holds", "probes",
    ],
    RayScanReport: [
        "taus", "values", "fitted_exponent", "expected_exponent", "tail_negative",
        "unbounded_verdict",
    ],
    AuditReport: ["tightest_ratio_a", "tightest_ratio_b", "tightest_ratio_c", "coercivity_ratio"],
}


def test_report_json_layout(problem_small, sweep_small):
    rec = sweep_small.records[0]
    audit = AuditReport(0.5, 0.25, 1.0, 0.998)
    reports = [
        sweep_small,
        rec,
        certify(rec, problem_small, sweep_small.conditions),
        sweep_small.conditions,
        ray_scan(problem_small, 0.25),
        audit,
    ]
    assert {type(r) for r in reports} == set(_REPORT_KEYS)
    for rep in reports:
        doc = json.loads(rep.json_str())
        assert list(rep.to_jsonable()) == _REPORT_KEYS[type(rep)]
        assert sorted(doc) == sorted(_REPORT_KEYS[type(rep)])
        assert type(rep).from_jsonable(doc).json_str() == rep.json_str()
        assert rep.json_str() == json.dumps(rep.to_jsonable(), sort_keys=True, indent=2)
    for r in sweep_small.records:
        for cand in r.to_jsonable()["candidates"]:
            assert tuple(cand) == _CANDIDATE_KEYS


def test_codec_encodes_both_infinities():
    rep = RayScanReport(
        taus=(1.0, 2.0, 3.0),
        values=(-math.inf, 0.5, math.inf),
        fitted_exponent=None,
        expected_exponent=math.inf,
        tail_negative=False,
        unbounded_verdict=False,
    )
    doc = json.loads(rep.json_str())
    assert doc["values"] == ["-inf", 0.5, "inf"]
    assert doc["expected_exponent"] == "inf"
    assert doc["fitted_exponent"] is None
    back = RayScanReport.from_jsonable(doc)
    assert back == rep


# JSON values with the edge cases of the codec's writer: non-ASCII and
# control characters, the non-finite floats, -0.0, the least subnormal,
# a float list whose sum overflows, rows of floats or of any scalars,
# tuples and empties.
_TEXT = st.text(max_size=6) | st.sampled_from(["\x00\x1f\n\"\\", "\u00e9\u2028\U0001f600"])
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
_ROWS = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(_FLOATS, min_size=k, max_size=k).map(tuple)
        | st.lists(_SCALARS, min_size=k, max_size=k),
        max_size=5,
    )
)
_DOCS = st.recursive(
    _SCALARS | st.lists(_FLOATS) | _ROWS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300)
@given(doc=_DOCS, indent=st.integers(0, 4))
@example(doc=[1e308, 1e308], indent=2)
@example(doc=[[1e308, 1e308], [1.0, 2.0]], indent=2)
@example(doc=[[1.5, 2**1100], [2**1100]], indent=2)
@example(doc=[[1.5, 2.5], [3.5], []], indent=2)
@example(doc=[[1e-06, "inf"], [2.5, "-inf"], [3.5, 0.25]], indent=2)
@example(doc=[[1.5, 2.5], {"a": 2.5, "": None}], indent=2)
@example(doc={"a": [], "b": {}, "c": ([], {}, ()), "d": [[], [[]]]}, indent=2)
@example(doc={"\u00e9": [True, 1.5, 2], "\x1f": (False, None, -0.0)}, indent=2)
def test_dumps_matches_json(doc, indent):
    assert codec._dumps(doc, indent) == json.dumps(doc, sort_keys=True, indent=indent)


@pytest.mark.parametrize("bad", [object(), [1.5, {2.5}], [[1.5], np.array([1.0])], {1: "a"}])
def test_dumps_raises_type_error(bad):
    # json rejects all but the int key, which it writes as "1"; report
    # keys are field names, so the writer takes string keys only
    with pytest.raises(TypeError):
        codec._dumps(bad, 2)


def test_emit_rejects_unknown_format(tmp_path, sweep_small):
    with pytest.raises(ValueError):
        emit_report(sweep_small, tmp_path / "x.bin", format="xml")
    with pytest.raises(ValueError, match="cannot emit report of type AuditReport"):
        emit_report(AuditReport(1.0, 1.0, 1.0, 1.0), tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_codec_refuses_a_field_type_it_cannot_encode():
    @dataclasses.dataclass(frozen=True)
    class Phase(codec.JsonCodec):
        angle: complex

    with pytest.raises(TypeError, match="no JSON encoding for <class 'complex'>"):
        Phase(1j).json_str()


# ------------------------------------------------------------------- CLI


def _write_config(path, n=256, k_max=16, alpha=0.75):
    path.write_text(
        json.dumps(
            {
                "alpha": alpha,
                "T": 1.0,
                "n": n,
                "k_max": k_max,
                "nonlinearity": {"kind": "power_sum", "r": 1.5, "s": 3.0},
            }
        )
    )


def test_cli_kernel_verify_exits_clean(capsys):
    rc = cli_main(["kernel-verify", "--alpha", "0.75", "--n", "128"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass" in out
    assert "fail" not in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T", ["1e300", "1e200", "1.8e123", "1e-300"])
def test_cli_kernel_verify_rejects_an_extreme_T_before_any_work(capsys, monkeypatch, T):
    # 1e300 and 1e200 overflow the closed forms, 1e-300 underflows them to 0;
    # at 1.8e123 only the product 2 * T**2.5 overflows, to inf without an error
    def no_work(*args, **kwargs):
        raise AssertionError("an operator ran")

    monkeypatch.setattr(harness, "rl_left_integral", no_work)
    assert cli_main(["kernel-verify", "--T", T]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fracvar: error: kernel-verify at T=") and err.count("\n") == 1


def test_cli_conditions_emits_json(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    rc = cli_main(["conditions", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    # stdout is the report document alone
    doc = json.loads(out[: out.index("\n}") + 2])
    assert doc["mu_star"] == pytest.approx(0.5309120682454849)
    assert doc["sg_holds"] == "fails"


def test_cli_conditions_stdout_is_one_json_document(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    assert cli_main(["conditions", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--mu-min", "0.05", "--mu-max", "0.5", "--count", "4"],
        ["ray-scan", "--mu", "0.25", "--count", "6"],
    ],
)
def test_cli_stdout_equals_emitted_file(tmp_path, capsys, command, fmt):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    args = command + ["--config", str(cfg), "--format", fmt]
    assert cli_main(args) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / f"report.{fmt}"
    assert cli_main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert stdout == out.read_text(encoding="utf-8")


def test_cli_solve_writes_solution(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    out_path = tmp_path / "sol.json"
    rc = cli_main(["solve", "--config", str(cfg), "--mu", "0.25", "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["converged"] is True
    assert doc["energy"] < 0.0
    assert doc["mu"] == 0.25


def test_cli_sweep_deterministic_csv(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    args = [
        "sweep",
        "--config",
        str(cfg),
        "--mu-min",
        "0.05",
        "--mu-max",
        "0.5",
        "--count",
        "4",
        "--seed",
        "0",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    missing = tmp_path / "nope.json"

    assert cli_main(["frobnicate"]) == 1
    assert cli_main(["solve", "--config", str(cfg), "--mu", "-1"]) == 1
    assert cli_main(["solve", "--config", str(cfg), "--mu", "0.25", "--seed", "-1"]) == 1

    rc = cli_main(["solve", "--config", str(missing), "--mu", "0.1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(missing) in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["conditions", "--config", str(broken)]) == 1

    rc = cli_main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--mu-min",
            "0.05",
            "--mu-max",
            "0.6",
            "--count",
            "4",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "0.5309" in err

    # alpha 0.52 at (256, 64): the discrete Phi is indefinite; mu_star is 0.0073
    indefinite = tmp_path / "indefinite.json"
    _write_config(indefinite, n=256, k_max=64, alpha=0.52)
    assert cli_main(["solve", "--config", str(indefinite), "--mu", "0.003"]) == 1
    assert "lost coercivity" in capsys.readouterr().err


def test_cli_ray_scan_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    out = tmp_path / "ray.csv"
    rc = cli_main(["ray-scan", "--config", str(cfg), "--mu", "0.25", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "tau"
    assert len(rows) > 2


def test_cli_ray_scan_takes_no_seed(tmp_path, capsys):
    # ray_scan runs no solver, so a seed would change nothing
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    assert cli_main(["ray-scan", "--config", str(cfg), "--mu", "0.25", "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["nan", "-1", "inf"])
def test_cli_ray_scan_rejects_a_bad_mu_before_building(tmp_path, capsys, monkeypatch, mu):
    # minimize's own check: NaN would print invalid JSON, -1 a flipped energy, inf -inf
    cfg = tmp_path / "p.json"
    _write_config(cfg)

    def no_build(self):
        raise AssertionError("the problem was built before mu was checked")

    monkeypatch.setattr(ProblemSpec, "build", no_build)
    rc = cli_main(["ray-scan", "--config", str(cfg), "--mu", mu, "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert "fracvar: error: mu must be finite and nonnegative" in err


@pytest.mark.parametrize("key", ["armijo_c", "backtrack_factor", "sublevel_margin"])
def test_cli_rejects_solver_constants_in_config(tmp_path, capsys, key):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    doc = json.loads(cfg.read_text())
    doc["solver"] = {key: 0.5}
    cfg.write_text(json.dumps(doc))
    assert cli_main(["conditions", "--config", str(cfg)]) == 1
    assert "bad solver settings" in capsys.readouterr().err


@pytest.mark.parametrize("T", [1e300, 1e-300])
def test_cli_extreme_T_exits_1(tmp_path, capsys, T):
    # kappa_alpha overflows (1e300) or underflows to 0 (1e-300)
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    doc = json.loads(cfg.read_text())
    doc["T"] = T
    cfg.write_text(json.dumps(doc))
    assert cli_main(["conditions", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracvar: error: kappa_alpha") and f"T={T}" in err
    assert "Traceback" not in err


# out of range: an infinite table knot (json reads -Infinity), a negative
# seed, no restarts
_OUT_OF_RANGE = [
    ({"nonlinearity": {"kind": "table", "xs": [-math.inf, 0, 1], "fs": [1, 0, 1]}},
     "table abscissae must be finite"),
    ({"solver": {"seed": -1}}, "seed must be >= 0"),
    ({"solver": {"restarts": 0}}, "restarts must be >= 1"),
]
# a NaN table sample outside the flag probe's [-10, 10] (json reads NaN)
_NAN_SAMPLE = (
    {"nonlinearity": {"kind": "table", "xs": [20, 30, 40], "fs": [1, math.nan, 2]}},
    "table samples must be finite",
)
# power_sum(1.5, 308.5): f is finite on the flag probe's [-10, 10] but F
# overflows near |x| = 10; at 309.5 f overflows too.  The first printed a
# report built on the overflow, and both warned before the datum was checked
_OVERFLOWING_POWERS = [
    ({"nonlinearity": {"kind": "power_sum", "r": 1.5, "s": 308.5}},
     "F must map arrays to finite arrays"),
    ({"nonlinearity": {"kind": "power_sum", "r": 1.5, "s": 309.5}},
     "f must map arrays to finite arrays"),
]


def _patched_config(tmp_path, patch):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    doc = json.loads(cfg.read_text())
    doc.update(patch)
    cfg.write_text(json.dumps(doc))
    return cfg


def _rejects(tmp_path, capsys, patch, command) -> str:
    """Run command on the patched config with warnings as errors; its one stderr line."""
    cfg = _patched_config(tmp_path, patch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main([command[0], "--config", str(cfg), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracvar: error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"n": 512.9}, "n"),
        ({"n": "512"}, "n"),
        ({"k_max": 16.0}, "k_max"),
        ({"solver": {"seed": 1.5}}, "seed"),
        ({"solver": {"restarts": 2.5}}, "restarts"),
        ({"solver": {"max_iters": 10.5}}, "max_iters"),
        ({"solver": {"restarts": True}}, "restarts"),
        ({"alpha": "0.75"}, "alpha"),
        ({"alpha": True}, "alpha"),
        ({"T": True}, "T"),
        ({"T": "1.0"}, "T"),
        ({"solver": {"grad_tol": True}}, "grad_tol"),
        ({"solver": {"grad_tol": "1e-8"}}, "grad_tol"),
        # table flags are read from the samples; "nonnegative" is not a key
        ({"nonlinearity": {"kind": "table", "xs": [0, 1], "fs": [0, 1], "nonnegative": "no"}},
         "bad parameters for nonlinearity 'table'"),
        ({"nonlinearity": {"kind": "table", "xs": [0, 1], "fs": [0, 1], "nonnegative": False}},
         "bad parameters for nonlinearity 'table'"),
    ]
    + _OUT_OF_RANGE
    + [
        ({"nonlinearity": [1.5, 3.0]}, 'config "nonlinearity" must be an object'),
        ({"nonlinearity": {"r": 1.5, "s": 3.0}}, 'with a "kind"'),
        ({"solver": [8]}, 'config "solver" must be an object'),
        _NAN_SAMPLE,
    ]
    + _OVERFLOWING_POWERS,
)
def test_cli_rejects_non_integer_config_fields(tmp_path, capsys, patch, field):
    assert field in _rejects(tmp_path, capsys, patch, ["solve", "--mu", "0.25"])


@pytest.mark.parametrize("patch, message", _OUT_OF_RANGE + [_NAN_SAMPLE] + _OVERFLOWING_POWERS)
def test_cli_conditions_rejects_a_bad_datum_or_seed(tmp_path, capsys, patch, message):
    # with the infinite knot conditions printed a finite mu_star, with the
    # NaN sample mu_star inf, and with seed -1 it exited 0 while solve failed
    # late inside numpy
    assert message in _rejects(tmp_path, capsys, patch, ["conditions"])


@pytest.mark.parametrize("patch, message", _OVERFLOWING_POWERS)
def test_cli_rejects_an_overflowing_datum_under_warnings_as_errors(tmp_path, patch, message):
    # a fresh interpreter in dev mode, as the CI steps run the command line
    cfg = _patched_config(tmp_path, patch)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "fracvar", "conditions",
         "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("fracvar: error:") and message in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_config_schema_is_closed(tmp_path):
    doc = {
        "alpha": 0.75,
        "T": 1.0,
        "n": 256,
        "k_max": 16,
        "nonlinearity": {"kind": "power_sum", "r": 1.5, "s": 3.0},
        "extra": 1,
    }
    with pytest.raises(ValueError, match="unknown config keys"):
        ProblemSpec.from_config(doc)
    del doc["extra"]
    with pytest.raises(ValueError, match="config root must be an object, got list"):
        ProblemSpec.from_config([doc])
    del doc["nonlinearity"]
    with pytest.raises(ValueError, match="nonlinearity"):
        ProblemSpec.from_config(doc)
    doc["nonlinearity"] = {"kind": "power_sum", "r": 1.5}
    with pytest.raises(ValueError, match="bad parameters"):
        ProblemSpec.from_config(doc)
    doc["nonlinearity"] = {"kind": "power_sum", "r": 1.5, "s": 3.0}
    spec = ProblemSpec.from_config(doc)
    assert spec.nonlinearity.kind == "power_sum"
    assert from_tag("power_sum", r=1.5, s=3.0).params == spec.nonlinearity.params


@pytest.mark.parametrize(
    "field, value", [("nonlinearity", "power_sum"), ("solver", {"restarts": 2})]
)
def test_problem_spec_rejects_a_datum_or_solver_of_another_type(field, value):
    fields = dict(alpha=0.75, T=1.0, n=256, k_max=16, nonlinearity=affine_power(4.0))
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be a"):
        ProblemSpec(**fields)


def test_cli_rejects_an_infinite_grad_tol(tmp_path, capsys):
    # json reads Infinity; with it every restart "converged" at its start
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    doc = json.loads(cfg.read_text())
    doc["solver"] = {"grad_tol": math.inf}
    cfg.write_text(json.dumps(doc))
    assert "Infinity" in cfg.read_text()
    assert cli_main(["solve", "--config", str(cfg), "--mu", "0.25"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fracvar: error:") and "grad_tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["solve"],
        ["ray-scan", "--config", "{cfg}", "--mu", "0.25", "--seed", "3"],
    ],
)
def test_cli_usage_error_prints_usage_and_one_error_line(tmp_path, capsys, argv):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    assert cli_main([a.format(cfg=cfg) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fracvar")
    assert err.endswith("\n")
    last = err.splitlines()[-1]
    assert last.startswith("fracvar") and ": error: " in last
    assert sum(": error: " in line for line in err.splitlines()) == 1


def test_cli_without_a_command_prints_usage_and_exits_1(capsys):
    assert cli_main([]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fracvar") and "error" not in err


def test_cli_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fracvar")


@pytest.mark.parametrize("command", [["solve"], ["ray-scan"]])
def test_cli_out_under_a_missing_directory_is_an_io_error(tmp_path, capsys, command):
    cfg = tmp_path / "p.json"
    _write_config(cfg)
    out_path = tmp_path / "missing" / "out.txt"
    argv = [*command, "--config", str(cfg), "--mu", "0.25", "--out", str(out_path)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("fracvar: i/o error:")
