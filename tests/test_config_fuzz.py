"""Config fuzz: every drawn config either fails cleanly or gives a finite,
strict-JSON record, and the command line exits 0, 1 or 2 on it."""

from __future__ import annotations

import json
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracvar.conditions import evaluate_conditions
from fracvar.errors import FracvarError
from fracvar.harness import cli_main
from fracvar.problem import ProblemSpec
from fracvar.solver import certify, minimize

_ALPHAS = st.one_of(
    st.just(1.0),
    st.floats(-4.0, -0.3).map(lambda u: 0.5 + 10.0**u),  # near 1/2, a few just past 1
    st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def _tables(draw, signed: bool):
    size = draw(st.integers(2, 6))
    xs = sorted(draw(st.sets(st.integers(-40, 40), min_size=size, max_size=size)))
    lo = -5.0 if signed else 0.0
    fs = draw(st.lists(st.floats(lo, 5.0), min_size=size, max_size=size))
    return {"kind": "table", "xs": [x / 4.0 for x in xs], "fs": fs}


_DATA = st.one_of(
    st.builds(
        lambda r, s: {"kind": "power_sum", "r": r, "s": s},
        st.floats(1.05, 1.95),
        st.floats(2.05, 6.0),
    ),
    st.builds(lambda q: {"kind": "affine_power", "q": q}, st.floats(2.05, 6.0)),
    st.just({"kind": "sqrt_plus"}),
    st.just({"kind": "zero"}),
    _tables(signed=False),
    _tables(signed=True),
)

_SOLVERS = st.fixed_dictionaries(
    {
        "max_iters": st.integers(1, 60),
        "restarts": st.integers(1, 3),
        "seed": st.integers(0, 1000),
    },
    optional={"grad_tol": st.floats(-12.0, -2.0).map(lambda u: 10.0**u)},
)


@st.composite
def _docs(draw):
    n = draw(st.sampled_from([16, 32, 64, 128]))
    return {
        "alpha": draw(_ALPHAS),
        "T": 10.0 ** draw(st.floats(-40.0, 40.0)),
        "n": n,
        "k_max": draw(st.integers(4, n // 4)),
        "nonlinearity": draw(_DATA),
        "solver": draw(_SOLVERS),
    }


_MU_FACTORS = st.sampled_from([0.0, 0.5, 0.99, 3.0, 10.0, 1e6])


def _solve(doc: dict, factor: float):
    """The library path; returns the record and its certificates, or None
    when the config or mu is refused with FracvarError or ValueError."""
    try:
        problem = ProblemSpec.from_config(doc)
        report = evaluate_conditions(problem.nonlinearity, problem.alpha, problem.T)
        rec = minimize(problem, factor * report.mu_star)
        return rec, certify(rec, problem, report)
    except (FracvarError, ValueError):
        return None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=_docs(), factor=_MU_FACTORS)
# a subnormal max F overflowed gamma^2 / max F with a RuntimeWarning
@example(
    doc={
        "alpha": 0.75,
        "T": 1.0,
        "n": 64,
        "k_max": 11,
        "nonlinearity": {"kind": "table", "xs": [8.0, 9.5], "fs": [2.225073858507e-311] * 2},
        "solver": {"max_iters": 58, "restarts": 2, "seed": 79},
    },
    factor=0.5,
)
def test_config_fuzz_fails_cleanly_or_gives_a_finite_record(tmp_path, capsys, doc, factor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = _solve(doc, factor)
    if solved is not None:
        rec, certs = solved
        for value in (rec.energy, rec.phi, rec.psi, rec.norm_alpha, rec.norm_inf, rec.residual):
            assert math.isfinite(value), doc
        for body in (rec.json_str(), certs.json_str()):
            assert "NaN" not in body and "Infinity" not in body, doc

    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["conditions", "--config", str(cfg)]) in (0, 1, 2)
    report = capsys.readouterr().out
    # the codec writes an infinite mu_star as the string "inf"
    mu = factor * float(json.loads(report)["mu_star"]) if report else factor
    assert cli_main(["solve", "--config", str(cfg), "--mu", repr(mu)]) in (0, 1, 2)
    capsys.readouterr()
