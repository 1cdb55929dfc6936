"""The scripts under scripts/, run in process on tiny grids."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from fracvar import solver

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CALIBRATION_ARGS = ["--alphas", "0.75", "--sizes", "64", "--k-max", "16"]


def test_calibration_passes_under_the_coefficient(capsys):
    assert _load("calibrate_residual_tol").main(_CALIBRATION_ARGS) == 0
    assert f"tolerance uses {solver.RESIDUAL_TOL_COEFF:g}" in capsys.readouterr().out


def test_calibration_exits_1_when_the_coefficient_is_exceeded(monkeypatch, capsys):
    monkeypatch.setattr(solver, "RESIDUAL_TOL_COEFF", 1e-9)
    assert _load("calibrate_residual_tol").main(_CALIBRATION_ARGS) == 1
    captured = capsys.readouterr()
    assert "tolerance uses 1e-09" in captured.out
    assert "exceeds" in captured.err


def test_bench_baseline_layout():
    # CI runs scripts/bench_ladder.py on the first rung; this checks the committed file.
    doc = json.loads((SCRIPTS.parent / "BENCH_baseline.json").read_text())
    assert set(doc["provenance"]) >= {"git_revision", "src_sha256", "blas", "blas_threads"}
    assert set(doc["provenance"]["blas_threads"].values()) == {"1"}
    assert doc["problem"]["solver"] == dataclasses.asdict(solver.SolverConfig())
    ladder = [(512, 32), (1024, 64), (2048, 128), (4096, 256)]
    assert [(rung["n"], rung["k_max"]) for rung in doc["rungs"]] == ladder
    for rung in doc["rungs"]:
        assert rung["repeats"] == 3
        best = rung["best_s"]
        assert 0.0 < best["solver.minimize"] <= best["total"]
        assert max(best.values()) == best["total"]
        assert len(rung["restarts"]) == solver.SolverConfig().restarts
        for restart in rung["restarts"]:
            assert restart["stop"] in ("grad_tol", "max_iters", "line_search")
            assert restart["iters"] >= 1 and restart["wall_s"] > 0.0
        assert rung["record"]["converged"] and rung["record"]["energy"] < 0.0


@pytest.fixture
def bench_ladder(monkeypatch):
    # loading the script sets the BLAS thread variables and puts perfbench/ on sys.path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    return _load("bench_ladder")


def test_ladder_pins_itself_and_times_every_restart(bench_ladder, tmp_path):
    out = tmp_path / "ladder.json"
    cpus = os.sched_getaffinity(0)
    try:
        assert bench_ladder.main(["--rungs", "512", "--out", str(out)]) == 0
        assert len(os.sched_getaffinity(0)) == 1
    finally:
        os.sched_setaffinity(0, cpus)
    (rung,) = json.loads(out.read_text())["rungs"]
    assert (rung["n"], rung["k_max"]) == (512, 32)
    assert len(rung["restarts"]) == solver.SolverConfig().restarts
    assert all(restart["wall_s"] > 0.0 for restart in rung["restarts"])


def test_ladder_refuses_restarts_it_could_not_time(bench_ladder, monkeypatch):
    # a forked child, as on 2 CPUs; this process times only its own share
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"timed \d+ of 8 restarts"):
        bench_ladder.run_rung(512, 32)


def test_cli_outputs_exit_0_with_canonical_json(tmp_path):
    assert _load("cli_outputs").main(["--out", str(tmp_path)]) == 0
    codes = (tmp_path / "EXIT_CODES").read_text().splitlines()
    assert codes and all(line.split()[0] == "0" for line in codes)
    bodies = sorted(tmp_path.glob("*.json"))
    # conditions, solve, ray-scan and sweep as json, per shipped config
    assert len(bodies) == 4 * len(list((SCRIPTS.parent / "configs").glob("*.json")))
    for path in bodies:
        body = path.read_text()
        assert body == json.dumps(json.loads(body), sort_keys=True, indent=2) + "\n", path.name
    listed = {line.split()[1] for line in (tmp_path / "SHA256SUMS").read_text().splitlines()}
    assert listed == {p.name for p in tmp_path.iterdir()} - {"SHA256SUMS"}


def test_conditions_digest_repeats(monkeypatch, capsys):
    # loading the script puts perfbench/ on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _load("conditions_digest")
    digests = []
    for _ in range(2):
        assert digest.main(["--count", "8"]) == 0
        digests.append(capsys.readouterr().out)
    assert digests[0] == digests[1]
    assert len(digests[0].strip()) == 64 and digests[0].count("\n") == 1
