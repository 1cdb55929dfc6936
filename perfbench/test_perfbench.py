"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest -q perfbench

Covers a smoke run of each workload (traced and untraced) against
references recorded at the same small sizes, the output schema and the
BENCHMARK.json contract, the naming of reference mismatches, the
refusal to run outside a checkout, and that tracing restores every
wrapped function and changes no result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from run import ROOT  # sets the BLAS thread cap before numpy loads

sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from bench import measure, result_line  # noqa: E402
from fracvar.problem import ProblemSpec  # noqa: E402
from record import record  # noqa: E402
from workloads import INPUTS, PASSES, WORKLOADS, Sizes, compare  # noqa: E402

TINY = Sizes(
    sweep_n=256,
    sweep_k=16,
    refine_ns=(256, 512),
    refine_k=16,
    kernel_verify_n=256,
    admit_pool=12,
    admit_chunk=4,
)
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def tiny_refs():
    outputs, problems = record(ROOT, dict(os.environ, PYTHONPATH=str(ROOT / "src")), TINY)
    assert problems == []
    return outputs


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace, tiny_refs):
    metrics, details = measure(workload, 3, 0.0, trace, tiny_refs, ROOT, TINY, cli_runs=1)
    summary = details.pop("summary")
    assert details["problems"] == []
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    section = MANIFEST["per_layer" if trace else "end_to_end"]
    line = json.loads(json.dumps(result_line(metrics, summary, section)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for m in section:
        value = line["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert value > 0, m["name"]
    if not trace:
        assert line["metrics"]["ref_match_frac"]["value"] == 1.0
        assert line["metrics"]["certified_frac"]["value"] == 1.0


def test_result_line_rejects_missing_metric():
    with pytest.raises(ValueError):
        result_line({"setup_s": 1.0}, {"correct": True, "attempted": 1, "failed": 0},
                    MANIFEST["end_to_end"])


def test_manifest_follows_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert MANIFEST["paths"] == ["perfbench"]
    assert not any(a.startswith("/") or ".." in a for a in MANIFEST["command"])
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    names = []
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_mismatch_is_named(tiny_refs):
    key, text = next(INPUTS["sweep"](0, TINY))
    outputs = PASSES["sweep"](key, text, TINY).outputs
    assert compare(outputs, tiny_refs) == (len(outputs), [])
    name = f"{key}/point=2"
    bent = dict(tiny_refs, **{name: dict(tiny_refs[name], energy=tiny_refs[name]["energy"] * 1.01)})
    _, bad = compare(outputs, bent)
    assert len(bad) == 1 and bad[0].startswith(f"{name}: energy=")


def _targets():
    found = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.MODULE_TARGETS}
    found.update({("ProblemSpec", a): ProblemSpec.__dict__[a] for a, _ in tracing.CLASS_TARGETS})
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_restores_originals_and_changes_no_result(workload):
    before = _targets()
    key, inp = next(INPUTS[workload](5, TINY))
    plain = PASSES[workload](key, inp, TINY)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(_targets()[k] is not v for k, v in before.items())
        traced = PASSES[workload](key, inp, TINY, tracer)
    assert all(_targets()[k] is v for k, v in before.items())
    assert traced.digest == plain.digest
    assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)


def test_tracing_restores_after_an_exception():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("inside a traced block")
    assert all(_targets()[k] is v for k, v in before.items())


def test_refuses_to_run_outside_a_checkout():
    # a directory holding only BENCHMARK.json and the benchmark's files
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "admit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    assert proc.returncode != 0 and proc.stdout == ""
