"""The restart pool of minimize and run_sweep: same bytes as serial solves, no process left behind.

Each test forces a two-worker pool through solver._available_cpus, so the
pooled path runs whatever the machine's CPU count, and runs under a
deadline so that a hung pool fails the test instead of the suite.  The
serial records they compare with are solved with one CPU on offer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fracvar
from fracvar import harness, solver
from fracvar.energy import Nonlinearity, affine_power, power_sum, table_datum
from fracvar.errors import FracvarError
from fracvar.problem import ProblemSpec
from fracvar.solver import minimize, restart_pool

_DEADLINE_S = 60


@contextlib.contextmanager
def _deadline(seconds: float = _DEADLINE_S):
    def expire(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def executors(monkeypatch):
    """The executor of every minimize call run_sweep makes, with two CPUs on offer."""
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
    seen = []
    original = harness.minimize

    def spy(*args, **kwargs):
        seen.append(kwargs.get("executor"))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "minimize", spy)
    return seen


@pytest.fixture
def pools(monkeypatch):
    """Each pool a minimize call given no executor opens, with two CPUs on offer."""
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
    opened = []
    original = solver.restart_pool

    def spy(*args, **kwargs):
        opened.append(original(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(solver, "restart_pool", spy)
    return opened


def _serially(monkeypatch, solve):
    """solve() with one CPU on offer, so its restarts run in this process."""
    monkeypatch.setattr(solver, "_available_cpus", lambda: 1)
    return solve()


@pytest.fixture
def no_spawn(monkeypatch):
    def refuse(self):
        raise AssertionError("a process was started")

    for process in (multiprocessing.context.SpawnProcess, multiprocessing.context.ForkProcess):
        monkeypatch.setattr(process, "start", refuse)


def _problem(nl: Nonlinearity) -> ProblemSpec:
    return ProblemSpec(alpha=0.75, T=1.0, n=256, k_max=16, nonlinearity=nl)


_DATA = {
    "power_sum": power_sum(1.5, 3.0),
    "affine_power": affine_power(3.0),
    "signed_table": table_datum([-3.0, -1.0, 0.0, 2.0], [1.5, -2.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(_DATA))
def test_pooled_sweep_is_serial_minimize_bit_for_bit(name, executors, monkeypatch):
    problem = _problem(_DATA[name])
    with _deadline():  # inside (0, mu_star) for each datum; affine_power's is 0.46
        sweep = harness.run_sweep(problem, 0.02, 0.2, 4)
    assert len(executors) == 4 and all(e is not None for e in executors)
    assert len(set(map(id, executors))) == 1  # one pool for the whole sweep
    assert multiprocessing.active_children() == []

    model, assembly = problem.build()
    monkeypatch.setattr(solver, "_available_cpus", lambda: 1)
    for i, (mu, rec) in enumerate(zip(sweep.mu_values, sweep.records)):
        seed = problem.solver.seed + 7919 * i
        point = dataclasses.replace(
            problem, solver=dataclasses.replace(problem.solver, seed=seed)
        )
        alone = minimize(
            point, mu, model=model, assembly=assembly, gamma_bar=sweep.conditions.gamma_bar
        )
        assert alone.json_str() == rec.json_str()


@pytest.mark.parametrize("name", sorted(_DATA))
def test_lone_minimize_runs_on_its_own_pool_bit_for_bit(name, pools, monkeypatch):
    problem = _problem(_DATA[name])
    model, assembly = problem.build()
    solve = functools.partial(minimize, problem, 0.1, model=model, assembly=assembly)
    in_this_process = []
    descend = solver._descend

    def spy(*args):
        in_this_process.append(args)  # a forked worker appends to its own copy
        return descend(*args)

    monkeypatch.setattr(solver, "_descend", spy)
    with _deadline():
        pooled = solve()
    assert len(pools) == 1 and isinstance(pools[0], solver._RestartPool)
    assert in_this_process == []
    assert multiprocessing.active_children() == []
    serial = _serially(monkeypatch, solve)
    assert len(in_this_process) == problem.solver.restarts
    assert pooled.json_str() == serial.json_str()


def test_pool_is_gone_when_run_sweep_raises(executors, monkeypatch):
    solve = harness.minimize

    def fail_second(*args, **kwargs):
        if len(executors) == 2:
            raise RuntimeError("solve failed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "minimize", fail_second)
    with _deadline(), pytest.raises(RuntimeError, match="solve failed"):
        harness.run_sweep(_problem(_DATA["power_sum"]), 0.05, 0.5, 4)
    assert executors[0] is not None
    assert multiprocessing.active_children() == []


def test_one_cpu_sweeps_serially_without_a_process(monkeypatch, executors, no_spawn):
    monkeypatch.setattr(solver, "_available_cpus", lambda: 1)
    with _deadline():
        sweep = harness.run_sweep(_problem(_DATA["power_sum"]), 0.05, 0.5, 4)
    assert executors == [None] * 4
    assert sweep.negativity_verdict


@pytest.mark.parametrize("caller", ["daemonic process", "no fork start method"])
def test_callers_that_cannot_spawn_sweep_serially(caller, monkeypatch, executors, no_spawn):
    if caller == "daemonic process":
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with _deadline():
        harness.run_sweep(_problem(_DATA["power_sum"]), 0.05, 0.5, 4)
    assert executors == [None] * 4


@pytest.mark.parametrize(
    "caller", ["one CPU", "one restart", "daemonic process", "no fork start method"]
)
def test_lone_minimize_that_cannot_spawn_runs_serially(caller, monkeypatch, pools, no_spawn):
    problem = _problem(_DATA["power_sum"])
    if caller == "one CPU":
        monkeypatch.setattr(solver, "_available_cpus", lambda: 1)
    elif caller == "one restart":
        problem = dataclasses.replace(problem, solver=solver.SolverConfig(restarts=1))
    elif caller == "daemonic process":
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with _deadline():
        sol = minimize(problem, 0.1)
    assert len(pools) == 1 and not isinstance(pools[0], solver._RestartPool)
    assert len(sol.candidates) == problem.solver.restarts


def test_available_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert solver._available_cpus() == 1


def test_datum_outside_the_catalog_gets_a_pool(monkeypatch):
    # f = x has closures but no catalog tag; a forked worker holds them as they are
    linear = Nonlinearity(
        "linear",
        lambda x: np.asarray(x, dtype=float),
        lambda x: np.asarray(x, dtype=float) ** 2 / 2.0,
        False,
        True,
    )
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
    problem = ProblemSpec(alpha=1.0, T=1.0, n=128, k_max=8, nonlinearity=linear)
    _, assembly = problem.build()
    solve = functools.partial(
        minimize, problem, 5.0, model=assembly.space, assembly=assembly, gamma_bar=1.0
    )
    with _deadline(), restart_pool(problem, assembly) as pool:
        assert pool is not None
        pooled = solve(executor=pool)
    assert multiprocessing.active_children() == []
    assert pooled.json_str() == _serially(monkeypatch, solve).json_str()


def test_executor_must_match_the_assembly(monkeypatch):
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
    problem = _problem(_DATA["power_sum"])
    model, assembly = problem.build()
    _, other = problem.build()
    with _deadline(), restart_pool(problem, assembly) as pool:
        assert pool is not None
        with pytest.raises(ValueError, match="restart_pool"):
            minimize(problem, 0.1, model=model, assembly=other, executor=pool)
    assert multiprocessing.active_children() == []


def test_pools_in_two_threads_keep_their_own_data(monkeypatch):
    # the main thread's first submit waits until thread B has opened a pool on
    # another datum and solved on it; its workers must still hold its own data
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
    a_held, b_solved, a_done = threading.Event(), threading.Event(), threading.Event()
    submit = solver._RestartPool.submit

    def hold_first_main_submit(self, *args, **kwargs):
        if threading.current_thread() is threading.main_thread() and not a_held.is_set():
            a_held.set()
            assert b_solved.wait(_DEADLINE_S / 2), "thread B never solved"
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(solver._RestartPool, "submit", hold_first_main_submit)
    failures = []

    def solve_b():
        try:
            assert a_held.wait(_DEADLINE_S / 2), "the main thread never submitted"
            other = _problem(_DATA["affine_power"])
            model, assembly = other.build()
            with restart_pool(other, assembly) as pool:
                assert pool is not None
                minimize(other, 0.1, model=model, assembly=assembly, executor=pool)
                b_solved.set()
                a_done.wait(_DEADLINE_S / 2)  # keep this pool open while A solves
        except Exception as exc:
            failures.append(exc)
        finally:
            b_solved.set()

    problem = _problem(_DATA["power_sum"])
    model, assembly = problem.build()
    solve = functools.partial(minimize, problem, 0.1, model=model, assembly=assembly)
    b = threading.Thread(target=solve_b)
    b.start()
    with _deadline():
        try:
            with restart_pool(problem, assembly) as pool:
                assert pool is not None
                pooled = solve(executor=pool)
        finally:
            a_done.set()
            b.join(_DEADLINE_S / 2)
    assert not b.is_alive()
    assert failures == []
    assert multiprocessing.active_children() == []
    assert pooled.json_str() == _serially(monkeypatch, solve).json_str()


def test_dead_worker_raises_fracvar_error(monkeypatch):
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_descend", lambda *args: os._exit(3))
    problem = _problem(_DATA["power_sum"])
    sweep = functools.partial(harness.run_sweep, problem, 0.05, 0.5, 4)
    lone = functools.partial(minimize, problem, 0.1)  # on a pool of its own
    for solve in (sweep, lone):
        with _deadline(), pytest.raises(FracvarError, match="a restart worker process died"):
            solve()
        assert multiprocessing.active_children() == []


_UNGUARDED = """\
from fracvar import harness, solver
from fracvar.problem import ProblemSpec

solver._available_cpus = lambda: 2
executors = []
solve = harness.minimize
harness.minimize = lambda *args, **kw: executors.append(kw["executor"]) or solve(*args, **kw)
spec = ProblemSpec.from_config({"alpha": 0.75, "T": 1.0, "n": 256, "k_max": 16,
                                "nonlinearity": {"kind": "power_sum", "r": 1.5, "s": 3.0}})
harness.run_sweep(spec, 0.05, 0.5, 4)
assert len(executors) == 4 and None not in executors
print("finished")
"""


def test_script_without_main_guard_sweeps_on_the_pool(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent(_UNGUARDED))
    src = str(Path(fracvar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    started = time.monotonic()
    # its own process group, so that any process it leaves behind can be found
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=_DEADLINE_S)
    finally:
        leftover = _group_alive(proc.pid)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
    assert time.monotonic() - started < _DEADLINE_S
    assert proc.returncode == 0, err
    assert "finished" in out
    assert not leftover, "the script left a process behind"


def _group_alive(pgid: int, grace_s: float = 10.0) -> bool:
    """Whether process group pgid still has a member after grace_s.

    multiprocessing's resource tracker exits only once its parent has,
    so the group may take a moment to empty.
    """
    end = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        if time.monotonic() > end:
            return True
        time.sleep(0.05)
