"""minimize's forked restarts: the serial bytes, no process or descriptor left behind.

Each test that forks offers two CPUs through solver._available_cpus, so a
minimize call forks one child whatever the machine's CPU count, and runs
under a deadline so that a hung child fails the test instead of the suite.
The serial records they compare with are solved with one CPU on offer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import multiprocessing
import os
import pickle
import select
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
from fracvar.solver import minimize

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


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(solver, "_available_cpus", lambda: 2)


@pytest.fixture
def forks(monkeypatch, two_cpus):
    """The pid of each child forked, with two CPUs on offer.

    After each fork, this process's next restart waits until the child
    has begun one, so every forked call really shares out its restarts.
    """
    parent, pids, armed = os.getpid(), [], []
    begun_r, begun_w = os.pipe()
    os.set_blocking(begun_r, False)
    fork, descend = os.fork, solver._descend

    def spy_fork():
        with contextlib.suppress(BlockingIOError):
            os.read(begun_r, 1 << 16)  # what earlier children wrote
        pid = fork()
        if pid:
            pids.append(pid)
            armed.append(pid)
        return pid

    def spy_descend(*args):
        if os.getpid() != parent:
            os.write(begun_w, b".")
        elif armed:
            armed.clear()
            ready, _, _ = select.select([begun_r], [], [], _DEADLINE_S / 2)
            assert ready, "no child began a restart"
        return descend(*args)

    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(solver, "_descend", spy_descend)
    yield pids
    os.close(begun_r)
    os.close(begun_w)


def _serially(monkeypatch, solve):
    """solve() with one CPU on offer, so its restarts run in this process."""
    monkeypatch.setattr(solver, "_available_cpus", lambda: 1)
    return solve()


@pytest.fixture
def no_spawn(monkeypatch):
    def refuse(*args):
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)
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
def test_pooled_sweep_is_serial_minimize_bit_for_bit(name, forks, monkeypatch):
    problem = _problem(_DATA[name])
    with _deadline():  # inside (0, mu_star) for each datum; affine_power's is 0.46
        sweep = harness.run_sweep(problem, 0.02, 0.2, 4)
    assert len(forks) == 4  # one child for each point
    _assert_no_child_left()

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
def test_lone_minimize_runs_on_its_own_pool_bit_for_bit(name, forks, monkeypatch):
    problem = _problem(_DATA[name])
    model, assembly = problem.build()
    solve = functools.partial(minimize, problem, 0.1, model=model, assembly=assembly)
    with _deadline():
        forked = solve()
    assert len(forks) == 1
    _assert_no_child_left()
    assert forked.json_str() == _serially(monkeypatch, solve).json_str()


def test_pool_is_gone_when_run_sweep_raises(forks, monkeypatch):
    solve = harness.minimize
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("solve failed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "minimize", fail_second)
    with _deadline(), pytest.raises(RuntimeError, match="solve failed"):
        harness.run_sweep(_problem(_DATA["power_sum"]), 0.05, 0.5, 4)
    assert len(forks) == 1
    _assert_no_child_left()


def test_one_cpu_sweeps_serially_without_a_process(monkeypatch, no_spawn):
    monkeypatch.setattr(solver, "_available_cpus", lambda: 1)
    with _deadline():
        sweep = harness.run_sweep(_problem(_DATA["power_sum"]), 0.05, 0.5, 4)
    assert sweep.negativity_verdict


@pytest.mark.parametrize("caller", ["daemonic process", "no fork start method"])
def test_callers_that_cannot_spawn_sweep_serially(caller, monkeypatch, two_cpus, no_spawn):
    if caller == "daemonic process":
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with _deadline():
        sweep = harness.run_sweep(_problem(_DATA["power_sum"]), 0.05, 0.5, 4)
    assert sweep.negativity_verdict


@pytest.mark.parametrize(
    "caller", ["one CPU", "one restart", "daemonic process", "no fork start method"]
)
def test_lone_minimize_that_cannot_spawn_runs_serially(caller, monkeypatch, two_cpus, no_spawn):
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
    assert len(sol.candidates) == problem.solver.restarts


def test_available_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert solver._available_cpus() == 1


def test_datum_outside_the_catalog_gets_a_pool(forks, monkeypatch):
    # f = x has closures but no catalog tag; a forked child holds them as they are
    linear = Nonlinearity(
        "linear",
        lambda x: np.asarray(x, dtype=float),
        lambda x: np.asarray(x, dtype=float) ** 2 / 2.0,
        False,
        True,
    )
    problem = ProblemSpec(alpha=1.0, T=1.0, n=128, k_max=8, nonlinearity=linear)
    _, assembly = problem.build()
    solve = functools.partial(minimize, problem, 5.0, assembly=assembly, gamma_bar=1.0)
    with _deadline():
        forked = solve()
    assert len(forks) == 1
    _assert_no_child_left()
    assert forked.json_str() == _serially(monkeypatch, solve).json_str()


def test_pools_in_two_threads_keep_their_own_data(monkeypatch, two_cpus):
    # the main thread's first fork waits until thread B has solved on another
    # datum, forking its own child; the main thread's child must still hold its data
    a_held, b_solved = threading.Event(), threading.Event()
    fork = os.fork

    def hold_first_main_fork():
        if threading.current_thread() is threading.main_thread() and not a_held.is_set():
            a_held.set()
            assert b_solved.wait(_DEADLINE_S / 2), "thread B never solved"
        return fork()

    monkeypatch.setattr(os, "fork", hold_first_main_fork)
    failures = []

    def solve_b():
        try:
            assert a_held.wait(_DEADLINE_S / 2), "the main thread never forked"
            minimize(_problem(_DATA["affine_power"]), 0.1)
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
            forked = solve()
        finally:
            b.join(_DEADLINE_S / 2)
    assert not b.is_alive()
    assert failures == []
    _assert_no_child_left()
    assert forked.json_str() == _serially(monkeypatch, solve).json_str()


def _die_unsent(obj, out):
    os._exit(3)


def _die_half_sent(obj, out):
    data = pickle.dumps(obj)
    out.write(data[: len(data) // 2])
    out.flush()
    os._exit(3)


def test_dead_worker_raises_fracvar_error(forks, monkeypatch):
    # the child dies after its restarts, sending nothing or half its result
    problem = _problem(_DATA["power_sum"])
    sweep = functools.partial(harness.run_sweep, problem, 0.05, 0.5, 4)
    lone = functools.partial(minimize, problem, 0.1)
    for death in (_die_unsent, _die_half_sent):
        monkeypatch.setattr(pickle, "dump", death)
        for solve in (sweep, lone):
            with _deadline(), pytest.raises(FracvarError, match="a restart worker process died"):
                solve()
            _assert_no_child_left()
    assert len(forks) == 4


class _RestartFailed(Exception):
    """Raised by a restart in a child; module level, so that pickle finds it."""


def test_exception_in_a_child_reaches_the_caller(forks, monkeypatch):
    parent, descend = os.getpid(), solver._descend

    def fail_in_child(*args):
        run = descend(*args)
        if os.getpid() != parent:
            raise _RestartFailed("in the child")
        return run

    monkeypatch.setattr(solver, "_descend", fail_in_child)
    with _deadline(), pytest.raises(_RestartFailed, match="in the child"):
        minimize(_problem(_DATA["power_sum"]), 0.1)
    assert len(forks) == 1
    _assert_no_child_left()


def test_exception_here_kills_the_children(two_cpus, monkeypatch):
    # this process's restart fails while the child's hangs; the child is killed, not awaited
    parent = os.getpid()

    def descend(*args):
        if os.getpid() == parent:
            raise _RestartFailed("in this process")
        time.sleep(_DEADLINE_S)

    monkeypatch.setattr(solver, "_descend", descend)
    with _deadline(_DEADLINE_S / 4), pytest.raises(_RestartFailed, match="in this process"):
        minimize(_problem(_DATA["power_sum"]), 0.1)
    _assert_no_child_left()


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


# a pipe left to the garbage collector closes there with a ResourceWarning
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_forked_solves_leave_no_descriptor_open(forks, monkeypatch):
    problem = _problem(_DATA["power_sum"])
    model, assembly = problem.build()
    solve = functools.partial(minimize, problem, 0.1, model=model, assembly=assembly)
    before = _open_fds()
    with _deadline():
        solve()
    assert _open_fds() == before
    monkeypatch.setattr(pickle, "dump", _die_unsent)
    with _deadline(), pytest.raises(FracvarError, match="a restart worker process died"):
        solve()
    assert _open_fds() == before
    assert len(forks) == 2


_UNGUARDED = """\
import os
from fracvar import harness, solver
from fracvar.problem import ProblemSpec

solver._available_cpus = lambda: 2
forks = []
fork = os.fork
os.fork = lambda: forks.append(fork()) or forks[-1]
spec = ProblemSpec.from_config({"alpha": 0.75, "T": 1.0, "n": 256, "k_max": 16,
                                "nonlinearity": {"kind": "power_sum", "r": 1.5, "s": 3.0}})
harness.run_sweep(spec, 0.05, 0.5, 4)
assert len(forks) == 4
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
    """Whether process group pgid still has a member after grace_s."""
    end = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        if time.monotonic() > end:
            return True
        time.sleep(0.05)
