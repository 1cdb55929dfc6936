"""Each path of the Abel kernel gives a stacked row the bits of a lone row.

The benchmark's phi/psi references hold solves that stop short of their
minimizer, so a roundoff change in a Caputo image moves them past their
tolerance.  These tests pin the direct sum behind those images
(caputo_images), which takes every stack through one per-node loop:
every SpaceModel array against a per-row np.convolve oracle build, at
the shipped, sweep and refine sizes among others, stacked calls against
row-by-row calls from one row to forty, and repeated builds against
each other.  They also pin that the FFT operators give each row of a
stack the bits of a call on its own, which keeps the weak residual's
bits.  Above a work crossover caputo_images builds one side in a forked
child; the forked builds are held to the one-CPU builds, which fork
nothing.
Rerun them under OPENBLAS_NUM_THREADS=2: n = 16384 puts the direct
sum's dot products above OpenBLAS's threaded-ddot cut-off.
"""

from __future__ import annotations

import os
import select

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracvar import forked, frac_kernel
from fracvar.frac_kernel import (
    Grid,
    GridFunction,
    caputo_images,
    caputo_left,
    caputo_right,
    rl_left_integral,
    rl_right_integral,
)
from fracvar.space import SpaceConfig, build_space

from forking import DEADLINE_S, assert_no_child_left, deadline
from oracles import abel_left_ref, space_arrays_ref

MODEL_ARRAYS = ("basis", "caputo_left_images", "caputo_right_images", "weights")


@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9, 1.0])
@pytest.mark.parametrize(
    "n, k_max",
    [(64, 16), (100, 25), (512, 32), (1024, 64), (2048, 16), (3000, 40), (4096, 16), (8192, 16)],
)
def test_space_model_matches_per_row_oracle(alpha, n, k_max):
    model = build_space(SpaceConfig(alpha=alpha, T=1.0, n=n, k_max=k_max))
    ref = space_arrays_ref(alpha, 1.0, n, k_max)
    for name in MODEL_ARRAYS:
        assert np.array_equal(getattr(model, name), ref[name]), name


@pytest.mark.parametrize("n, k_max", [(512, 32), (1024, 64)])
def test_equal_configs_build_bitwise_equal_models(n, k_max):
    cfg = SpaceConfig(alpha=0.75, T=1.0, n=n, k_max=k_max)
    first, second = build_space(cfg), build_space(cfg)
    for name in MODEL_ARRAYS:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


@given(
    rows=st.integers(1, 40),
    n=st.integers(16, 2048),
    gamma=st.floats(0.01, 0.45),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=40, n=2048, gamma=0.25, seed=0)  # the largest stack drawn
@example(rows=29, n=2047, gamma=0.4, seed=1)  # an odd n, odd and even rows
@example(rows=30, n=2047, gamma=0.4, seed=1)
def test_stacked_operators_equal_row_by_row(rows, n, gamma, seed):
    grid = Grid(1.0, n)
    stack = np.random.default_rng(seed).standard_normal((rows, n + 1))
    u = GridFunction(grid, stack)
    ops = (
        (rl_left_integral, gamma),
        (rl_right_integral, gamma),
        (caputo_left, 1.0 - gamma),
        (caputo_right, 1.0 - gamma),
    )
    for op, order in ops:
        got = op(u, order).values
        assert got.shape == stack.shape
        for r, row in enumerate(stack):
            assert np.array_equal(got[r], op(GridFunction(grid, row), order).values), (op, r)
    images = caputo_images(u, 1.0 - gamma)
    for r, row in enumerate(stack):
        lone = caputo_images(GridFunction(grid, row), 1.0 - gamma)
        for side, got in enumerate(images):
            assert got.shape == stack.shape
            assert np.array_equal(got[r], lone[side]), (side, r)


def test_stacked_kernel_matches_oracle_above_threaded_dot_cutoff():
    # 16383-term dots: OpenBLAS splits these over threads when it has them
    grid = Grid(1.0, 16384)
    stack = np.random.default_rng(7).standard_normal((4, grid.n + 1))
    left, right = caputo_images(GridFunction(grid, stack), 0.6)
    for r, row in enumerate(stack):
        assert np.array_equal(left[r], abel_left_ref(row, 0.4, grid.h)), r
        mirrored = abel_left_ref(row[::-1].copy(), 0.4, grid.h)[::-1]
        assert np.array_equal(right[r], -mirrored), r


def _offer(monkeypatch, cpus: int, blas_threads: int = 1) -> None:
    monkeypatch.setattr(frac_kernel, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(frac_kernel, "_blas_threads", lambda: blas_threads)


@pytest.fixture
def image_forks(monkeypatch):
    """The pid of each child caputo_images forks, with two CPUs and a
    one-thread BLAS on offer.

    After each fork, this process's side waits until the child has begun
    the other, so each side of a forked build is built in its own process.
    """
    parent, pids, armed = os.getpid(), [], []
    begun_r, begun_w = os.pipe()
    fork, trapezoid = os.fork, frac_kernel._product_trapezoid

    def spy_fork():
        pid = fork()
        if pid:
            pids.append(pid)
            armed.append(pid)
        return pid

    def spy_trapezoid(*args):
        if os.getpid() != parent:
            os.write(begun_w, b".")
        elif armed:
            armed.clear()
            ready, _, _ = select.select([begun_r], [], [], DEADLINE_S / 2)
            assert ready, "no child began a side"
            os.read(begun_r, 1)
        return trapezoid(*args)

    _offer(monkeypatch, cpus=2)
    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(frac_kernel, "_product_trapezoid", spy_trapezoid)
    yield pids
    os.close(begun_r)
    os.close(begun_w)


# a lone row passes the crossover only from n = 12247, where OpenBLAS may thread
# its dots and two processes' BLAS threads then share the CPUs, so the crossover
# is lowered to fork at n = 4096; the model test below forks at the real one
@pytest.mark.parametrize("rows", [None, 1, 16])
def test_forked_images_equal_one_cpu_images(rows, image_forks, monkeypatch):
    n = 4096
    monkeypatch.setattr(frac_kernel, "_FORKED_MIN_WORK", (n + 1) ** 2)
    shape = (n + 1,) if rows is None else (rows, n + 1)
    u = GridFunction(Grid(1.0, n), np.random.default_rng(n).standard_normal(shape))
    with deadline():
        images = caputo_images(u, 0.6)
    assert len(image_forks) == 1
    assert_no_child_left()
    _offer(monkeypatch, cpus=1)
    serial = caputo_images(u, 0.6)
    for side, got in enumerate(images):
        assert got.shape == shape
        assert np.array_equal(got, serial[side]), side


def test_forked_space_model_equals_one_cpu_model(image_forks, monkeypatch):
    # refine's n = 4096 level, the smallest that forks
    cfg = SpaceConfig(alpha=0.6, T=1.0, n=4096, k_max=16)
    with deadline():
        model = build_space(cfg)
    assert len(image_forks) == 1
    assert_no_child_left()
    _offer(monkeypatch, cpus=1)
    serial = build_space(cfg)
    for name in MODEL_ARRAYS:
        assert np.array_equal(getattr(model, name), getattr(serial, name)), name


# sweep's size, every shipped config's, and refine's n = 2048 level
@pytest.mark.parametrize("n, k_max", [(1024, 64), (512, 32), (2048, 16)])
def test_builds_below_the_crossover_fork_nothing(n, k_max, monkeypatch, no_spawn):
    _offer(monkeypatch, cpus=2)
    model = build_space(SpaceConfig(alpha=0.6, T=1.0, n=n, k_max=k_max))
    assert model.caputo_left_images.shape == (k_max, n + 1)


def test_builds_whose_blas_threads_fill_the_cpus_fork_nothing(monkeypatch, no_spawn):
    # a BLAS thread per CPU, a BLAS's default: a second process would share them
    _offer(monkeypatch, cpus=2, blas_threads=2)
    model = build_space(SpaceConfig(alpha=0.6, T=1.0, n=4096, k_max=16))
    assert model.caputo_left_images.shape == (16, 4097)


@pytest.mark.parametrize(
    "env, threads",
    [
        ({}, "cpus"),
        ({"OMP_NUM_THREADS": "3"}, 3),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"}, 1),
        ({"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x"}, "cpus"),
    ],
)
def test_blas_threads_read_the_blas_variables(env, threads, monkeypatch):
    for var in forked._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(forked, "_available_cpus", lambda: 5)
    assert forked._blas_threads() == (5 if threads == "cpus" else threads)


class _SideFailed(Exception):
    """Raised by a side in the child; module level, so that pickle finds it."""


def test_exception_in_the_image_child_reaches_the_caller(image_forks, monkeypatch):
    parent, trapezoid = os.getpid(), frac_kernel._product_trapezoid

    def fail_in_child(*args):
        out = trapezoid(*args)
        if os.getpid() != parent:
            raise _SideFailed("in the child")
        return out

    monkeypatch.setattr(frac_kernel, "_product_trapezoid", fail_in_child)
    u = GridFunction(Grid(1.0, 4096), np.ones((16, 4097)))
    with deadline(), pytest.raises(_SideFailed, match="in the child"):
        caputo_images(u, 0.6)
    assert len(image_forks) == 1
    assert_no_child_left()
