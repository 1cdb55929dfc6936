"""Shared fixtures.

The heavy objects (discrete spaces, assembled energies) are built once
per session; individual tests must not mutate them.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest
from hypothesis import HealthCheck, settings

from fracvar.energy import build_assembly, power_sum
from fracvar.problem import ProblemSpec
from fracvar.space import SpaceConfig, build_space

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def model_mid():
    """alpha=0.75, T=1 at the default working resolution."""
    return build_space(SpaceConfig(alpha=0.75, T=1.0, n=512, k_max=32))


@pytest.fixture(scope="session")
def assembly_mid(model_mid):
    return build_assembly(model_mid)


@pytest.fixture(scope="session")
def model_classical():
    """alpha=1: the operators collapse to classical derivatives."""
    return build_space(SpaceConfig(alpha=1.0, T=1.0, n=512, k_max=32))


@pytest.fixture(scope="session")
def nl_two_power():
    return power_sum(1.5, 3.0)


@pytest.fixture(scope="session")
def problem_mid(nl_two_power):
    return ProblemSpec(alpha=0.75, T=1.0, n=512, k_max=32, nonlinearity=nl_two_power)


@pytest.fixture(scope="session")
def problem_small(nl_two_power):
    """Cheap configuration for sweep and CLI tests."""
    return ProblemSpec(alpha=0.75, T=1.0, n=256, k_max=16, nonlinearity=nl_two_power)


@pytest.fixture
def no_spawn(monkeypatch):
    """Any process started, by os.fork or multiprocessing, fails the test."""

    def refuse(*args):
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)
    for process in (multiprocessing.context.SpawnProcess, multiprocessing.context.ForkProcess):
        monkeypatch.setattr(process, "start", refuse)
