"""Spans and counters recorded from outside the fracvar package.

A Tracer replaces the public functions of each layer at the module
attribute their callers look them up under (for example
``fracvar.space.caputo_left``, which ``build_space`` calls), records a
span per call, and puts every original back on exit.  Calls a layer
makes inside its own module are not seen, so a span marks a crossing
between layers.  Nothing inside ``src/`` is edited.

f and F calls are counted through a copy of the Nonlinearity built from
the same kind, flags and params around counting wrappers of the same
callables, so the numbers it produces are the numbers the original
produces.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

from fracvar import conditions, harness, problem, solver, space
from fracvar.energy import Nonlinearity
from fracvar.problem import ProblemSpec

clock = time.perf_counter

# span names; the part before the first dot is the layer
KERNEL = "frac_kernel"
SPACE_BUILD = "space.build"
ASSEMBLY = "energy.assembly"
MINIMIZE = "solver.minimize"
WEAK_RESIDUAL = "solver.weak_residual"
CERTIFY = "solver.certify"
CONDITIONS = "conditions.evaluate"
RUN_SWEEP = "harness.run_sweep"
KERNEL_VERIFY = "harness.kernel_verify"
LOAD = "problem.load"
BUILD = "problem.build"


def _count_samples(tracer: "Tracer", args, kwargs) -> None:
    tracer.counts[(KERNEL, "samples")] += len(args[0].values)


# (module, attribute, span name, per-call counter); each module is the one
# whose code looks the name up at call time
MODULE_TARGETS = (
    (space, "caputo_left", KERNEL, _count_samples),
    (space, "caputo_right", KERNEL, _count_samples),
    (solver, "rl_left_integral", KERNEL, _count_samples),
    (solver, "rl_right_integral", KERNEL, _count_samples),
    (harness, "caputo_left", KERNEL, _count_samples),
    (harness, "caputo_right", KERNEL, _count_samples),
    (harness, "rl_left_integral", KERNEL, _count_samples),
    (harness, "rl_right_integral", KERNEL, _count_samples),
    (problem, "build_space", SPACE_BUILD, None),
    (problem, "build_assembly", ASSEMBLY, None),
    (harness, "minimize", MINIMIZE, None),
    (solver, "minimize", MINIMIZE, None),
    (solver, "weak_residual", WEAK_RESIDUAL, None),
    (solver, "certify", CERTIFY, None),
    (conditions, "evaluate_conditions", CONDITIONS, None),
    (harness, "run_sweep", RUN_SWEEP, None),
    (harness, "kernel_verify", KERNEL_VERIFY, None),
)

# ProblemSpec methods, replaced in the class dict (from_config is a classmethod)
CLASS_TARGETS = (("from_config", LOAD), ("build", BUILD))


class Tracer:
    """Spans (name, start, end, parent) and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            idx = len(self.spans)
            self.spans.append([name, clock(), None, self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = clock()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, name, on_call in MODULE_TARGETS:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrap(name, orig, on_call))
            for attr, name in CLASS_TARGETS:
                orig = ProblemSpec.__dict__[attr]
                saved.append((ProblemSpec, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(ProblemSpec, attr, classmethod(self._wrap(name, orig.__func__)))
                else:
                    setattr(ProblemSpec, attr, self._wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _current_layer(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _counting(self, label: str, fn):
        @functools.wraps(fn)
        def counted(x):
            where = self._current_layer()
            self.counts[(where, f"{label}_calls")] += 1
            self.counts[(where, f"{label}_points")] += np.size(x)
            return fn(x)

        return counted

    def counting_nonlinearity(self, nl: Nonlinearity) -> Nonlinearity:
        """The same datum with f and F calls counted per calling layer."""
        return Nonlinearity(
            nl.kind,
            self._counting("f", nl.f),
            self._counting("F", nl.F),
            nl.nonnegative,
            nl.vanishes_at_zero,
            dict(nl.params),
        )

    def total_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_s(self, prefix: str) -> float:
        """Span time of every span named with prefix, minus its children's time."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return sum(
            end - start - child_time[i]
            for i, (n, start, end, _) in enumerate(self.spans)
            if n.startswith(prefix)
        )


@contextlib.contextmanager
def call_clock(owner, attr: str):
    """Record the duration of each call made through owner.attr.

    The sweep uses this for the build and the per-point solves that
    run_sweep makes: one pair of clock reads per call, against calls
    that take hundredths to tenths of seconds.
    """
    durations: list[float] = []
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return orig(*args, **kwargs)
        finally:
            durations.append(clock() - t0)

    setattr(owner, attr, timed)
    try:
        yield durations
    finally:
        setattr(owner, attr, orig)
