"""One call's work shared between this process and children it forks for it.

forked_map(fn, items, workers) gives [fn(item) for item in items], in
item order, with the items taken by this process and workers - 1 forked
children from one shared counter.  A child inherits the caller's data,
closures included, so nothing is pickled on the way in; each child
pickles its results back through its own pipe.  Every child is reaped
before the call returns or raises.  minimize shares its restarts this
way, and caputo_images its two sides.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import signal

from .errors import FracvarError

__all__ = ["forked_map"]


# where a BLAS reads its thread count, in the order OpenBLAS and MKL read them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads one BLAS call may take: the first positive count set in
    _BLAS_THREAD_VARS, else one per available CPU, a BLAS's default."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _available_cpus()


def forked_map(fn, items, workers: int, label: str = "forked") -> list:
    """fn(item) for each item of a sequence, in order, shared with forked children.

    This process and min(len(items), workers) - 1 forked children take
    the next unclaimed item from one shared counter.  Each child pickles
    back its {index: result}, or the exception fn raised, which is raised
    here as it is; a child that sent no whole result (it died, or its
    exception does not pickle) raises FracvarError("a <label> worker
    process died").  Every child is reaped before this returns, and
    killed first if this raises.  Serial with one worker, no fork start
    method, or in a daemonic process.
    """
    workers = min(len(items), workers)
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return [fn(item) for item in items]
    # the next unclaimed item, in an anonymous shared map: it holds no file
    # descriptor, while a multiprocessing.Value's heap keeps one for good
    claimed = memoryview(mmap.mmap(-1, 8)).cast("q")
    lock = multiprocessing.get_context("fork").Lock()

    def share() -> dict:
        results = {}
        while True:
            with lock:
                i, claimed[0] = claimed[0], claimed[0] + 1
            if i >= len(items):
                return results
            results[i] = fn(items[i])

    children = []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: its share sent back, then out at once
                try:
                    with os.fdopen(w, "wb") as out:
                        try:
                            result = share()
                        except BaseException as exc:
                            result = exc
                        pickle.dump(result, out)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = share()
        for _, reader in children:
            try:
                result = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise FracvarError(f"a {label} worker process died") from exc
            if isinstance(result, BaseException):
                raise result
            results.update(result)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader in children:
            reader.close()
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(items))]
