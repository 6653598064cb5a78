"""The one process pool of the stages that split their work into tasks.

Ingest reads a minute CSV as byte ranges, and the forecast stage fits its
anchor blocks, as independent tasks.  Where more than one CPU is usable and
the platform can fork, the tasks run in min(CPUs, tasks) forked worker
processes, which inherit the caller's memory: the shared arguments, the BLAS
pin and any patched module attribute.  Otherwise they run in the calling
process, one after another.  Either way the results come back in task
order, so a caller that depends only on its tasks gets the same result for
any number of workers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Iterator, Sequence


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Set in each worker process by the pool initializer, never in the caller.
_shared: tuple = ()


def _set_shared(shared: tuple) -> None:
    global _shared
    _shared = shared


def _call(fn: Callable, task: tuple) -> bytes:
    # The result crosses as bytes, to be unpickled by the caller's thread,
    # not by the pool's result thread: memory that thread allocates comes
    # from its own malloc arena, which the caller's later allocations do not
    # reuse once the result is freed.
    return pickle.dumps(fn(*_shared, *task), pickle.HIGHEST_PROTOCOL)


@contextlib.contextmanager
def task_results(fn: Callable, tasks: Sequence[tuple], shared: tuple = ()) -> Iterator[Iterator]:
    """An iterator over fn(*shared, *task) for each task, in task order.

    In this process each task runs when the iterator reaches it; in workers
    the tasks run ahead of the caller, each sent as fn, by reference, and
    its task tuple, by value, and each result pickled back.  An exception
    from fn is raised where the iterator reaches its task.  Leaving the
    block cancels the tasks not yet started, and every worker has exited
    when the block is left, whether normally or by an exception.
    """
    workers = min(_usable_cpus(), len(tasks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield (fn(*shared, *task) for task in tasks)
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_shared, initargs=(shared,))
    try:
        yield map(pickle.loads, pool.map(partial(_call, fn), tasks))
    finally:
        pool.shutdown(cancel_futures=True)
