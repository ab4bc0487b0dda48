"""Map independent tasks over forked worker processes.

`pmap(fn, items)` returns `[fn(x) for x in items]`.  With two or more items
and two or more usable CPUs it runs them in a process pool started with
`fork`, one worker per item up to the CPU affinity of this process.  The
children inherit `fn` and `items` through fork, so neither is pickled and
closures over models work; only the task index goes out and only the
result comes back.  Every task is the same computation it would be in the
serial loop, so results are bit-identical whatever the worker count.

Results come back in input order.  The first failing item, in input order,
re-raises its exception type and message in the parent as soon as it fails:
the tasks not yet started are cancelled and the workers still running are
terminated, and no worker outlives the map.  A worker that dies raises
`BrokenProcessPool`, a RuntimeError.  Warnings a task raises are
recorded in the worker and re-issued in the parent in task order, up to the
first failing task.  With fewer than two workers, inside a worker, while
another thread runs (fork copies only the calling thread), or where `fork`
is unavailable, the plain serial loop runs.  A task's work happens in
the worker, so `resource.RUSAGE_SELF` of the parent leaves it out.
"""

from __future__ import annotations

import os
import warnings

# (fn, items) of the running map, inherited by the forked workers.
_TASK = None
# True in a pool worker, whose own maps run serially.
_IN_WORKER = False


def _cpu_count() -> int:
    """CPUs this process may run on; 1 (serial) where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _mark_worker():
    global _IN_WORKER
    _IN_WORKER = True


def _run_index(i):
    """Run task i in a worker; return its result and its recorded warnings."""
    fn, items = _TASK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(items[i])
    return result, [(w.category, str(w.message), w.filename, w.lineno)
                    for w in caught]


def pmap(fn, items) -> list:
    """[fn(x) for x in items], with the items run in forked workers."""
    global _TASK
    items = list(items)
    workers = min(len(items), _cpu_count())
    if workers < 2 or _IN_WORKER:
        return [fn(x) for x in items]
    import multiprocessing
    import threading

    # fork copies only the calling thread: a lock another thread holds
    # stays locked in the child forever
    if threading.active_count() > 1 or \
            "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_mark_worker)
    # the workers start at the first submit and fork with _TASK set
    _TASK = (fn, items)
    results = []
    try:
        futures = [pool.submit(_run_index, i) for i in range(len(items))]
        for future in futures:
            result, caught = future.result()
            for category, message, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            results.append(result)
    except BaseException:
        # fail fast: stop the siblings still running rather than wait for
        # results that will be thrown away (the executor has no public way
        # to stop its workers before Python 3.14)
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _TASK = None
    return results
