"""Run independent jobs on every usable CPU.

split_map(fn, items) returns [fn(x) for x in items]. With n = the usable
CPUs, at most one per item, the calling process runs items[0::n] and
os.fork()ed child j runs items[j::n]; each child sends its results back
pickled through a pipe. The callers' jobs are seeded on their own and
read nothing another job writes, so the results, and every output built
from them, do not depend on n.

A child stops at its first exception and sends it, with its item's
index, instead of its results; the parent re-raises the one with the
lowest index, which is what the serial loop would have raised. A child
leaves through os._exit, so it runs no atexit hook and flushes no output
the parent had buffered; what it allocates is its own and is freed when
it exits. No child outlives a call: the parent reaps every child. An
exception in the parent's own share waits for the children, whose
failures may come earlier in item order; an interrupt (KeyboardInterrupt,
SystemExit) in its share or its wait kills and reaps them before it
propagates.

Jobs return plain data (numbers, arrays, tuples): a pickled object comes
back as a copy, so the parent builds every object whose identity or
invariants matter from what the jobs return.

The call runs serially, forking nothing, for fewer than two items or
usable CPUs, on a platform without os.fork or os.sched_getaffinity, while
another thread is alive (forking a threaded process can deadlock), and
inside a child, so forks never nest.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

_in_worker = False


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _share(fn, items, start: int, step: int):
    """(results, failure) of items[start::step], in order; failure is None,
    or (index, exception) of the first item that raised, where it stops."""
    results = []
    for i in range(start, len(items), step):
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _work(fn, items, start: int, step: int, fd: int):
    """A child's life: run its share, write it pickled to fd, and _exit;
    a share that cannot be pickled leaves the pipe empty."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        data = pickle.dumps(_share(fn, items, start, step), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def split_map(fn, items) -> list:
    """[fn(x) for x in items], with the items spread round-robin over this
    process and forked children, one process per usable CPU."""
    items = list(items)
    n = min(len(items), _usable_cpus())
    if n < 2 or _in_worker or threading.active_count() > 1:
        return [fn(x) for x in items]
    pids, pipes = [], []
    try:
        for j in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _work(fn, items, j, n, w)
            os.close(w)
            pids.append(pid)
            pipes.append(os.fdopen(r, "rb"))
        shares = [_share(fn, items, 0, n)]
        for j, pipe in enumerate(pipes, 1):
            data = pipe.read()
            shares.append(pickle.loads(data) if data else ([], (j, RuntimeError(
                "a worker process exited without sending its results"))))
    finally:
        for pipe in pipes:
            pipe.close()
        # A child whose pipe reached its end is exiting already; any other
        # is still running a share nobody will read.
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for j, (share, _) in enumerate(shares):
        results[j::n] = share
    return results
