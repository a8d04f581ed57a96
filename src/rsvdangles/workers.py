"""Sharing independent tasks between the calling process and forked workers.

``_share`` is the one pool of the package: ``run`` shares its grid runs,
``balance`` its trials and ``estimate`` its blocks of estimator trials
through it. Workers are plain ``os.fork()`` children that send their
results back through a pipe, so no command imports ``multiprocessing``.
"""

from __future__ import annotations

import os
import pickle
import signal


def _usable_workers() -> int:
    """One worker per CPU this process may use; 1 where that count or
    ``os.fork`` is missing."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


def _share(fn, state: tuple, tasks: list, jobs: int) -> list:
    """``[fn(*state, t) for t in tasks]``, shared by
    ``min(jobs, len(tasks), _usable_workers())`` workers.

    Worker w runs the fixed share ``tasks[w::workers]``. Worker 0 is the
    calling process, so one fork fewer is needed; each other worker is a
    forked child that inherits ``state`` instead of unpickling it and sends
    its pickled results (or the exception its share raised) through a pipe.
    As with any fork, the calling process should run no other threads at
    that point. The results come back in task order, so they do not depend
    on the worker count. An exception raised in a share is raised here; a
    worker that ends without reporting raises ChildProcessError. Every
    child is reaped before this returns or raises.
    """
    workers = min(jobs, len(tasks))
    if workers > 1:  # one worker needs no CPU count and no fork
        workers = min(workers, _usable_workers())
    if workers <= 1:
        return [fn(*state, task) for task in tasks]
    # Processes, not threads: numpy's values-only SVD does not overlap
    # across threads.
    children = []  # (worker, pid, read end) not yet collected
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(fn, state, tasks[w::workers], write_end,
                       [read_end, *(fd for _, _, fd in children)])
            os.close(write_end)
            children.append((w, pid, read_end))
        results = [None] * len(tasks)
        results[::workers] = [fn(*state, task) for task in tasks[::workers]]
        while children:
            w, pid, read_end = children.pop(0)
            results[w::workers] = _collect(pid, read_end)
        return results
    finally:  # on an error, stop and reap the workers still running
        for _, pid, read_end in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, state: tuple, tasks: list, write_end: int, inherited: list) -> None:
    """Body of a forked worker: run ``tasks``, write the pickled
    ``(ok, results or exception)`` reply and exit without returning."""
    code = 1
    try:
        for fd in inherited:  # the read ends, so only the caller holds them
            os.close(fd)
        try:
            reply = (True, [fn(*state, task) for task in tasks])
        except Exception as exc:
            reply = (False, exc)
        with open(write_end, "wb") as fh:
            pickle.dump(reply, fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, read_end: int) -> list:
    """Read one worker's reply, reap it, and return its results or raise
    what its share raised. The reply is unpickled as it streams in, so its
    bytes are never held whole next to the results."""
    reply = None
    try:
        with open(read_end, "rb") as fh:
            reply = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        pass  # a reply cut short; the exit code tells why
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or reply is None:
        raise ChildProcessError(f"worker process {pid} ended with exit code {code}"
                                " before reporting its results")
    ok, value = reply
    if not ok:
        raise value
    return value
