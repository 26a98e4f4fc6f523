"""One worker process for a second CPU.

Work uses a second CPU, where this process may use one, through one
worker process: this module forks it at the first task that can use it
and keeps it until the interpreter exits, and each use hands it a task
by value down a pipe, which it answers with pickled messages on another.
Tasks never nest: work started while one is in flight, or in the worker,
runs serially.  One CPU (``taskset -c 0``), one unit of work, another
live Python thread, or a host with no process or descriptor to spare
gives the serial walk.  A task that fails, or a worker that dies, hands
its work back to this process, which so raises the serial walk's error,
and the worker ends; so does a task abandoned before its last message.
The rest of the call then runs here, and the next call forks afresh.  A
process this one forks forgets the worker.

What a task does is its caller's: this module imports no other module
of the package.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
from contextlib import contextmanager, suppress


class _Worker:
    """This process's handle on the worker: its pid, the pipe this process
    sends it tasks and requests down, and the pipe its messages come up."""

    def __init__(self, pid: int, requests, replies):
        self.pid, self.requests, self.replies = pid, requests, replies

    def close(self) -> None:
        """Close this process's ends of the worker's pipes."""
        for end in (self.requests, self.replies):
            with suppress(OSError):  # a request end cannot flush to the dead
                end.close()


# the worker, forked at the first task and kept until this interpreter
# exits, or None where there is none (yet, or since it ended)
_worker = None

# the :class:`Tasks` of the call in progress (:func:`tasks`), or None
_current = None

# true for good in the worker, which so never uses a worker
_busy = False


def usable(units: int) -> bool:
    """Whether ``units`` units of work (say, two halves of one job) share
    the work with the worker: two or more units, a second CPU this
    process may use and no task in flight, so that tasks never nest.  A
    fork copies only the calling thread, so not while another Python
    thread is alive, nor where the OS has no ``fork`` or no
    ``sched_getaffinity``."""
    if (_busy or units < 2 or _current is not None and _current.left
            or not hasattr(os, "fork") or threading.active_count() > 1):
        return False
    affinity = getattr(os, "sched_getaffinity", lambda pid: {0})
    return len(affinity(0)) > 1


# the worker's one send, a module name so that a test can cut it short
def _send(out, result) -> None:
    pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
    out.flush()  # not held back in the buffer until the next send


def _run_task(requests, replies) -> None:
    """Read one task, ``(function, args)``, from ``requests`` and send
    each message of ``function(requests, *args)`` to ``replies``; a call
    of its own, so that the worker keeps nothing of a task while idle."""
    function, args = pickle.load(requests)
    for message in function(requests, *args):
        _send(replies, message)


def _serve(requests: int, replies: int) -> None:
    """The worker: run each task read from the descriptor ``requests`` in
    turn, sending its messages to ``replies``.  The first error ends it,
    and the parent meets it again when it does that work itself; so does
    the parent closing its end or dying.  It leaves by ``os._exit``, so no
    buffer or handler of the parent runs twice."""
    global _busy
    _busy = True
    try:
        requests, replies = os.fdopen(requests, "rb"), os.fdopen(replies, "wb")
        while True:
            _run_task(requests, replies)
    finally:
        os._exit(0)


def start():
    """Fork the worker; its :class:`_Worker`, or None where no descriptor
    or process is to spare."""
    # numpy loads numpy.random on first use; a worker that draws from it
    # would otherwise load it on its own critical path
    import numpy.random  # noqa: F401
    # the requests pipe (read, write), then the replies pipe; this process
    # keeps the requests' write end and the replies' read end
    fds = []
    try:
        for _ in range(2):
            fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        os.close(fds[1])
        os.close(fds[2])
        _serve(fds[0], fds[3])
    os.close(fds[0])
    os.close(fds[3])
    return _Worker(pid, os.fdopen(fds[1], "wb"), os.fdopen(fds[2], "rb"))


def stop() -> None:
    """Kill and reap the worker, if there is one: at exit, and where a
    task ended by an error, before all its messages were read or with the
    worker gone."""
    global _worker
    worker, _worker = _worker, None
    if worker is None:
        return
    # gone already where SIGCHLD is ignored, which reaps children
    with suppress(ProcessLookupError, ChildProcessError):
        os.kill(worker.pid, signal.SIGKILL)
        os.waitpid(worker.pid, 0)
    worker.close()


def _forget() -> None:
    """In a forked child: drop this process's copies of its parent's
    worker pipes, without a word to that worker, which stays the
    parent's."""
    global _worker, _current, _busy
    worker, _worker, _current, _busy = _worker, None, None, False
    if worker is not None:
        worker.close()


atexit.register(stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


class Tasks:
    """One call's tasks in the worker: :meth:`post` hands it one, forking
    it first where there is none, :meth:`receive` reads their messages in
    order and :meth:`send` writes a task raw request bytes.  Where there
    is no worker, or it ended, every later post and send of the call is
    refused and every receive is the caller's own result."""

    def __init__(self):
        self.worker, self.left = None, 0  # left: messages not yet read
        self.forked = False  # whether the call has taken the worker

    def send(self, data) -> bool:
        """Write ``data`` to the worker; False where it has gone."""
        if self.worker is not None:
            try:
                self.worker.requests.write(data)
                self.worker.requests.flush()
                return True
            except OSError:
                self.worker = None
        return False

    def post(self, messages: int, function, *args) -> None:
        """Hand the worker the task ``function(its requests, *args)``,
        which sends ``messages`` messages: ``function`` is a module-level
        function, found by name in the worker, and ``args`` go by
        value."""
        global _worker
        if not self.forked:
            self.forked = True
            if _worker is None:
                _worker = start()
            self.worker = _worker
        self.left += messages
        if self.worker is not None:
            self.send(pickle.dumps((function, args), pickle.HIGHEST_PROTOCOL))

    def receive(self, otherwise):
        """The next message, or ``otherwise()`` where there is no worker or
        it ended before it sent the message in full (a short or empty
        pickle)."""
        if self.worker is not None:
            with suppress(EOFError, pickle.UnpicklingError):
                message = pickle.load(self.worker.replies)
                self.left -= 1
                return message
            self.worker = None
        return otherwise()

    @contextmanager
    def apart(self):
        """For the body of the block, pin the worker, where the call has
        one, to the highest CPU this thread may use and this thread to the
        rest, where it may use two or more; both masks are restored after
        it.  The scheduler may otherwise keep both processes on one CPU,
        where each request waits for the worker to drain it
        (``docs/resources.md``, "Where the two processes run").  Where a
        mask cannot be set, both run as they were."""
        pinned = []  # (pid, mask to restore), 0 for this thread

        def restore():
            while pinned:
                pid, mask = pinned.pop()
                with suppress(OSError):
                    os.sched_setaffinity(pid, mask)

        try:
            mine = os.sched_getaffinity(0)
            if self.worker is not None and len(mine) > 1:
                top = max(mine)
                for pid, mask in ((self.worker.pid, {top}),
                                  (0, mine - {top})):
                    before = os.sched_getaffinity(pid)
                    os.sched_setaffinity(pid, mask)
                    pinned.append((pid, before))
        except OSError:  # ProcessLookupError where the worker has died
            restore()
        try:
            yield
        finally:
            restore()


@contextmanager
def tasks():
    """Yield the call's :class:`Tasks`: the outermost block makes them,
    and every block inside it shares them, so a worker that ends is not
    forked again before the call returns.  A call that ends by an error,
    or before it read every message, abandons its tasks: the worker is
    killed, not drained.  So is a worker that ended; the next call then
    forks afresh."""
    global _current
    if _current is not None:
        yield _current
        return
    _current = current = Tasks()
    ended = True
    try:
        yield current
        ended = current.left > 0
    finally:
        _current = None
        if current.forked and (ended or current.worker is None):
            stop()
