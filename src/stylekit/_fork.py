"""A forked process that answers requests in order: stylekit's one fork
protocol, which runs the code tower beside the style tower where
:func:`overlap_towers` allows, to train and to embed held-out pairs
(:func:`beside`), and builds the per-record work of a batch on several CPUs
(:func:`in_slices`). Whether stylekit forks, and onto how many CPUs, is
decided here alone (:func:`usable_cpus`)."""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import re
from typing import Callable, NoReturn, Sequence

import numpy as np

from .lexer import InputError

# Items (over all columns) a batch needs before in_slices builds it on more
# than one CPU; each slice keeps about half as many. Medians of 21 alternating
# calls of pair-input builds on held-out pairs, on a 2-core Xeon in a 101 MB
# process (a default-size encoder loaded), texts: serial vs split on 2 CPUs ms:
# 18 11.6 vs 15.4, 24 15.6 vs 17.4, 30 18.0 vs 18.9, 36 21.7 vs 21.9,
# 48 27.8 vs 25.3, 60 32.6 vs 29.5, 96 48.1 vs 38.5. The split breaks even
# near 36 texts; a larger process copies more page tables when it forks.
SPLIT_MIN_TEXTS = 64
# Rows a batch needs before beside() forks: a fork, its reply and its reap
# cost about 9 ms, and the towers share the cores' caches. Medians of 31
# alternating held-out eval_retrieval calls (default-size encoder), rows:
# _embed's ms in turn vs beside a child: 96 10.3 vs 11.5, 128 11.9 vs 13.4,
# 192 22.4 vs 20.8, 256 22.0 vs 20.2, 384 35.1 vs 31.3, 1000 77.7 vs 55.6.
BESIDE_MIN_ROWS = 192


class Forked:
    """A forked process that runs ``start()`` once, then answers each request
    it is sent with ``serve(request)``, where ``serve`` is what ``start``
    returned, in order, until the caller stops sending. It inherits the
    caller's memory as it was at the fork, so ``start`` closes over what it
    needs; requests and replies are pickled, on one pipe each way.

    The process first closes the caller's ends of its own pipes and of every
    other live ``Forked``'s, so that only the caller holds them: once the
    caller closes its ends, a process waiting on a request sees EOF and
    exits, and one blocked on writing a reply fails, in whatever order they
    are reaped. It leaves by ``os._exit``, so it runs no ``atexit`` handler
    and flushes none of the caller's stdio buffers; its status is 0 only if
    it ended at a request's boundary.

    An exception ``start`` or ``serve`` raised is a bug, which :meth:`reply`
    raises, caused by a ``RuntimeError`` that holds its traceback. A process
    that dies, exits non-zero or sends a short reply raises ``RuntimeError``
    naming ``who``. Leaving the ``with`` block closes the caller's ends and
    reaps the process, whatever was raised; if nothing was, a non-zero exit
    raises. A pipe or fork that fails on entering leaves no end open. On
    Python 3.12 and later ``os.fork`` may emit a ``DeprecationWarning`` once
    OpenBLAS has started its threads."""

    # Every Forked entered and not yet reaped, in this process: pipe ends are
    # per process, so a new process must close the caller's ends of all of them.
    _live: list[Forked] = []

    def __init__(self, who: str, start: Callable[[], Callable]):
        self.who, self._start = who, start
        self._status: int | None = None

    def __enter__(self):
        fds: list[int] = []
        try:
            fds += os.pipe()   # requests: the process reads, the caller writes
            fds += os.pipe()   # replies: the caller reads, the process writes
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        request_fd, self._requests, reply_fd, write_fd = fds
        if pid == 0:
            self._serve(request_fd, write_fd, (self._requests, reply_fd))
        os.close(request_fd)
        os.close(write_fd)
        self._replies = open(reply_fd, "rb")
        self._pid = pid
        Forked._live.append(self)
        return self

    def __exit__(self, kind, exc, tb):
        if self._reap() != 0 and kind is None:
            raise self._lost()

    def send(self, request, last: bool = False) -> None:
        """Send ``request``; with ``last``, then close the request pipe, so
        the process exits once it has answered, and a short reply ends in
        EOF, not in a wait for the next request."""
        # a process gone is reported by the next reply()
        with contextlib.suppress(BrokenPipeError):
            _write_all(self._requests, pickle.dumps(request, pickle.HIGHEST_PROTOCOL))
        if last:
            os.close(self._requests)
            self._requests = None

    def reply(self):
        """The reply to the oldest request not yet answered: what ``serve``
        returned, else the exception it raised."""
        try:   # unpickled as read: no copy of the payload
            error, got = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            raise self._lost() from None
        if error is not None:
            raise error from RuntimeError(f"{self.who} raised:\n{got}")
        return got

    def _close(self) -> None:
        if self._requests is not None:
            os.close(self._requests)
            self._requests = None
        self._replies.close()

    def _reap(self) -> int:
        """Close the caller's ends and reap the process: its exit status."""
        if self._status is None:
            self._close()
            Forked._live.remove(self)
            self._status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        return self._status

    def _lost(self) -> RuntimeError:
        status = self._reap()
        if status < 0:
            return RuntimeError(f"{self.who} died of signal {-status}")
        if status > 0:
            return RuntimeError(f"{self.who} exited with status {status}")
        return RuntimeError(f"{self.who} sent a short payload")

    def _serve(self, request_fd: int, write_fd: int, callers: tuple[int, int]) -> NoReturn:
        """The process's whole life."""
        status = 1
        try:
            for fd in callers:
                os.close(fd)
            for other in Forked._live:
                other._close()
            started = _outcome(self._start)
            with open(request_fd, "rb") as requests:
                while True:
                    try:
                        request = pickle.load(requests)
                    except EOFError:   # the caller is done
                        break
                    reply = started if started[0] is not None else _outcome(started[1], request)
                    _write_all(write_fd, pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
            status = 0
        finally:
            os._exit(status)


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``: a signal may cut a pipe write short."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _outcome(fn, *args):
    """``(None, fn(*args))``, or ``(exc, its traceback)`` for the exception
    ``fn`` raised."""
    try:
        return None, fn(*args)
    except Exception as exc:
        import traceback   # here, as it adds 0.3 MB to the caller

        return exc, "".join(traceback.format_exception(exc))


def usable_cpus() -> int:
    """The number of CPUs this process may fork onto: those it may run on,
    or 1 on a platform without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS takes its thread count from the first of these that C's atoi reads
# as positive, else runs one thread per CPU the process may use.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ATOI = re.compile(r"[ \t\n\v\f\r]*([+-]?[0-9]+)")


def overlap_towers() -> bool:
    """Whether the code tower runs in a forked process beside the style
    tower, in ``contrastive.train``'s worker and in retrieval's embedding
    (:func:`beside`): only if both towers' BLAS threads fit on the
    :func:`usable_cpus`. Two pools of one thread per CPU contend, and the
    overlap then runs slower than one tower after the other: on a 2-core
    Xeon, 3 desk-scale epochs took 2.47 s in the worker against 3.80 s in
    turn at one OpenBLAS thread, and 8.45 s against 3.16 s at the default
    two (medians of 4 fresh processes). At one thread, 1000 held-out pairs
    embed in 55.6 ms beside a child against 77.7 ms in turn."""
    cpus = usable_cpus()
    counts = (int(m[1]) if (m := _ATOI.match(os.environ.get(var, ""))) else 0
              for var in _BLAS_THREAD_VARS)
    blas = next((n for n in counts if n > 0), cpus)
    return 2 * blas <= cpus


def beside(first: Callable, second: Callable, items: int):
    """``(first(), second())``, with ``first`` run by a forked :class:`Forked`
    child while the caller runs ``second``, where :func:`overlap_towers`
    allows and ``items`` is at least ``BESIDE_MIN_ROWS``; elsewhere in turn,
    ``first`` first. If both raise, ``first``'s error is raised."""
    if items < BESIDE_MIN_ROWS or not overlap_towers():
        return first(), second()
    with Forked("the child beside the caller", lambda: lambda _: first()) as child:
        child.send(None, last=True)
        try:
            got = second()
        finally:
            first_got = child.reply()
    return first_got, got


def in_shared_memory(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Copies of ``arrays`` in one anonymous shared mapping, which a process
    forked after this call shares: each side sees the other's writes."""
    import mmap   # here, as only the training worker's caller needs it

    offsets = list(itertools.accumulate((-(-a.nbytes // 64) * 64 for a in arrays), initial=0))
    buf = mmap.mmap(-1, max(offsets[-1], 1))
    copies = [np.frombuffer(buf, a.dtype, a.size, offset).reshape(a.shape)
              for a, offset in zip(arrays, offsets)]
    for copy, a in zip(copies, arrays):
        copy[...] = a
    return copies


def in_slices(build: Callable, *columns: Sequence) -> list:
    """``build(*part)`` of each part of ``columns``, in order, where a part
    holds one contiguous slice of each column, all cut at the same fractions.
    There is one part per :func:`usable_cpus`, but no more than leave each
    about half of ``SPLIT_MIN_TEXTS`` items. The caller builds the first part
    while a :class:`Forked` child builds each other one, which it inherits;
    the results are pickled back."""
    n = max(1, min(usable_cpus(), 2 * sum(map(len, columns)) // SPLIT_MIN_TEXTS))

    def build_part(i):
        return build(*(column[len(column) * i // n:len(column) * (i + 1) // n]
                       for column in columns))

    with contextlib.ExitStack() as stack:
        children = []
        for i in range(1, n):
            children.append(stack.enter_context(
                Forked(f"the child building slice {i} of {n}", lambda: build_part)))
            children[-1].send(i, last=True)
        return [build_part(0), *(child.reply() for child in children)]


def each(fn, items):
    """``fn`` of each item, or the ``InputError`` it raised, one at a time.
    An error is kept without its traceback, whose frames would hold it in a
    reference cycle, and which a child's error loses in its pickle anyway."""
    for item in items:
        try:
            got = fn(item)
        except InputError as exc:
            got = exc.with_traceback(None)
        yield got


def split_map(fn, items: Sequence) -> list:
    """``list(each(fn, items))``, built by :func:`in_slices`: byte-identical
    to a serial map wherever ``fn`` depends on its item alone."""
    return [got for part in in_slices(lambda part: list(each(fn, part)), items)
            for got in part]
