"""A large ``perm`` file read by two processes: the back half in a forked helper.

``permstream detect`` must read and validate a whole stream, even when the
detector accepts within a few values.  On a large ``perm`` file the back
half's tokenizing and validation can then run on a second CPU: once the
detector has accepted, :func:`split_chunks` forks a :class:`BackHalf`
helper for the bytes from ``mid``, the first line start at or after the
byte midpoint, and yields the values before ``mid`` itself: the byte reader
under the text reader stops at ``mid``, so the text reads as ending there.
At ``mid`` the helper's half is taken only when the two halves together
are exactly a permutation of [1, n], the one case where the answer is
known without reading on.  Otherwise the helper is killed and the rest is
read in this process, by the same text reader from the same byte on, so
the output is the same as when the file is read straight through.

Only :mod:`permstream.cli` imports this module, and only for a regular file
of at least ``cli.SPLIT_MIN_BYTES``.
"""

from __future__ import annotations

import io
import mmap
import os
import signal
import threading
from typing import Callable, Iterator

from .core import StreamMode, StreamValidator, iter_stream_text


def may_fork_helper() -> bool:
    """Whether this process may fork a helper: ``os.fork``, one thread (a fork
    with more is unsafe) and two usable CPUs."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        threads = len(os.listdir("/proc/self/task"))  # every thread, not only Python's
    except OSError:
        threads = threading.active_count()
    return threads == 1 and (cpus or 1) >= 2


def line_start_past_middle(fd: int, size: int) -> int | None:
    """The offset just past the first ``\\n`` at or after the file's byte
    midpoint, or None when no line starts there before the end or the file
    cannot be mapped: it is then read by one process."""
    try:
        with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as data:
            mid = data.find(b"\n", size // 2) + 1
            return mid if 0 < mid < len(data) else None
    except (OSError, ValueError):  # no mmap on this file system, or the file is empty now
        return None


class _Pread(io.RawIOBase):
    """A file's bytes from ``pos`` on, read with ``os.pread``: the descriptor's
    offset, which a forked process shares with its parent, is left alone."""

    def __init__(self, fd: int, pos: int) -> None:
        self._fd, self._pos = fd, pos

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, len(buf), self._pos)
        buf[: len(data)] = data
        self._pos += len(data)
        return len(data)


class BackHalf:
    """A forked helper that tokenizes and validates a ``perm`` file from byte ``mid`` on.

    The helper hands over one anonymous shared map of n + 2 bytes, made
    before the fork: byte v is 1 when it read value v, and byte n + 1, the
    done byte, is set last, and only when its half met no error of the
    validator, the tokenizer or the UTF-8 decoder.  It never writes to
    stdout or stderr and always ends in ``os._exit``.  Use it as a context
    manager: leaving it kills and reaps a helper not yet reaped.
    """

    def __init__(self, fd: int, mid: int, header: tuple[int, StreamMode]) -> None:
        self.n = header[0]
        self._map = mmap.mmap(-1, self.n + 2)
        self.pid: int | None = os.fork()
        if self.pid == 0:
            try:
                self._validate(fd, mid, header)
            finally:  # silently, also on an error, which leaves the done byte unset
                os._exit(0)

    def _validate(self, fd: int, mid: int, header: tuple[int, StreamMode]) -> None:
        """The helper's work, from the start of the line at byte ``mid``."""
        check = StreamValidator(*header)
        text = io.TextIOWrapper(io.BufferedReader(_Pread(fd, mid)), encoding="utf-8")
        for values in iter_stream_text(text, header):
            check.feed(values)
            if check.error is not None:
                return
        check.mark_held(self._map)
        self._map[self.n + 1] = 1

    def take(self, check: StreamValidator) -> bool:
        """Add the helper's half to ``check``, the front half read without an
        error, if the two halves are exactly a permutation of [1, n].

        Waits for the helper.  Its half is taken when the done byte is set
        and the map marks just the values ``check`` lacks; ``check`` then
        holds all n values.  Any other case, a short or long file included,
        is left to the caller to read on.
        """
        self._reap()
        if not self._map[self.n + 1] or not check.holds_all_but(self._map):
            return False
        check.count = self.n
        return True

    def __enter__(self) -> "BackHalf":
        return self

    def _reap(self) -> None:
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # SIGCHLD is ignored: the kernel reaped it
            pass
        self.pid = None

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # SIGCHLD is ignored and it has ended
                pass
            self._reap()
        self._map.close()


def split_chunks(fh: io.TextIOWrapper, settled: Callable[[], StreamValidator | None]) -> Iterator:
    """:func:`iter_stream_text` over ``fh``, with a ``perm`` stream's back half
    validated by a :class:`BackHalf` once the answer is settled.

    ``settled()`` gives the caller's validator once the detector has accepted
    and no value read so far is wrong, and None before.  At the first chunk
    after which it does, and if :func:`may_fork_helper`, a helper is forked
    for the bytes from ``mid``, the first line start at or after the byte
    midpoint, and ``fh.buffer``, a ``cli._CountedReads``, stops at ``mid``.
    There the helper's half is taken if the answer is still settled and
    :meth:`BackHalf.take` allows it; otherwise the helper is killed and the
    rest is read here.  A stream that never settles forks no helper, and one
    whose reading has passed ``mid`` by then is read here whole.
    """
    chunks = iter_stream_text(fh)
    header = next(chunks)
    yield header
    n, mode = header
    if mode is not StreamMode.PERMUTATION:
        yield from chunks
        return
    for values in chunks:
        yield values
        if settled() is not None:
            break
    else:
        return
    reads = fh.buffer
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    # a valid perm file has at least one byte per value, so the map stays small
    mid = line_start_past_middle(fd, size) if 0 < n <= size and may_fork_helper() else None
    if mid is None or reads.count > mid:
        yield from chunks
        return
    try:
        back = BackHalf(fd, mid, header)
    except OSError:  # no memory or no process for the helper
        yield from chunks
        return
    reads.stop = mid
    with back:
        yield from chunks
        check = settled()
        if check is not None and back.take(check):
            return
    reads.stop = None
    yield from iter_stream_text(fh, header)
