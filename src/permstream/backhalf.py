"""A large ``perm`` file read by two processes: the back half in a forked helper.

``permstream detect`` must read and validate a whole stream, even when the
detector accepts within a few values.  On a large ``perm`` file the back
half's tokenizing and validation can then run on a second CPU: once the
detector has accepted, :func:`split_chunks` forks a :class:`BackHalf`
helper for the bytes from ``mid``, the first line start at or after the
byte midpoint, and yields the values before ``mid`` itself.  At ``mid`` the
helper's result stands for the rest of the file only if it cannot change
the answer.  Otherwise the helper is killed and the rest is read in this
process, from the very chunk where the front half stopped, so the output is
the same as when the file is read straight through.

Only :mod:`permstream.cli` imports this module, and only for a regular file
of at least ``cli.SPLIT_MIN_BYTES``.
"""

from __future__ import annotations

import codecs
import io
import mmap
import os
import signal
import threading
from typing import Callable, Iterator

from .core import StreamMode, StreamValidator, iter_stream_text

#: bytes read at a time while the file is searched and counted
_SLICE = 1 << 16


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
    midpoint, or None when no line starts there before the end."""
    pos = size // 2
    while pos < size:
        data = os.pread(fd, _SLICE, pos)
        if not data:
            return None
        end = data.find(b"\n")
        if end >= 0:
            mid = pos + end + 1
            return mid if mid < size else None
        pos += len(data)
    return None


def text_length(fd: int, end: int) -> int | None:
    """The number of characters a text reader (UTF-8, universal newlines)
    makes of the file's first ``end`` bytes, which end in ``\\n``; None if
    they are not UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    chars = pos = 0
    last_cr = False  # the previous slice ended in "\r"
    while pos < end:
        data = os.pread(fd, min(_SLICE, end - pos), pos)
        if not data:
            return None
        try:
            chars += len(decoder.decode(data))
        except UnicodeDecodeError:
            return None
        if b"\r" in data or last_cr:  # universal newlines read "\r\n" as one "\n"
            chars -= data.count(b"\r\n") + (last_cr and data.startswith(b"\n"))
            last_cr = data.endswith(b"\r")
        pos += len(data)
    return chars


class CutReader:
    """A text file that reads as ending at character ``cut``, until ``cut`` is None.

    Each read is passed on to ``fh`` as it comes, so ``fh`` decodes the same
    chunks, and raises the same errors at the same reads, as when it is read
    straight through; the text of the read that crosses the cut is returned
    in two parts, the second one once ``cut`` is None again.
    """

    def __init__(self, fh: io.TextIOBase) -> None:
        self._fh = fh
        self.chars = 0  # characters returned
        self.cut: int | None = None
        self._rest = ""  # the text read past the cut

    def read(self, size: int) -> str:
        if self.chars == self.cut:
            return ""
        if self._rest:
            text, self._rest = self._rest, ""
        else:
            text = self._fh.read(size)
        if self.cut is not None and self.chars + len(text) > self.cut:
            keep = self.cut - self.chars
            text, self._rest = text[:keep], text[keep:]
        self.chars += len(text)
        return text


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

    The helper writes what it holds into an anonymous shared map made before
    the fork: byte v is 1 when it read value v, and behind the n + 1 bytes of
    the map come its value count (8 bytes) and, written last, how it ended
    (1 byte): :data:`CLEAN`, :data:`FAILED` on an error of the validator, the
    tokenizer or the UTF-8 decoder, and 0 if it died first.  It never writes
    to stdout or stderr and always ends in ``os._exit``.  Use it as a context
    manager: leaving it kills and reaps a helper not yet reaped.
    """

    CLEAN, FAILED = 1, 2

    def __init__(self, fd: int, mid: int, header: tuple[int, StreamMode]) -> None:
        self.n = n = header[0]
        self._map = mmap.mmap(-1, n + 10)
        self.pid: int | None = os.fork()
        if self.pid == 0:
            code = 1
            try:
                self._validate(fd, mid, header)
                code = 0
            finally:
                os._exit(code)

    def _validate(self, fd: int, mid: int, header: tuple[int, StreamMode]) -> None:
        """The helper's work, from the start of the line at byte ``mid``."""
        check = StreamValidator(*header)
        text = io.TextIOWrapper(io.BufferedReader(_Pread(fd, mid)), encoding="utf-8")
        failed = True
        try:
            for values in iter_stream_text(text, header):
                check.feed(values)
                if check.error is not None:
                    break
            else:
                failed = False
        except (OSError, ValueError):  # a tokenizer, UTF-8 or read error
            pass
        check.mark_held(self._map)
        self._map[self.n + 1 :] = check.count.to_bytes(8, "little") + bytes(
            [self.FAILED if failed else self.CLEAN])

    def take(self, check: StreamValidator) -> bool:
        """Add the helper's half to ``check``, the front half read without an
        error, unless that could change the answer.

        Waits for the helper.  The halves are taken together when the helper
        ended cleanly without an error and they hold no value twice: with
        exactly n values in all, the helper's map must mark just the values
        ``check`` lacks; with any other total, the count is all
        :meth:`StreamValidator.violation` reports, whatever the values.
        """
        self._reap()
        n, held = self.n, self._map
        if held[n + 9] != self.CLEAN:
            return False
        count = int.from_bytes(held[n + 1 : n + 9], "little")
        if check.count + count == n and not check.holds_all_but(held):
            return False
        check.count += count
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


def split_chunks(fh: io.TextIOBase, settled: Callable[[], StreamValidator | None]) -> Iterator:
    """:func:`iter_stream_text` over ``fh``, with a ``perm`` stream's back half
    validated by a :class:`BackHalf` once the answer is settled.

    ``settled()`` gives the caller's validator once the detector has accepted
    and no value read so far is wrong, and None before.  At the first chunk
    after which it does, and if :func:`may_fork_helper`, a helper is forked
    for the bytes from ``mid``, the first line start at or after the byte
    midpoint, and the values yielded here end at ``mid``.  There the
    helper's half is taken if the answer is still settled and
    :meth:`BackHalf.take` allows it; otherwise the helper is killed and the
    rest is read here.  A stream that never settles forks no helper, and
    one whose reading has passed ``mid`` by then, or whose front half is
    not UTF-8, is read here whole.
    """
    if not may_fork_helper():
        yield from iter_stream_text(fh)
        return
    reader = CutReader(fh)
    chunks = iter_stream_text(reader)
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
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    # a valid perm file has at least one byte per value, so the map stays small
    mid = line_start_past_middle(fd, size) if 0 < n <= size else None
    cut = None if mid is None else text_length(fd, mid)
    if cut is None or cut < reader.chars:
        yield from chunks
        return
    try:
        back = BackHalf(fd, mid, header)
    except OSError:  # no memory or no process for the helper
        yield from chunks
        return
    reader.cut = cut
    with back:
        yield from chunks
        check = settled()
        if check is not None and back.take(check):
            return
    reader.cut = None
    yield from iter_stream_text(reader, header)
