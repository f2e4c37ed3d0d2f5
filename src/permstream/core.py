"""Core types and order-isomorphism primitives for permutation pattern matching.

A *pattern* is a permutation of [1..k].  A *stream instance* is a sequence of
distinct integers drawn from the universe [1..n], delivered one value at a
time.  Two sequences are *order-isomorphic* when their values appear in the
same relative order; a stream *contains* a pattern when some subsequence of
the stream is order-isomorphic to it.

Streams come in two flavours:

* ``StreamMode.PERMUTATION`` -- the stream is promised to be a permutation of
  [1..n] (exactly n values, each value once).
* ``StreamMode.DISTINCT_SEQUENCE`` -- the stream is any sequence of distinct
  values from [1..n]; it may be shorter than n.

This module also defines the on-disk stream file format used by the CLI:

.. code-block:: text

    # optional comment lines
    n=18 mode=seq
    3 1 9 7 15 13 18 16 14 8 5

The header declares the universe size and the mode (``perm`` or ``seq``);
the remaining whitespace-separated tokens are the stream values.  Comment
lines start with ``#`` and may carry provenance or segment annotations such
as ``# segment alice 1 8``.
"""

from __future__ import annotations

import enum
import io
from typing import Iterable, Iterator, Sequence, TextIO


class Frozen:
    """Base of the immutable value types: compared, hashed and shown by ``_fields``.

    A subclass lists its fields in ``__slots__`` and ``_fields`` and sets them
    in ``__init__`` with ``object.__setattr__``; assigning one later raises
    AttributeError.  Equality needs the same class and equal fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class StreamMode(enum.Enum):
    """How much the stream promises about its contents."""

    PERMUTATION = "perm"
    DISTINCT_SEQUENCE = "seq"

    @classmethod
    def from_token(cls, token: str) -> "StreamMode":
        for mode in cls:
            if mode.value == token:
                return mode
        raise ValueError(f"unknown stream mode {token!r} (expected 'perm' or 'seq')")


class PatternKind(enum.Enum):
    """Coarse classification used by the detector dispatch table."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    NONMONOTONE3 = "nonmonotone3"
    OTHER = "other"


class Pattern(Frozen):
    """A pattern permutation together with its dispatch classification.

    Build instances through :func:`classify_pattern` or :func:`parse_pattern`;
    the constructor checks that ``values`` really is a permutation of [1..k]
    and that ``kind`` matches.
    """

    __slots__ = _fields = ("values", "kind")
    values: tuple[int, ...]
    kind: PatternKind

    def __init__(self, values: tuple[int, ...], kind: PatternKind) -> None:
        k = len(values)
        if k == 0:
            raise ValueError("pattern must have at least one value")
        if sorted(values) != list(range(1, k + 1)):
            raise ValueError(f"pattern {values} is not a permutation of 1..{k}")
        if kind is not _kind_of(values):
            raise ValueError(f"pattern {values} has kind {_kind_of(values)}, not {kind}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        if len(self.values) <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)


def _kind_of(values: Sequence[int]) -> PatternKind:
    k = len(values)
    if tuple(values) == tuple(range(1, k + 1)):
        return PatternKind.INCREASING
    if tuple(values) == tuple(range(k, 0, -1)):
        return PatternKind.DECREASING
    if k == 3:
        return PatternKind.NONMONOTONE3
    return PatternKind.OTHER


def classify_pattern(values: Sequence[int]) -> Pattern:
    """Validate ``values`` as a pattern and attach its :class:`PatternKind`.

    >>> classify_pattern((1, 2, 3)).kind
    <PatternKind.INCREASING: 'increasing'>
    >>> classify_pattern((3, 1, 2)).kind
    <PatternKind.NONMONOTONE3: 'nonmonotone3'>
    >>> classify_pattern((4, 2, 3, 1)).kind
    <PatternKind.OTHER: 'other'>
    """
    return Pattern(tuple(values), _kind_of(values))


def parse_pattern(text: str) -> Pattern:
    """Parse a CLI pattern argument.

    Two spellings are accepted: compact digits for short patterns ("4231")
    and comma-separated values for any length ("10,3,2,1,4,5,6,7,8,9").

    >>> parse_pattern("312").values
    (3, 1, 2)
    >>> parse_pattern("2,1").values
    (2, 1)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty pattern")
    if "," in text:
        values = tuple(int(part) for part in text.split(","))
    elif text.isdigit():
        values = tuple(int(ch) for ch in text)
    else:
        raise ValueError(f"cannot parse pattern {text!r}: use digits ('312') or commas ('3,1,2')")
    return classify_pattern(values)


class StreamInstance(Frozen):
    """A concrete stream: universe size, mode, and the values in order.

    The constructor is permissive so that malformed candidate streams can be
    represented and then rejected; use :func:`stream_violation` /
    :func:`require_valid_stream` before trusting an instance.  It is checked
    once, on the first such call, and keeps its verdict outside eq and hash.
    """

    __slots__ = ("n", "mode", "elements", "_verdict")
    _fields = ("n", "mode", "elements")
    n: int
    mode: StreamMode
    elements: tuple[int, ...]

    def __init__(self, n: int, mode: StreamMode, elements: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def _violation(self) -> str | None:
        try:
            return self._verdict
        except AttributeError:
            pass
        check = StreamValidator(self.n, self.mode)
        elements = self.elements
        for pos, value in enumerate(elements):
            if not isinstance(value, int) or isinstance(value, bool):
                check.feed(elements[:pos])
                check.error = check.error or f"non-integer value {value!r} at position {pos + 1}"
                break
        else:
            check.feed(elements)
        check.count = len(elements)
        verdict = check.violation()
        object.__setattr__(self, "_verdict", verdict)
        return verdict


def checked_instance(check: StreamValidator, elements: tuple[int, ...]) -> StreamInstance:
    """The instance of the ``elements`` that ``check`` was fed, with its verdict.

    The values are not scanned again: the validator has seen each of them.
    """
    inst = StreamInstance(check.n, check.mode, elements)
    object.__setattr__(inst, "_verdict", check.violation())
    return inst


#: the guard's bytearray takes each value up to the floor, and a larger one while
#: that costs at most this many bytes per value read, about a set entry's cost
DENSE_FLOOR = 1 << 20
DENSE_BYTES_PER_VALUE = 64


class StreamValidator:
    """Check a stream's promises incrementally, one chunk of values at a time.

    :meth:`feed` takes ints in stream order and records the *first* range or
    duplicate error with its 1-based position; it keeps counting after that.
    :meth:`violation` then reports exactly what :func:`stream_violation` does,
    in the same order: n < 1, the permutation count, the first value error.

    This is the only duplicate guard; its memory follows the values read,
    never n: a ``bytearray`` while dense, a ``set`` for values far above the
    count read.  Only a value that misses the bytearray decides between them.

    >>> check = StreamValidator(4, StreamMode.PERMUTATION)
    >>> check.feed([2, 4]); check.feed([2])
    >>> check.violation()
    'permutation mode requires exactly n=4 values, got 3'
    >>> check.error
    'duplicate value 2 at position 3'
    """

    def __init__(self, n: int, mode: StreamMode) -> None:
        self.n = n
        self.mode = mode
        self.count = 0
        self.error: str | None = None
        self._guard = bytearray(1)  # index 0 unused, so every guarded value is >= 1
        self._far: set[int] = set()  # the values held, all >= len(self._guard)

    def feed(self, values: Sequence[int]) -> None:
        """Check the next ``values`` (a list or tuple of ints)."""
        if self.error is None:
            guard = self._guard
            size = len(guard)
            it = iter(values)
            for value in it:
                if 0 < value < size and not guard[value]:
                    guard[value] = 1
                    continue
                # the iterator's length hint counts the values still unread
                pos = self.count + len(values) - it.__length_hint__()
                reason = self.hold(value, pos - 1)
                if reason is not None:
                    self.error = f"{reason} at position {pos}"
                    break
                guard = self._guard
                size = len(guard)
        self.count += len(values)

    def hold(self, value: int, read: int) -> str | None:
        """Hold one int, the one after ``read`` values; if refused, say why (no position)."""
        guard = self._guard
        if not 0 < value < len(guard):
            if not 0 < value <= self.n:
                return f"value {value} out of range [1, {self.n}]"
            far = self._far
            limit = max(DENSE_FLOOR, DENSE_BYTES_PER_VALUE * (read + 1))
            if value > limit:
                held = value in far
                far.add(value)
                return f"duplicate value {value}" if held else None
            # Grow at least twofold (O(1) per value) and never past n + 1
            # bytes; a padded copy makes no zero-filled temporary besides.
            size = max(value + 1, 2 * len(guard))
            if far:  # take in the held values within reach: a dense stream ends in the bytearray
                size = max(size, max((v + 1 for v in far if v <= 2 * limit), default=0))
            guard = self._guard = guard.ljust(min(self.n + 1, size), b"\0")
            if far:
                for v in far:
                    if v < len(guard):
                        guard[v] = 1
                self._far = {v for v in far if v >= len(guard)}  # a new set frees the old table
        if guard[value]:
            return f"duplicate value {value}"
        guard[value] = 1
        return None

    def violation(self) -> str | None:
        """A human-readable reason the values fed so far are malformed, or None."""
        if self.n < 1:
            return f"universe size must be at least 1, got n={self.n}"
        if self.mode is StreamMode.PERMUTATION and self.count != self.n:
            return (
                f"permutation mode requires exactly n={self.n} values, "
                f"got {self.count}"
            )
        return self.error


def stream_violation(inst: StreamInstance) -> str | None:
    """Return a human-readable reason the instance is malformed, or None."""
    return inst._violation


def require_valid_stream(inst: StreamInstance) -> None:
    """Raise ValueError with the reason when the instance is malformed."""
    if inst._violation is not None:
        raise ValueError(f"invalid stream: {inst._violation}")


class Occurrence(Frozen):
    """A witness that a stream contains a pattern.

    ``positions`` are 1-based stream indices, strictly increasing.  The final
    position may be ``None``, marking a *future* witness: the detector has
    proven that some not-yet-read value must complete the occurrence, and
    ``values`` records which value that is.  Only the last position may be
    ``None``.
    """

    __slots__ = _fields = ("positions", "values")
    positions: tuple[int | None, ...]
    values: tuple[int, ...]

    def __init__(self, positions: tuple[int | None, ...], values: tuple[int, ...]) -> None:
        if len(positions) != len(values):
            raise ValueError("positions and values must have equal length")
        known = [p for p in positions if p is not None]
        if None in positions[:-1]:
            raise ValueError("only the final position may be a future marker")
        if any(b <= a for a, b in zip(known, known[1:])):
            raise ValueError(f"positions must be strictly increasing, got {positions}")
        if any(p is not None and p < 1 for p in positions):
            raise ValueError("positions are 1-based")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)

    @property
    def has_future(self) -> bool:
        return bool(self.positions) and self.positions[-1] is None


def is_order_isomorphic(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when ``a`` and ``b`` have the same length and relative order.

    >>> is_order_isomorphic((4, 2, 3, 1), (18, 8, 10, 6))
    True
    >>> is_order_isomorphic((1, 2), (2, 1))
    False
    """
    if len(a) != len(b):
        return False
    return all(
        (a[i] < a[j]) == (b[i] < b[j])
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )


def complement(values: Sequence[int], n: int) -> tuple[int, ...]:
    """Map each value v to n+1-v, turning ascents into descents and back.

    Complementing is an involution, and a stream contains a pattern exactly
    when the complemented stream contains the complemented pattern.  The
    detector dispatch table leans on both facts.

    >>> complement((3, 1, 2), 3)
    (1, 3, 2)
    """
    out = []
    for v in values:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} outside universe [1, {n}]")
        out.append(n + 1 - v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Stream file format
# ---------------------------------------------------------------------------

_VALUES_PER_LINE = 20


def format_stream_text(
    inst: StreamInstance,
    segments: Iterable[tuple[str, int, int]] = (),
    comments: Iterable[str] = (),
) -> str:
    """Render an instance in the stream file format.

    ``segments`` are (owner, start, end) annotations written as comments;
    ``comments`` are free-form provenance lines.
    """
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"n={inst.n} mode={inst.mode.value}")
    for owner, start, end in segments:
        lines.append(f"# segment {owner} {start} {end}")
    values = inst.elements
    for i in range(0, len(values), _VALUES_PER_LINE):
        lines.append(" ".join(str(v) for v in values[i : i + _VALUES_PER_LINE]))
    return "\n".join(lines) + "\n"


#: characters read per chunk by :func:`iter_stream_text`
READ_CHARS = 1 << 16
#: the line boundaries of :meth:`str.splitlines`
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _parse_header(line: str) -> tuple[int, StreamMode]:
    parts = line.split()
    if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("mode="):
        raise ValueError(f"malformed header {line!r} (expected 'n=<int> mode=<perm|seq>')")
    try:
        n = int(parts[0][2:])
    except ValueError:
        raise ValueError(f"malformed universe size in header {line!r}") from None
    return n, StreamMode.from_token(parts[1][5:])


def iter_stream_text(fh: TextIO) -> Iterator:
    """Tokenize the stream file format from ``fh``, :data:`READ_CHARS` at a time.

    Yields the header as ``(n, mode)`` first, then the stream values as
    non-empty lists of ints, at most one list per chunk read.  Until the
    header is read, and while the unread text holds a ``#``, the text after
    a chunk's last ``"\\n"`` is carried over to the next chunk; otherwise
    only the word the chunk ends in is, so a stream on one line is not held
    whole.  Lines split
    as :meth:`str.splitlines` splits them, so ``\\r``, ``\\f``, ``\\u2028``
    and the other boundaries it knows end a line (and may start a comment)
    too.  Raises ValueError on a missing or malformed header and on a
    non-integer value, once the tokenizer reaches it.  Nothing is validated:
    see :class:`StreamValidator`.

    >>> chunks = iter_stream_text(io.StringIO("# demo\\nn=3 mode=perm\\n3 1\\n2\\n"))
    >>> next(chunks)
    (3, <StreamMode.PERMUTATION: 'perm'>)
    >>> list(chunks)
    [[3, 1, 2]]
    """
    header = None
    pending: list[str] = []  # the text read since the last cut
    hashed = False  # whether pending holds a "#"
    mid_line = False  # pending continues a value line whose first words were yielded
    while True:
        chunk = fh.read(READ_CHARS)
        hashed = hashed or "#" in chunk
        if header is None or hashed:
            cut = chunk.rfind("\n") + 1  # a comment may start: cut at a line end
        else:
            cut = len(chunk)  # every word is a value: cut after a whitespace
            while cut and not chunk[cut - 1].isspace():
                cut -= 1
        if chunk and not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        text = "".join(pending)
        pending = [chunk[cut:]]
        hashed = "#" in pending[0]
        if header is not None and "#" not in text:
            words = text.split()
        else:
            words = []
            for line in text.splitlines():
                if mid_line:  # the rest of a value line, even if it holds "#"
                    mid_line = False
                    words.extend(line.split())
                    continue
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if header is None:
                    header = _parse_header(line)
                    yield header
                else:
                    words.extend(line.split())
        # past the text's trailing blanks: a word leaves its line open
        end = len(text)
        while end and text[end - 1].isspace() and text[end - 1] not in _LINE_BREAKS:
            end -= 1
        if end:
            mid_line = text[end - 1] not in _LINE_BREAKS
        try:
            values = list(map(int, words))
        except ValueError as exc:
            raise ValueError(f"non-integer stream value: {exc}") from None
        del text, words  # while the consumer runs, only the values stay alive
        if values:
            yield values
        if not chunk:
            break
    if header is None:
        raise ValueError("missing stream header line 'n=<int> mode=<perm|seq>'")


def collect_stream(chunks: Iterator) -> StreamInstance:
    """The instance that :func:`iter_stream_text`'s header and values describe."""
    n, mode = next(chunks)
    elements: list[int] = []
    for values in chunks:
        elements += values
    return StreamInstance(n=n, mode=mode, elements=tuple(elements))


def parse_stream_text(text: str) -> StreamInstance:
    """Parse the stream file format.  Raises ValueError on malformed input."""
    return collect_stream(iter_stream_text(io.StringIO(text)))

