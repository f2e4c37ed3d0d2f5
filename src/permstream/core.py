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
from json import loads as _json_loads
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


class Pattern(Frozen):
    """A pattern: a permutation of [1..k], held as its values alone.

    The constructor takes any sequence of ints and checks that it is a
    permutation of [1..k]; :func:`parse_pattern` reads the CLI spelling.
    Which detector serves a pattern is read off its values by
    :mod:`permstream.streaming.dispatch`.

    >>> Pattern([3, 1, 2])
    Pattern(values=(3, 1, 2))
    """

    __slots__ = _fields = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]) -> None:
        values = tuple(values)
        k = len(values)
        if k == 0:
            raise ValueError("pattern must have at least one value")
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"pattern values must be ints, got {v!r}")
        if sorted(values) != list(range(1, k + 1)):
            raise ValueError(f"pattern {values} is not a permutation of 1..{k}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        if len(self.values) <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)


def parse_pattern(text: str) -> Pattern:
    """Parse a CLI pattern argument.

    Two spellings are accepted: compact digits for short patterns ("4231")
    and comma-separated values for any length ("10,3,2,1,4,5,6,7,8,9").
    Each value is read by :func:`parse_int`, so a ``+``, a blank, a ``_``
    or a non-ASCII digit makes the text unparseable.

    >>> parse_pattern("312").values
    (3, 1, 2)
    >>> parse_pattern("2,1").values
    (2, 1)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty pattern")
    try:
        values = tuple(map(parse_int, text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError(
            f"cannot parse pattern {text!r}: use digits ('312') or commas ('3,1,2')"
        ) from None
    return Pattern(values)


class StreamInstance(Frozen):
    """A concrete stream: universe size, mode, and the values in order.

    The constructor keeps the values as a tuple and checks the mode's promise:
    a malformed stream raises ValueError ``invalid stream: <reason>``, with
    the reason :func:`stream_violation` gives.  So every instance is valid.

    >>> StreamInstance(3, StreamMode.PERMUTATION, (3, 1, 3))
    Traceback (most recent call last):
    ...
    ValueError: invalid stream: duplicate value 3 at position 3
    """

    __slots__ = _fields = ("n", "mode", "elements")
    n: int
    mode: StreamMode
    elements: tuple[int, ...]

    def __init__(self, n: int, mode: StreamMode, elements: Sequence[int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "elements", tuple(elements))
        reason = stream_violation(self)
        if reason is not None:
            raise ValueError(f"invalid stream: {reason}")

    def __len__(self) -> int:
        return len(self.elements)


#: the guard's bytearray takes each value up to the floor, and a larger one while
#: that costs at most this many bytes per value read, about a set entry's cost
DENSE_FLOOR = 1 << 20
DENSE_BYTES_PER_VALUE = 64
#: bytes compared at a time by :meth:`StreamValidator.holds_all_but`
MAP_SLICE = 1 << 16
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


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

    def mark_held(self, out) -> None:
        """Set byte v of ``out``, a zeroed map of n + 1 bytes or more, to 1 for
        each value v held."""
        out[: len(self._guard)] = self._guard
        for value in self._far:
            out[value] = 1

    def holds_all_but(self, held) -> bool:
        """Whether ``held``, a map as :meth:`mark_held` writes, marks exactly the
        values of [1, n] this validator does not hold.

        Compared in C, :data:`MAP_SLICE` bytes at a time, so no copy is larger
        than a slice.  A validator holding values in its set says False.
        """
        if self._far:
            return False
        guard, end = self._guard, self.n + 1
        for start in range(1, end, MAP_SLICE):
            stop = min(start + MAP_SLICE, end)
            if guard[start:stop].ljust(stop - start, b"\0").translate(_FLIP) != held[start:stop]:
                return False
        return True


def stream_violation(inst: StreamInstance) -> str | None:
    """A human-readable reason the instance's fields break its mode's promise, or None.

    The reasons come in :class:`StreamValidator`'s order, with the first value
    that is not an int (a bool is not) among the value errors.  The
    constructor raises with this reason, so on a built instance it is None.
    """
    check = StreamValidator(inst.n, inst.mode)
    elements = inst.elements
    for pos, value in enumerate(elements):
        if not isinstance(value, int) or isinstance(value, bool):
            check.feed(elements[:pos])
            check.error = check.error or f"non-integer value {value!r} at position {pos + 1}"
            break
    else:
        check.feed(elements)
    check.count = len(elements)
    return check.violation()


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


def _canonical(text: str) -> bool:
    """Whether :func:`iter_stream_text` hands ``text`` to the JSON scanner.

    True when ``text`` holds only ASCII digits, ``-``, ``" "`` and ``"\\n"``.
    """
    return text.isascii() and not text.encode().translate(None, b"0123456789 \n-")


def parse_int(token: str) -> int:
    """The integer of ``token``: ASCII digits with an optional leading ``-``.

    Unlike ``int(token)``, rejects ``_`` digit groups, a ``+`` sign,
    non-ASCII digits and blanks around the digits, with the ValueError
    ``int()`` gives for a bad literal.

    >>> parse_int("-4"), parse_int("007")
    (-4, 7)
    >>> parse_int("1_0")
    Traceback (most recent call last):
    ...
    ValueError: invalid literal for int() with base 10: '1_0'
    >>> parse_int(" 2")
    Traceback (most recent call last):
    ...
    ValueError: invalid literal for int() with base 10: ' 2'
    """
    digits = token[1:] if token.startswith("-") else token
    if digits.isascii() and digits.isdigit():
        return int(token)
    raise ValueError(f"invalid literal for int() with base 10: {token!r}")


def _parse_header(line: str) -> tuple[int, StreamMode]:
    parts = line.split()
    if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("mode="):
        raise ValueError(f"malformed header {line!r} (expected 'n=<int> mode=<perm|seq>')")
    try:
        n = parse_int(parts[0][2:])
    except ValueError:
        raise ValueError(f"malformed universe size in header {line!r}") from None
    return n, StreamMode.from_token(parts[1][5:])


def iter_stream_text(fh: TextIO, header: tuple[int, StreamMode] | None = None) -> Iterator:
    """Tokenize the stream file format from ``fh``, :data:`READ_CHARS` at a time.

    Yields the header as ``(n, mode)`` first, then the stream values as
    non-empty lists of ints, at most one list per chunk read.  Given
    ``header``, the text is the rest of a stream whose header is already
    read, from the start of a line on: the header is not yielded, and the
    values are those the whole text yields after that line start.  Until the
    header is read, and while the unread text holds a ``#``, the text after
    a chunk's last ``"\\n"`` is carried over to the next chunk; otherwise
    only the word the chunk ends in is, so a stream on one line is not held
    whole.  Lines split
    as :meth:`str.splitlines` splits them, so ``\\r``, ``\\f``, ``\\u2028``
    and the other boundaries it knows end a line (and may start a comment)
    too.  A value is ASCII digits with an optional leading ``-``
    (:func:`parse_int`).  Raises ValueError on a missing or malformed header
    and on any other value, once the tokenizer reaches it.  Nothing is
    validated: see :class:`StreamValidator`.

    Until the header is read, and in a chunk that holds a ``#``, the text is
    filtered line by line first: the header is read, blank and comment lines
    are dropped, and the rest of a value line that the last chunk ended in
    is kept whatever it holds.  The kept lines, joined by ``"\\n"``, are then
    read as any other chunk's text is.

    A text that holds only ASCII digits, ``-``, ``" "`` and ``"\\n"`` (the
    canonical text that :func:`format_stream_text` writes) is parsed in one
    call to the C JSON scanner: its words joined by ``,`` inside ``[...]``.
    That is exact.  With no ``.``, ``e``, letter, quote, bracket or comma in
    the text, the only JSON the array can hold is ints, and a parse that
    succeeds has read every word as ``-?(0|[1-9][0-9]*)`` with exactly one
    blank between two words: the list ``int()`` gives on :meth:`str.split`'s
    words.  Any other text, and a canonical one whose JSON parse raises
    ValueError (``007``, a lone ``-``, two blanks in a row, more digits than
    ``int()`` takes), goes word by word as above, and its error is ``int()``'s.

    >>> chunks = iter_stream_text(io.StringIO("# demo\\nn=3 mode=perm\\n3 1\\n2\\n"))
    >>> next(chunks)
    (3, <StreamMode.PERMUTATION: 'perm'>)
    >>> list(chunks)
    [[3, 1, 2]]
    """
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
        continued = mid_line  # the text's first line is the rest of a value line
        # past the text's trailing blanks: a word leaves its line open
        end = len(text)
        while end and text[end - 1].isspace() and text[end - 1] not in _LINE_BREAKS:
            end -= 1
        if end:
            mid_line = text[end - 1] not in _LINE_BREAKS
        if header is None or "#" in text:
            kept = []  # the value lines: no header, blank or comment line
            for line in text.splitlines():
                if continued:  # the rest of a value line, even if it holds "#"
                    continued = False
                    kept.append(line)
                    continue
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if header is None:
                    header = _parse_header(stripped)
                    yield header
                else:
                    kept.append(line)
            text = "\n".join(kept)
        values = None
        if _canonical(text):
            try:  # one C pass for the whole chunk: exact, see above
                values = _json_loads("[" + text.strip().replace("\n", " ").replace(" ", ",") + "]")
            except ValueError:
                pass  # the words are read one by one below, with int()'s error
        if values is None:
            # int() alone would take "_" groups, a "+" and non-ASCII digits: when
            # the whole text has none, its words need no check of their own
            strict = text.isascii() and "_" not in text and "+" not in text
            try:
                values = list(map(int if strict else parse_int, text.split()))
            except ValueError as exc:
                raise ValueError(f"non-integer stream value: {exc}") from None
        del text  # while the consumer runs, only the values stay alive
        if values:
            yield values
        if not chunk:
            break
    if header is None:
        raise ValueError("missing stream header line 'n=<int> mode=<perm|seq>'")


def collect_stream(chunks: Iterator) -> StreamInstance:
    """The instance that :func:`iter_stream_text`'s header and values describe.

    Raises ValueError on a malformed stream, as the constructor does.
    """
    n, mode = next(chunks)
    elements: list[int] = []
    for values in chunks:
        elements += values
    return StreamInstance(n=n, mode=mode, elements=tuple(elements))


def parse_stream_text(text: str) -> StreamInstance:
    """Parse the stream file format.  Raises ValueError on malformed input."""
    return collect_stream(iter_stream_text(io.StringIO(text)))

