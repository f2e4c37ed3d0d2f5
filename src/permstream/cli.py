"""Command-line entry point: the parser, ``main``, and ``detect`` with its plumbing.

``oracle``, ``gen``, ``fuzz`` and ``bench`` live in :mod:`permstream.tools`,
which ``main`` imports only to run one of them, so a ``detect`` process
compiles neither it nor the oracle and the generators it imports.

Exit codes: 0 on success (and on agreement for the checking commands), 1 when
a verdict disagreement is found (``detect --check``, ``oracle --split``, or a
``fuzz`` counterexample), 2 on usage or I/O errors.

All randomized commands take ``--seed``; identical seed and configuration
reproduce identical results, and ``--json`` reports are byte-identical apart
from the wall-time field.  ``fuzz`` writes any counterexample to a replay
file that ``detect --check`` can re-run directly.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import os
import stat
import sys
import time
import warnings
from typing import Callable, Iterator, Sequence

from .core import (
    Pattern,
    StreamInstance,
    StreamMode,
    StreamValidator,
    iter_stream_text,
    parse_int,
    parse_pattern,
)
from .streaming.dispatch import FAMILIES, new_detector

# Under ``python -m permstream.cli`` this file runs as ``__main__``; register
# it under its own name too, so that ``tools`` importing from ``.cli`` gets
# this module, not a second copy whose UsageError ``main`` would not catch.
sys.modules.setdefault("permstream.cli", sys.modules[__name__])

SCHEMA_VERSION = 1

# fuzz --exhaustive limits, shown in its --help and enforced by tools.cmd_fuzz
_EXHAUSTIVE_PERM_CAP = 8
_EXHAUSTIVE_SETS_CAP = 6


class UsageError(Exception):
    """Bad arguments or unusable input files (exit code 2)."""


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


#: a stream file smaller than this is read by one process: a helper for the
#: back half costs about 1-3 ms (fork, reap and the map comparison), the time
#: it takes to validate some 10^4-10^5 values
SPLIT_MIN_BYTES = 1 << 20


class _CountedReads(io.BufferedIOBase):
    """A binary stream that counts the bytes read through it, for the UTF-8
    text reader :func:`_file_chunks` puts on top, which reads by ``read1``.
    While ``stop`` is set, it reads as ending at that byte offset: the split
    path (:func:`permstream.backhalf.split_chunks`) sets it at a line start.
    Closing it leaves the stream it reads open."""

    def __init__(self, raw: io.BufferedIOBase) -> None:
        self._raw = raw
        self.count = 0
        self.stop: int | None = None

    def readable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self._raw.fileno()

    def read1(self, size: int = -1) -> bytes:
        if self.stop is not None:
            left = self.stop - self.count
            size = left if size < 0 else min(size, left)
        data = self._raw.read1(size)
        self.count += len(data)
        return data

    def offset(self, exc: UnicodeDecodeError) -> int:
        """The input's byte offset of the byte the text reader's decoder failed
        on: it decodes the bytes it kept from the last read joined to the last
        read, so ``exc.object`` ends at the last byte read so far."""
        return self.count - len(exc.object) + exc.start


def _file_chunks(path: str, settled: Callable | None = None) -> Iterator:
    """:func:`iter_stream_text` over a file ('-' for stdin), errors as UsageError.

    A file and stdin are read alike: their bytes decoded as strict UTF-8
    with universal newlines, so the same bytes give the same values and the
    same errors, and a UTF-8 error names its byte offset in the input.
    Given ``settled``, a regular file of at least :data:`SPLIT_MIN_BYTES` is
    read by :func:`permstream.backhalf.split_chunks`, which may have a helper
    process validate its back half.
    """
    try:
        if path == "-":
            if sys.stdin is None:  # the process was started with stdin closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            reads = _CountedReads(sys.stdin.buffer)
            yield from iter_stream_text(io.TextIOWrapper(reads, encoding="utf-8"))
        else:
            with open(path, "rb") as raw:
                reads = _CountedReads(raw)
                fh = io.TextIOWrapper(reads, encoding="utf-8")
                st = os.fstat(raw.fileno())
                if (settled is not None and stat.S_ISREG(st.st_mode)
                        and st.st_size >= SPLIT_MIN_BYTES):
                    from .backhalf import split_chunks

                    yield from split_chunks(fh, settled)
                else:
                    yield from iter_stream_text(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"input is not UTF-8 at byte offset {reads.offset(exc)}: {exc.reason}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _stream_chunks(args: argparse.Namespace, settled: Callable | None = None) -> Iterator:
    """The stream's header ``(n, mode)``, then its values in lists."""
    if args.input is not None and args.values is not None:
        raise UsageError("give either --input or --values, not both")
    if args.input is not None:
        yield from _file_chunks(args.input, settled)
        return
    if args.values is not None:
        if args.n is None:
            raise UsageError("--values needs --n to fix the universe size")
        try:
            values = [parse_int(v) for v in args.values.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --values: {exc}") from exc
        yield (args.n, StreamMode.from_token(args.mode))
        yield values
        return
    raise UsageError("a stream is required: --input FILE or --values CSV --n N")


def _parse_pattern_arg(text: str) -> Pattern:
    try:
        return parse_pattern(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _occurrence_json(occ) -> dict | None:
    if occ is None:
        return None
    return {
        "positions": [p if p is not None else "future" for p in occ.positions],
        "values": list(occ.values),
    }


def _emit(args: argparse.Namespace, report: dict, human: list[str]) -> None:
    if getattr(args, "json", False):
        report = {"schema": SCHEMA_VERSION, **report}
        report["wall_time_s"] = round(time.monotonic() - args._t0, 6)
        print(json.dumps(report, sort_keys=True))
    else:
        for line in human:
            print(line)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def cmd_detect(args: argparse.Namespace) -> int:
    """One pass over the stream in chunks: validate every value, feed until accept.

    Values are range- and duplicate-checked once, by the validator, so the
    detector is fed each valid chunk whole (``Detector._feed``).  After the
    accept the rest of the stream is still read and validated; a malformed
    stream fails as a whole: its error wins over an unusable ``--detector``
    and over the dispatch warning, which is shown only for a valid stream.

    Without ``--check``, once the detector has accepted, a large ``perm``
    file's back half is validated by a forked helper (:mod:`permstream.backhalf`).
    Its half is taken at the midpoint only if the two halves together are
    exactly a permutation of [1, n]; otherwise this loop reads on, so the
    output is the same.
    """
    pattern = _parse_pattern_arg(args.pattern)

    def settled() -> StreamValidator | None:
        return check if accepted_at is not None and check.error is None else None

    chunks = _stream_chunks(args, None if args.check else settled)
    n, mode = next(chunks)
    check = StreamValidator(n, mode)
    detector = unusable = None
    with warnings.catch_warnings(record=True) as dispatch_warnings:
        warnings.simplefilter("always")
        try:
            if n >= 1:  # else the validator reports n
                detector = new_detector(pattern, n, mode, args.detector)
        except ValueError as exc:  # the forced family cannot serve it
            unusable = UsageError(f"--detector {exc}")
    feed = detector._feed if detector is not None else None
    kept: list[int] | None = [] if args.check else None
    accepted_at = None
    try:
        for values in chunks:
            check.feed(values)
            if kept is not None:
                kept += values
            if feed is not None and check.error is None and feed(values):
                accepted_at = detector.pushes
                feed = None
    finally:
        chunks.close()  # a helper still running is killed and reaped
    reason = check.violation()
    if reason is not None:
        raise UsageError(f"invalid stream: {reason}")
    if unusable is not None:
        raise unusable
    for w in dispatch_warnings:  # at a fixed location: no path, line or source of ours
        warnings.warn_explicit(w.message, w.category, "permstream", 0)
    rep = detector.finish()

    agree = oracle_verdict = None
    if kept is not None:
        from .oracle import contains_bruteforce, occurrence_is_valid

        inst = StreamInstance(n, mode, kept)
        oracle_verdict = contains_bruteforce(inst, pattern) is not None
        occ = rep.occurrence  # a witness that does not hold is a disagreement too
        agree = oracle_verdict == rep.verdict and (
            occ is None or occurrence_is_valid(inst, pattern, occ)
        )

    human = [
        f"pattern {pattern} in stream of {check.count} values (n={n}, "
        f"mode={mode.value}): {'CONTAINED' if rep.verdict else 'AVOIDED'}",
        f"detector: {type(detector).__name__}, peak cells {rep.peak_cells}, "
        f"peak bits {rep.peak_bits}, structures {rep.structure_peaks}",
    ]
    if accepted_at is not None:
        human.insert(1, f"accepted after reading {accepted_at} of {check.count} values")
    if rep.occurrence is not None:
        pos = ", ".join("future" if p is None else str(p) for p in rep.occurrence.positions)
        human.append(f"occurrence: values {rep.occurrence.values} at positions ({pos})")
    if args.check:
        human.append(f"oracle cross-check: {'agree' if agree else 'DISAGREE'}")

    _emit(
        args,
        {
            "command": "detect",
            "pattern": str(pattern),
            "n": n,
            "mode": mode.value,
            "stream_len": check.count,
            "detector": type(detector).__name__,
            "verdict": rep.verdict,
            "accepted_after": accepted_at,
            "occurrence": _occurrence_json(rep.occurrence),
            "peak_cells": rep.peak_cells,
            "peak_bits": rep.peak_bits,
            "structure_peaks": rep.structure_peaks,
            "oracle_verdict": oracle_verdict,
            "agree": agree,
        },
        human,
    )
    return 0 if agree in (None, True) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_option(text: str) -> int:
    """The type of every int option: :func:`parse_int`, in argparse's own words."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_stream_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="stream file ('-' for stdin)")
    p.add_argument("--values", help="inline stream, comma-separated")
    p.add_argument("--n", type=_int_option, help="universe size for --values")
    p.add_argument(
        "--mode", choices=["perm", "seq"], default="perm", help="stream mode for --values"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permstream",
        description="Streaming permutation-pattern detection, oracles, and hard instances.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("detect", help="run the dispatched streaming detector")
    p.add_argument("--pattern", required=True, help="pattern, e.g. 312 or 10,3,2,...")
    _add_stream_args(p)
    p.add_argument(
        "--detector",
        choices=["auto", *FAMILIES],
        default="auto",
        help="force a detector family instead of dispatching",
    )
    p.add_argument("--check", action="store_true", help="cross-check against the oracle")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="brute-force containment / counting / split protocol")
    p.add_argument("--pattern", required=True)
    _add_stream_args(p)
    p.add_argument("--count", action="store_true", help="also count all occurrences")
    p.add_argument(
        "--split",
        type=_int_option,
        help="run the one-bit split protocol with Alice holding this many leading values",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="emit a hard instance")
    p.add_argument(
        "--construction",
        required=True,
        help="seq312 | front4:<4231|4213|4132|4123> | 4312 | 3142 | 2143 | monotone-lb | extend",
    )
    p.add_argument("--nsets", type=_int_option, help="disjointness universe size")
    p.add_argument("--s", help="Alice's set, comma-separated")
    p.add_argument("--t", help="Bob's set, comma-separated")
    p.add_argument("--random-sets", action="store_true", help="draw S and T from --seed")
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--k", type=_int_option, help="monotone-lb: pattern length")
    p.add_argument("--n", type=_int_option, help="monotone-lb: universe size (even)")
    p.add_argument("--rho", help="monotone-lb: odd increasing code, comma-separated")
    p.add_argument("--sigma", help="monotone-lb: second code (emits a stream pair)")
    p.add_argument("--input", help="extend: stream file to transform")
    p.add_argument("--out", help="output file (monotone-lb pair: prefix)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fuzz", help="randomized / exhaustive detector-vs-oracle testing")
    p.add_argument("--pattern", help="fuzz random permutations against this pattern")
    p.add_argument("--n", type=_int_option, help="permutation size for --pattern fuzzing")
    p.add_argument("--construction", help="fuzz a hard-instance construction instead")
    p.add_argument("--nsets", type=_int_option)
    p.add_argument("--trials", type=_int_option, default=100)
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help=f"enumerate everything: all n! permutations (n <= {_EXHAUSTIVE_PERM_CAP}) "
        f"or all 4^nsets subset pairs (nsets <= {_EXHAUSTIVE_SETS_CAP})",
    )
    p.add_argument("--jobs", type=_int_option, default=1, help="worker processes (default: 1)")
    p.add_argument("--replay-dir", help="directory for counterexample replay files")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bench", help="peak-space measurements on random and adversarial inputs")
    p.add_argument("--pattern", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated universe sizes")
    p.add_argument("--trials", type=_int_option, default=20)
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    try:
        if args.subcommand == "detect":
            return cmd_detect(args)
        from . import tools

        return getattr(tools, "cmd_" + args.subcommand)(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry of ``python -m permstream.cli`` and of the ``permstream``
    script: :func:`main` on ``sys.argv``, then :func:`gc.freeze`.

    Frozen objects are left out of every later collection, so the collections
    the interpreter makes at exit skip every object that it, its ``site`` and
    this run have made, and the OS takes their memory back.  Buffered output
    is still flushed and atexit handlers still run.  ``main`` itself and the
    library leave the collector alone: a library must not change its host's.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
