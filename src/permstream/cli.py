"""Command-line harness: detect, oracle, gen, fuzz, and bench subcommands.

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
import json
import os
import random
import sys
import time
import warnings
from itertools import combinations, islice, permutations
from typing import TYPE_CHECKING, Iterator, Sequence

from .core import (
    Pattern,
    StreamInstance,
    StreamMode,
    StreamValidator,
    checked_instance,
    collect_stream,
    format_stream_text,
    iter_stream_text,
    parse_pattern,
    stream_violation,
)
from .streaming.base import bits_per_cell
from .streaming.dispatch import FAMILIES, new_detector, run_detector

if TYPE_CHECKING:
    from .hardgen import DisjInstance

# The oracle, the generators and the process pool are imported by the
# subcommands that use them, so that ``detect`` loads none of them.

SCHEMA_VERSION = 1

_EXHAUSTIVE_PERM_CAP = 8
_EXHAUSTIVE_SETS_CAP = 6
_TRIAL_BATCH = 1024  # trials a parallel fuzz run holds at once


class UsageError(Exception):
    """Bad arguments or unusable input files (exit code 2)."""


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _file_chunks(path: str) -> Iterator:
    """:func:`iter_stream_text` over a file ('-' for stdin), errors as UsageError."""
    try:
        if path == "-":
            yield from iter_stream_text(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                yield from iter_stream_text(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _stream_chunks(args: argparse.Namespace) -> Iterator:
    """The stream's header ``(n, mode)``, then its values in lists."""
    if args.input and args.values:
        raise UsageError("give either --input or --values, not both")
    if args.input:
        return _file_chunks(args.input)
    if args.values:
        if args.n is None:
            raise UsageError("--values needs --n to fix the universe size")
        try:
            values = [int(v) for v in args.values.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --values: {exc}") from exc
        return iter([(args.n, StreamMode.from_token(args.mode)), values])
    raise UsageError("a stream is required: --input FILE or --values CSV --n N")


def _require_valid(reason: str | None) -> None:
    if reason is not None:
        raise UsageError(f"invalid stream: {reason}")


def _checked_stream(chunks: Iterator) -> StreamInstance:
    inst = collect_stream(chunks)
    _require_valid(stream_violation(inst))
    return inst


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
    """
    pattern = _parse_pattern_arg(args.pattern)
    chunks = _stream_chunks(args)
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
    for values in chunks:
        check.feed(values)
        if kept is not None:
            kept += values
        if feed is not None and check.error is None and feed(values):
            accepted_at = detector.pushes
            feed = None
    _require_valid(check.violation())
    if unusable is not None:
        raise unusable
    for w in dispatch_warnings:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    rep = detector.finish()

    agree = None
    oracle_verdict = None
    if kept is not None:
        from .oracle import contains_bruteforce

        inst = checked_instance(check, tuple(kept))  # validated above: not scanned again
        oracle_verdict = contains_bruteforce(inst, pattern) is not None
        agree = oracle_verdict == rep.verdict

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
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import SplitInput, contains_bruteforce, count_occurrences, split_protocol

    pattern = _parse_pattern_arg(args.pattern)
    inst = _checked_stream(_stream_chunks(args))
    occ = contains_bruteforce(inst, pattern)
    payload: dict = {
        "command": "oracle",
        "pattern": str(pattern),
        "n": inst.n,
        "mode": inst.mode.value,
        "verdict": occ is not None,
        "occurrence": _occurrence_json(occ),
    }
    human = [
        f"pattern {pattern}: {'CONTAINED' if occ else 'AVOIDED'}",
    ]
    if occ is not None:
        human.append(f"first occurrence: values {occ.values} at positions {occ.positions}")

    if args.count:
        total = count_occurrences(inst, pattern)
        payload["count"] = total
        human.append(f"occurrences: {total}")

    exit_code = 0
    if args.split is not None:
        if inst.mode is not StreamMode.PERMUTATION:
            raise UsageError("--split needs a permutation stream (mode=perm)")
        if not 0 <= args.split <= len(inst.elements):
            raise UsageError(
                f"--split must be between 0 and {len(inst.elements)}, got {args.split}"
            )
        try:
            split = SplitInput(
                n=inst.n,
                prefix=inst.elements[: args.split],
                suffix=inst.elements[args.split :],
            )
            bit = split_protocol(split, pattern)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        agree = bit == (occ is not None)
        payload["split"] = args.split
        payload["protocol_verdict"] = bit
        payload["agree"] = agree
        human.append(
            f"split protocol at {args.split}: {'CONTAINED' if bit else 'AVOIDED'} "
            f"({'agree' if agree else 'DISAGREE'})"
        )
        if not agree:
            exit_code = 1

    _emit(args, payload, human)
    return exit_code


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _parse_int_set(text: str | None, what: str) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


#: what ``_build_construction`` builds: the disjointness constructions
DISJOINTNESS = ("seq312", "front4:<pattern>", "4312", "3142", "2143")


def _build_construction(
    construction: str, n_sets: int, s: frozenset[int], t: frozenset[int],
    also: tuple[str, ...] = (),
) -> DisjInstance:
    """The named construction; ``also`` lists the caller's other names."""
    from .hardgen import gen_3142_2143, gen_4312, gen_pi4_front, gen_seq312

    try:
        if construction == "seq312":
            return gen_seq312(n_sets, s, t)
        if construction.startswith("front4:"):
            return gen_pi4_front(parse_pattern(construction[7:]), n_sets, s, t)
        if construction == "4312":
            return gen_4312(n_sets, s, t)
        if construction in ("3142", "2143"):
            return gen_3142_2143(parse_pattern(construction), n_sets, s, t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    *names, last = DISJOINTNESS + also
    raise UsageError(
        f"unknown construction {construction!r} (expected {', '.join(names)}, or {last})"
    )


def _write_or_print(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc
        print(path)
    else:
        sys.stdout.write(text)


Outputs = list[tuple[str, str]]  # (suffix to --out, stream text)


def _gen_extend(args: argparse.Namespace) -> tuple[dict, Outputs]:
    if not args.input:
        raise UsageError("extend needs --input FILE")
    from .hardgen import extend_stream

    source = _checked_stream(_file_chunks(args.input))
    out = extend_stream(source)
    text = format_stream_text(
        out, comments=[f"extend of {args.input} (n={source.n} -> {out.n})"]
    )
    payload = {"n": out.n, "mode": out.mode.value, "stream": list(out.elements)}
    return payload, [("", text)]


def _gen_monotone_lb(args: argparse.Namespace) -> tuple[dict, Outputs]:
    if args.k is None or args.n is None or not args.rho:
        raise UsageError("monotone-lb needs --k, --n, and --rho")
    from .hardgen import gen_monotone_lb

    rho = tuple(sorted(_parse_int_set(args.rho, "--rho")))
    sigma = tuple(sorted(_parse_int_set(args.sigma, "--sigma"))) if args.sigma else None
    try:
        result = gen_monotone_lb(args.k, args.n, rho, sigma)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {"k": args.k, "n": args.n, "rho": list(rho)}
    if sigma is None:
        payload["stream"] = list(result.elements)
        comment = f"monotone-lb prefix k={args.k} rho={args.rho}"
        return payload, [("", format_stream_text(result, comments=[comment]))]
    accepting, rejecting = result
    payload.update(
        sigma=list(sigma), accepting=list(accepting.elements), rejecting=list(rejecting.elements)
    )
    outputs = []
    for suffix, role, inst in (
        ("-accept.txt", "accepting", accepting),
        ("-reject.txt", "rejecting", rejecting),
    ):
        comment = f"monotone-lb {role} k={args.k} rho={args.rho} sigma={args.sigma}"
        outputs.append((suffix, format_stream_text(inst, comments=[comment])))
    return payload, outputs


def _gen_disjointness(args: argparse.Namespace) -> tuple[dict, Outputs]:
    if args.nsets is None:
        raise UsageError(f"{args.construction} needs --nsets")
    if args.random_sets:
        from .hardgen import random_subsets

        rng = random.Random(args.seed)
        s, t = random_subsets(args.nsets, rng)
    else:
        s = _parse_int_set(args.s, "--s")
        t = _parse_int_set(args.t, "--t")
    disj = _build_construction(args.construction, args.nsets, s, t, ("monotone-lb", "extend"))
    comments = [
        f"construction {args.construction} nsets={args.nsets} "
        f"S={sorted(disj.s)} T={sorted(disj.t)} pattern={disj.pattern}",
    ]
    text = format_stream_text(disj.stream, segments=disj.segments, comments=comments)
    payload = {
        "pattern": str(disj.pattern),
        "nsets": disj.n_sets,
        "s": sorted(disj.s),
        "t": sorted(disj.t),
        "intersecting": disj.intersecting,
        "n": disj.stream.n,
        "mode": disj.stream.mode.value,
        "stream": list(disj.stream.elements),
        "segments": [list(seg) for seg in disj.segments],
    }
    return payload, [("", text)]


def cmd_gen(args: argparse.Namespace) -> int:
    build = {"extend": _gen_extend, "monotone-lb": _gen_monotone_lb}.get(
        args.construction, _gen_disjointness
    )
    payload, outputs = build(args)
    if args.json:
        _emit(args, {"command": "gen", "construction": args.construction, **payload}, [])
        return 0
    for suffix, text in outputs:
        _write_or_print(args.out and args.out + suffix, text)
    return 0


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _random_perm(seed: int, trial: int, n: int) -> tuple[int, ...]:
    rng = random.Random(_trial_seed(seed, trial))
    tau = list(range(1, n + 1))
    rng.shuffle(tau)
    return tuple(tau)


def _perm_trial(payload: tuple[int, str, tuple[int, ...]]) -> dict | None:
    """One permutation trial; returns a disagreement record or None."""
    from .oracle import contains_bruteforce

    trial, pattern_text, tau = payload
    pattern = parse_pattern(pattern_text)
    inst = StreamInstance(n=len(tau), mode=StreamMode.PERMUTATION, elements=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        detector_verdict = run_detector(inst, pattern).verdict
    oracle_verdict = contains_bruteforce(inst, pattern) is not None
    if detector_verdict == oracle_verdict:
        return None
    return {
        "trial": trial,
        "stream": list(tau),
        "n": inst.n,
        "mode": "perm",
        "detector": detector_verdict,
        "oracle": oracle_verdict,
    }


def _construction_trial(payload: tuple[int, str, int, frozenset, frozenset]) -> dict | None:
    """One construction trial on given subsets (iff-check plus baseline stress)."""
    from .oracle import contains_bruteforce

    trial, construction, nsets, s, t = payload
    disj = _build_construction(construction, nsets, s, t)
    oracle_verdict = contains_bruteforce(disj.stream, disj.pattern) is not None
    want = disj.intersecting
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        detector_verdict = run_detector(disj.stream, disj.pattern).verdict
    if oracle_verdict == want and detector_verdict == want:
        return None
    return {
        "trial": trial,
        "stream": list(disj.stream.elements),
        "n": disj.stream.n,
        "mode": disj.stream.mode.value,
        "s": sorted(disj.s),
        "t": sorted(disj.t),
        "intersecting": want,
        "oracle": oracle_verdict,
        "detector": detector_verdict,
    }


def _write_replay(args: argparse.Namespace, record: dict, pattern: Pattern) -> str:
    mode = StreamMode.from_token(record["mode"])
    inst = StreamInstance(n=record["n"], mode=mode, elements=tuple(record["stream"]))
    comments = [
        f"fuzz counterexample: pattern={pattern} seed={args.seed} trial={record['trial']}",
        f"detector={record['detector']} oracle={record.get('oracle')}",
        f"replay: permstream detect --pattern {pattern} --input <this file> --check",
    ]
    if "s" in record:
        comments.insert(1, f"construction sets S={record['s']} T={record['t']}")
    directory = args.replay_dir or "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"permstream-replay-{args.seed}-{record['trial']}.txt"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stream_text(inst, comments=comments))
    return path


def _run_trials(worker, payloads: Iterator, jobs: int) -> Iterator:
    """Run trials in order, yielding their results. Parallel when jobs > 1.

    The pool takes the payloads a batch at a time, so only one batch is
    held in memory and a disagreement leaves at most one batch to finish.
    """
    if jobs <= 1:
        yield from map(worker, payloads)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while batch := list(islice(payloads, _TRIAL_BATCH)):
            yield from pool.map(worker, batch, chunksize=16)


def _powerset(universe: range) -> Iterator[frozenset[int]]:
    for r in range(len(universe) + 1):
        for subset in combinations(universe, r):
            yield frozenset(subset)


def cmd_fuzz(args: argparse.Namespace) -> int:
    if bool(args.pattern) == bool(args.construction):
        raise UsageError("fuzz needs exactly one of --pattern (with --n) or --construction")
    if args.trials < 0:
        raise UsageError(f"--trials must be at least 0, got {args.trials}")

    if args.pattern:
        pattern = _parse_pattern_arg(args.pattern)
        if args.exhaustive and (args.n is None or args.n > _EXHAUSTIVE_PERM_CAP):
            raise UsageError(
                f"--exhaustive enumerates all n! permutations; n <= {_EXHAUSTIVE_PERM_CAP} "
                f"required (8! = 40320 streams), got n={args.n}"
            )
        if args.n is None:
            raise UsageError("--pattern fuzzing needs --n")
        if args.n < 1:
            raise UsageError(f"--n must be at least 1, got {args.n}")
        if args.exhaustive:
            streams = permutations(range(1, args.n + 1))
        else:
            streams = (_random_perm(args.seed, t, args.n) for t in range(args.trials))
        worker = _perm_trial
        payloads = ((t, str(pattern), tau) for t, tau in enumerate(streams))
        label = f"pattern {pattern}"
    else:
        construction = args.construction
        if args.nsets is None:
            raise UsageError("--construction fuzzing needs --nsets")
        pattern = _build_construction(
            construction, args.nsets, frozenset(), frozenset()
        ).pattern
        if args.exhaustive:
            if args.nsets > _EXHAUSTIVE_SETS_CAP:
                raise UsageError(
                    f"--exhaustive enumerates all 4^nsets subset pairs; nsets <= "
                    f"{_EXHAUSTIVE_SETS_CAP} required (4^6 = 4096 pairs), got {args.nsets}"
                )
            universe = range(1, args.nsets + 1)
            pairs = ((s, t) for s in _powerset(universe) for t in _powerset(universe))
        else:
            from .hardgen import random_subsets

            pairs = (
                random_subsets(args.nsets, random.Random(_trial_seed(args.seed, t)))
                for t in range(args.trials)
            )
        worker = _construction_trial
        payloads = ((t, construction, args.nsets, s, u) for t, (s, u) in enumerate(pairs))
        label = f"construction {construction}"

    disagreement: dict | None = None
    trials_run = 0
    for result in _run_trials(worker, payloads, args.jobs):
        trials_run += 1
        if result is not None:
            disagreement = result
            break

    replay_path = None
    if disagreement is not None:
        replay_path = _write_replay(args, disagreement, pattern)

    human = [
        f"fuzz {label}: {trials_run} trials, "
        f"{'1 disagreement' if disagreement else 'no disagreements'}"
    ]
    if replay_path:
        human.append(f"replay file: {replay_path}")
    _emit(
        args,
        {
            "command": "fuzz",
            "target": label,
            "seed": args.seed,
            "trials": trials_run,
            "exhaustive": bool(args.exhaustive),
            "disagreement": disagreement,
            "replay_file": replay_path,
        },
        human,
    )
    return 1 if disagreement else 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_row(pattern: Pattern, n: int, trials: int, seed: int) -> dict:
    """Peak cells on seeded random permutations and on the detector's adversary."""
    if len(pattern) > n:
        raise UsageError(f"pattern {pattern} is longer than n={n}")
    detector = new_detector(pattern, n)
    bound_name, bound = detector.space_bound()
    rng = random.Random(seed)
    random_peak = 0
    accepts = 0
    t0 = time.monotonic()
    for _ in range(trials):
        tau = list(range(1, n + 1))
        rng.shuffle(tau)
        inst = StreamInstance(n=n, mode=StreamMode.PERMUTATION, elements=tuple(tau))
        rep = run_detector(inst, pattern)
        random_peak = max(random_peak, rep.peak_cells)
        accepts += rep.verdict
    adv = detector.adversary()
    adv_peak = None
    adv_structures: dict[str, int] = {}
    if adv is not None:
        inst = StreamInstance(n=n, mode=StreamMode.PERMUTATION, elements=tuple(adv))
        rep = run_detector(inst, pattern, detector)
        if rep.verdict:
            raise AssertionError(f"adversarial instance for {pattern} was accepted")
        adv_peak = rep.peak_cells
        adv_structures = rep.structure_peaks
    return {
        "n": n,
        "trials": trials,
        "accept_rate": accepts / trials if trials else None,
        "bound": bound_name,
        "bound_value": round(bound, 3),
        "random_peak_cells": random_peak,
        "random_ratio": round(random_peak / bound, 4),
        "adversarial_peak_cells": adv_peak,
        "adversarial_ratio": round(adv_peak / bound, 4) if adv_peak else None,
        "adversarial_structures": adv_structures,
        "bits_per_cell": bits_per_cell(n),
        "seconds": round(time.monotonic() - t0, 3),
    }


def cmd_bench(args: argparse.Namespace) -> int:
    pattern = _parse_pattern_arg(args.pattern)
    try:
        sizes = [int(v) for v in args.sizes.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --sizes: {exc}") from exc
    if any(n < 1 for n in sizes):
        raise UsageError("--sizes must be positive")
    if args.trials < 0:
        raise UsageError(f"--trials must be at least 0, got {args.trials}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the baseline's dispatch warning
        rows = [_bench_row(pattern, n, args.trials, args.seed) for n in sizes]

    human = [f"bench pattern {pattern} ({args.trials} random trials per size)"]
    header = (
        f"{'n':>8} {'bound':>18} {'rand peak':>10} {'ratio':>8} "
        f"{'adv peak':>9} {'ratio':>8} {'sec':>7}"
    )
    human.append(header)
    for row in rows:
        human.append(
            f"{row['n']:>8} {row['bound_value']:>18} {row['random_peak_cells']:>10} "
            f"{row['random_ratio']:>8} "
            f"{row['adversarial_peak_cells'] if row['adversarial_peak_cells'] is not None else '-':>9} "
            f"{row['adversarial_ratio'] if row['adversarial_ratio'] is not None else '-':>8} "
            f"{row['seconds']:>7}"
        )
    _emit(
        args,
        {"command": "bench", "pattern": str(pattern), "seed": args.seed, "rows": rows},
        human,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_stream_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="stream file ('-' for stdin)")
    p.add_argument("--values", help="inline stream, comma-separated")
    p.add_argument("--n", type=int, help="universe size for --values")
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
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="brute-force containment / counting / split protocol")
    p.add_argument("--pattern", required=True)
    _add_stream_args(p)
    p.add_argument("--count", action="store_true", help="also count all occurrences")
    p.add_argument(
        "--split",
        type=int,
        help="run the one-bit split protocol with Alice holding this many leading values",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit a hard instance")
    p.add_argument(
        "--construction",
        required=True,
        help="seq312 | front4:<4231|4213|4132|4123> | 4312 | 3142 | 2143 | monotone-lb | extend",
    )
    p.add_argument("--nsets", type=int, help="disjointness universe size")
    p.add_argument("--s", help="Alice's set, comma-separated")
    p.add_argument("--t", help="Bob's set, comma-separated")
    p.add_argument("--random-sets", action="store_true", help="draw S and T from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="monotone-lb: pattern length")
    p.add_argument("--n", type=int, help="monotone-lb: universe size (even)")
    p.add_argument("--rho", help="monotone-lb: odd increasing code, comma-separated")
    p.add_argument("--sigma", help="monotone-lb: second code (emits a stream pair)")
    p.add_argument("--input", help="extend: stream file to transform")
    p.add_argument("--out", help="output file (monotone-lb pair: prefix)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fuzz", help="randomized / exhaustive detector-vs-oracle testing")
    p.add_argument("--pattern", help="fuzz random permutations against this pattern")
    p.add_argument("--n", type=int, help="permutation size for --pattern fuzzing")
    p.add_argument("--construction", help="fuzz a hard-instance construction instead")
    p.add_argument("--nsets", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help=f"enumerate everything: all n! permutations (n <= {_EXHAUSTIVE_PERM_CAP}) "
        f"or all 4^nsets subset pairs (nsets <= {_EXHAUSTIVE_SETS_CAP})",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default: 1)",
    )
    p.add_argument("--replay-dir", help="directory for counterexample replay files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("bench", help="peak-space measurements on random and adversarial inputs")
    p.add_argument("--pattern", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated universe sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
