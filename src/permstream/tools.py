"""The lab subcommands: oracle, gen, fuzz and bench.

:func:`permstream.cli.main` imports this module for every subcommand but
``detect``, so a ``detect`` run never compiles it, nor the oracle and the
generators it imports.  The parser, the exit codes and the shared plumbing
(``UsageError``, the stream readers, ``_emit``) live in :mod:`permstream.cli`.

``fuzz`` runs one kind of trial: the detector and the oracle against the
expected verdict, which is the oracle's for a random or enumerated
permutation, and ``intersecting`` for a construction on given subsets, and
any witness the detector reports against the stream.  Its first
disagreement goes to a replay file that ``detect --check`` re-runs.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
import warnings
from itertools import combinations, islice, permutations
from typing import Iterator

from .cli import (
    _EXHAUSTIVE_PERM_CAP,
    _EXHAUSTIVE_SETS_CAP,
    UsageError,
    _emit,
    _file_chunks,
    _occurrence_json,
    _parse_pattern_arg,
    _stream_chunks,
)
from .core import (
    Pattern,
    StreamInstance,
    StreamMode,
    collect_stream,
    format_stream_text,
    parse_int,
    parse_pattern,
)
from .hardgen import (
    DisjInstance,
    extend_stream,
    gen_3142_2143,
    gen_4312,
    gen_monotone_lb,
    gen_pi4_front,
    gen_seq312,
    random_subsets,
)
from .oracle import (
    SplitInput,
    contains_bruteforce,
    count_occurrences,
    occurrence_is_valid,
    split_protocol,
)
from .streaming.base import bits_per_cell
from .streaming.dispatch import new_detector, run_detector

_TRIAL_BATCH = 1024  # trials a parallel fuzz run holds at once


def _checked_stream(chunks: Iterator) -> StreamInstance:
    try:
        return collect_stream(chunks)
    except ValueError as exc:  # a malformed stream
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
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
    human = [f"pattern {pattern}: {'CONTAINED' if occ else 'AVOIDED'}"]
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


def _parse_ints(text: str | None, what: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text`` (:func:`parse_int`), in the order given."""
    if not text:
        return ()
    try:
        return tuple(map(parse_int, text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


#: what ``_build_construction`` builds: the disjointness constructions
DISJOINTNESS = ("seq312", "front4:<pattern>", "4312", "3142", "2143")


def _build_construction(
    construction: str, n_sets: int, s: frozenset[int], t: frozenset[int],
    also: tuple[str, ...] = (),
) -> DisjInstance:
    """The named construction; ``also`` lists the caller's other names."""
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


def _write(path: str, text: str, make_dir: bool = False) -> None:
    """Write ``text`` to ``path`` (after its directory, if ``make_dir``); OSError exits 2."""
    try:
        if make_dir:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


Outputs = list[tuple[str, str]]  # (suffix to --out, stream text)


def _gen_extend(args: argparse.Namespace) -> tuple[dict, Outputs]:
    if args.input is None:
        raise UsageError("extend needs --input FILE")
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
    rho = _parse_ints(args.rho, "--rho")
    sigma = _parse_ints(args.sigma, "--sigma") if args.sigma else None
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
        s, t = random_subsets(args.nsets, random.Random(args.seed))
    else:
        s = frozenset(_parse_ints(args.s, "--s"))
        t = frozenset(_parse_ints(args.t, "--t"))
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
        if args.out:
            _write(args.out + suffix, text)
            print(args.out + suffix)
        else:
            sys.stdout.write(text)
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


def _trial(payload: tuple[int, str | None, tuple]) -> dict | None:
    """One trial: detector and oracle against the expected verdict.

    ``payload`` is ``(trial, None, (pattern text, permutation))``, where the
    oracle's verdict is expected, or ``(trial, construction, (nsets, S, T))``,
    where ``intersecting`` is.  A witness the detector reports must pass
    :func:`occurrence_is_valid`; the record of one that fails holds it as
    ``invalid_occurrence``.  Returns the record of a miss, or None.
    """
    trial, construction, spec = payload
    if construction is None:
        pattern_text, tau = spec
        pattern = parse_pattern(pattern_text)
        stream = StreamInstance(n=len(tau), mode=StreamMode.PERMUTATION, elements=tau)
        sets: dict = {}
    else:
        disj = _build_construction(construction, *spec)
        pattern, stream = disj.pattern, disj.stream
        sets = {"s": sorted(disj.s), "t": sorted(disj.t), "intersecting": disj.intersecting}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_detector(stream, pattern)
    oracle_verdict = contains_bruteforce(stream, pattern) is not None
    occ = report.occurrence
    witness_holds = occ is None or occurrence_is_valid(stream, pattern, occ)
    expected = sets.get("intersecting", oracle_verdict)
    if witness_holds and report.verdict == oracle_verdict == expected:
        return None
    record = {
        "trial": trial,
        "stream": list(stream.elements),
        "n": stream.n,
        "mode": stream.mode.value,
        "detector": report.verdict,
        "oracle": oracle_verdict,
        **sets,
    }
    if not witness_holds:
        record["invalid_occurrence"] = _occurrence_json(occ)
    return record


def _write_replay(args: argparse.Namespace, record: dict, pattern: Pattern) -> str:
    mode = StreamMode.from_token(record["mode"])
    inst = StreamInstance(n=record["n"], mode=mode, elements=tuple(record["stream"]))
    comments = [
        f"fuzz counterexample: pattern={pattern} seed={args.seed} trial={record['trial']}",
        f"detector={record['detector']} oracle={record['oracle']}",
        f"replay: permstream detect --pattern {pattern} --input <this file> --check",
    ]
    if "s" in record:
        comments.insert(1, f"construction sets S={record['s']} T={record['t']}")
    if "invalid_occurrence" in record:
        comments.insert(-1, f"invalid detector witness {record['invalid_occurrence']}")
    name = f"permstream-replay-{args.seed}-{record['trial']}.txt"
    path = os.path.join(args.replay_dir or ".", name)
    _write(path, format_stream_text(inst, comments=comments), make_dir=True)
    return path


def _run_trials(payloads: Iterator, jobs: int) -> Iterator:
    """Run trials in order, yielding their results. Parallel when jobs > 1.

    The pool takes the payloads a batch at a time, so only one batch is
    held in memory and a disagreement leaves at most one batch to finish.
    """
    if jobs <= 1:
        yield from map(_trial, payloads)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while batch := list(islice(payloads, _TRIAL_BATCH)):
            yield from pool.map(_trial, batch, chunksize=16)


def _powerset(universe: range) -> Iterator[frozenset[int]]:
    for r in range(len(universe) + 1):
        for subset in combinations(universe, r):
            yield frozenset(subset)


def cmd_fuzz(args: argparse.Namespace) -> int:
    if bool(args.pattern) == bool(args.construction):
        raise UsageError("fuzz needs exactly one of --pattern (with --n) or --construction")
    if args.trials < 0:
        raise UsageError(f"--trials must be at least 0, got {args.trials}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")

    if args.pattern:
        pattern = _parse_pattern_arg(args.pattern)
        if args.n is None:
            raise UsageError("--pattern fuzzing needs --n")
        if args.exhaustive and args.n > _EXHAUSTIVE_PERM_CAP:
            raise UsageError(
                f"--exhaustive enumerates all n! permutations; n <= {_EXHAUSTIVE_PERM_CAP} "
                f"required (8! = 40320 streams), got n={args.n}"
            )
        if args.n < 1:
            raise UsageError(f"--n must be at least 1, got {args.n}")
        if args.exhaustive:
            streams = permutations(range(1, args.n + 1))
        else:
            streams = (_random_perm(args.seed, t, args.n) for t in range(args.trials))
        payloads = ((t, None, (str(pattern), tau)) for t, tau in enumerate(streams))
        label = f"pattern {pattern}"
    else:
        construction = args.construction
        if args.nsets is None:
            raise UsageError("--construction fuzzing needs --nsets")
        pattern = _build_construction(construction, args.nsets, frozenset(), frozenset()).pattern
        if args.exhaustive:
            if args.nsets > _EXHAUSTIVE_SETS_CAP:
                raise UsageError(
                    f"--exhaustive enumerates all 4^nsets subset pairs; nsets <= "
                    f"{_EXHAUSTIVE_SETS_CAP} required (4^6 = 4096 pairs), got {args.nsets}"
                )
            universe = range(1, args.nsets + 1)
            pairs = ((s, t) for s in _powerset(universe) for t in _powerset(universe))
        else:
            pairs = (
                random_subsets(args.nsets, random.Random(_trial_seed(args.seed, t)))
                for t in range(args.trials)
            )
        payloads = ((t, construction, (args.nsets, s, u)) for t, (s, u) in enumerate(pairs))
        label = f"construction {construction}"

    disagreement: dict | None = None
    trials_run = 0
    for result in _run_trials(payloads, args.jobs):
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
        "random_peak_cells": random_peak if trials else None,
        "random_ratio": round(random_peak / bound, 4) if trials else None,
        "adversarial_peak_cells": adv_peak,
        "adversarial_ratio": round(adv_peak / bound, 4) if adv_peak else None,
        "adversarial_structures": adv_structures,
        "bits_per_cell": bits_per_cell(n),
        "seconds": round(time.monotonic() - t0, 3),
    }


def cmd_bench(args: argparse.Namespace) -> int:
    pattern = _parse_pattern_arg(args.pattern)
    try:
        sizes = [parse_int(v) for v in args.sizes.split(",")]
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
        # '-' for what a row did not measure: no trials, or no adversary
        cell = {key: "-" if value is None else value for key, value in row.items()}
        human.append(
            f"{cell['n']:>8} {cell['bound_value']:>18} {cell['random_peak_cells']:>10} "
            f"{cell['random_ratio']:>8} {cell['adversarial_peak_cells']:>9} "
            f"{cell['adversarial_ratio']:>8} {cell['seconds']:>7}"
        )
    _emit(
        args,
        {"command": "bench", "pattern": str(pattern), "seed": args.seed, "rows": rows},
        human,
    )
    return 0
